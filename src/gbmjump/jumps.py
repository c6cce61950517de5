"""Data-augmented Gibbs sampling for GBM with Bernoulli jumps.

Observation model per step: d_i ~ Normal(theta*dt_i, sigma2*dt_i) plus, with
probability lambda_star, an independent Normal(mu_z, sigma2_z) jump. The
sampler augments with latent indicators J_i and sizes Z_i and sweeps

    latent (J, Z)  ->  lambda_star  ->  (mu_z, sigma2_z)  ->  (theta, sigma2)

where each block is conjugate. Only active sizes enter the later blocks, so
run_jump_gibbs forms no inactive Z_i, but it draws a normal for every step to
keep the random stream of sample_latent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gbm import IncrementKernel
from .gibbs import (
    ChainMeta,
    GbmPrior,
    PosteriorChain,
    _draw_theta_sigma2,
    _sigma2_conditional,
    _start,
    _SuffStats,
    _theta_conditional,
)
from .rngs import as_generator
from .series import IncrementSeries


@dataclass(frozen=True)
class JumpParams:
    """Diffusion (theta, sigma2) plus jump size law (mu_z, sigma2_z) and
    per-step jump probability lambda_star."""

    theta: float
    sigma2: float
    mu_z: float
    sigma2_z: float
    lambda_star: float

    def __post_init__(self) -> None:
        vals = (self.theta, self.sigma2, self.mu_z, self.sigma2_z, self.lambda_star)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("parameters must be finite")
        if self.sigma2 <= 0.0 or self.sigma2_z <= 0.0:
            raise ValueError("sigma2 and sigma2_z must be positive")
        if not 0.0 <= self.lambda_star <= 1.0:
            raise ValueError(f"lambda_star must lie in [0, 1], got {self.lambda_star}")

    @property
    def mu(self) -> float:
        """Arithmetic drift of the diffusion component."""
        return self.theta + 0.5 * self.sigma2


@dataclass(frozen=True)
class JumpPrior:
    """Normal/inverse-gamma priors on (theta, sigma2) and on (mu_z, sigma2_z),
    each a GbmPrior, and Beta(lambda_a, lambda_b) on lambda_star."""

    diffusion: GbmPrior = field(default_factory=GbmPrior)
    jump: GbmPrior = field(default_factory=GbmPrior)
    lambda_a: float = 1.0
    lambda_b: float = 1.0

    def __post_init__(self) -> None:
        if self.lambda_a <= 0.0 or self.lambda_b <= 0.0:
            raise ValueError("Beta prior parameters must be positive")


@dataclass(frozen=True)
class LatentState:
    """Per-step jump indicators and sizes from one augmentation draw."""

    indicators: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "indicators", np.asarray(self.indicators, dtype=bool))
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=float))
        if self.indicators.shape != self.sizes.shape:
            raise ValueError("indicators and sizes must have equal shape")

    @property
    def n_jumps(self) -> int:
        return int(np.count_nonzero(self.indicators))

    @property
    def active_sizes(self) -> np.ndarray:
        return self.sizes[self.indicators]

    @property
    def contribution(self) -> np.ndarray:
        """J_i * Z_i, the jump part of each increment."""
        return np.where(self.indicators, self.sizes, 0.0)


def _jump_log_odds(d, dd, dt, params: JumpParams):
    """Log-odds of J_i = 1, logit(lambda_star) + log N(d; m1, v1) - log N(d; m0, v0),
    as a*d^2 + b*d + c with dd = d*d; a, b and c are scalars for a scalar dt,
    and c is -inf or +inf at lambda_star 0 or 1."""
    lam = params.lambda_star
    c = math.log(lam) - math.log1p(-lam) if 0.0 < lam < 1.0 else (lam - 0.5) * math.inf
    v0, m0 = params.sigma2 * dt, params.theta * dt
    v1, m1 = v0 + params.sigma2_z, m0 + params.mu_z
    log_odds = 0.5 * (1.0 / v0 - 1.0 / v1) * dd
    log_odds += (m1 / v1 - m0 / v0) * d
    log_odds += c - 0.5 * np.log(v1 / v0) + 0.5 * (m0 * m0 / v0 - m1 * m1 / v1)
    return log_odds


def _draw_indicators(u, log_odds):
    """J_i = [u_i < 1/(1 + exp(-log_odds_i))]; exp overflowing to inf gives 0."""
    with np.errstate(over="ignore"):
        return u * (1.0 + np.exp(-log_odds)) < 1.0


def _jump_sizes(d, dt, z, active, params: JumpParams):
    """Z_i | J_i = 1 at the active steps (a mask or indices) from normals z:
    Normal(m, v), v = 1/(1/sigma2_z + 1/v0), m = v*(mu_z/sigma2_z + (d_i - m0)/v0)."""
    if np.ndim(dt):
        dt = dt[active]
    v0 = params.sigma2 * dt
    v = 1.0 / (1.0 / params.sigma2_z + 1.0 / v0)
    m = v * (params.mu_z / params.sigma2_z + (d[active] - params.theta * dt) / v0)
    return m + np.sqrt(v) * z[active]


def jump_indicator_prob(d, dt, params: JumpParams) -> np.ndarray:
    """Posterior probability that each increment contains a jump, the logistic
    of its log-odds; exactly 0 or 1 far out in the tails."""
    d, dt = np.asarray(d, dtype=float), np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-_jump_log_odds(d, d * d, dt, params)))


def sample_latent(inc: IncrementSeries, params: JumpParams, rng=None) -> LatentState:
    """Draw (J, Z) given parameters and data; inactive Z_i come from the prior."""
    gen = as_generator(rng)
    log_odds = _jump_log_odds(inc.d, inc.d * inc.d, inc.dt, params)
    indicators = _draw_indicators(gen.random(inc.n), log_odds)
    z = gen.standard_normal(inc.n)
    sizes = params.mu_z + math.sqrt(params.sigma2_z) * z
    sizes[indicators] = _jump_sizes(inc.d, inc.dt, z, indicators, params)
    return LatentState(indicators=indicators, sizes=sizes)


def lambda_conditional(indicators, prior: JumpPrior = JumpPrior()):
    """(a, b) of the Beta conditional for lambda_star given indicators."""
    indicators = np.asarray(indicators, dtype=bool)
    k = int(np.count_nonzero(indicators))
    n = indicators.size
    return prior.lambda_a + k, prior.lambda_b + n - k


def update_lambda(indicators, prior: JumpPrior = JumpPrior(), rng=None) -> float:
    a, b = lambda_conditional(indicators, prior)
    return float(as_generator(rng).beta(a, b))


def _size_stats(z_active) -> _SuffStats:
    """The active sizes as increments of unit step length: Z_i ~ Normal(mu_z,
    sigma2_z) is the diffusion model with theta = mu_z and every dt = 1."""
    z = np.asarray(z_active, dtype=float)
    return _SuffStats(z.size, float(z.sum()), z.size, float(z @ z))


def jump_mean_conditional(z_active, sigma2_z: float, prior: JumpPrior = JumpPrior()):
    """(mean, variance) of mu_z | sigma2_z and the active jump sizes."""
    return _theta_conditional(_size_stats(z_active), sigma2_z, prior.jump)


def jump_var_conditional(z_active, mu_z: float, prior: JumpPrior = JumpPrior()):
    """(shape, scale) of the inverse-gamma sigma2_z | mu_z and active sizes."""
    return _sigma2_conditional(_size_stats(z_active), mu_z, prior.jump)


def update_jump_moments(
    z_active, sigma2_z: float, prior: JumpPrior = JumpPrior(), rng=None
):
    """Draw mu_z | sigma2_z then sigma2_z | mu_z from the active sizes, the
    diffusion block's draw on sizes of unit step length.

    With no active jumps both reduce to prior draws.
    """
    return _draw_theta_sigma2(_size_stats(z_active), sigma2_z, prior.jump, as_generator(rng))


def update_diffusion_block(
    inc: IncrementSeries,
    latent: LatentState,
    sigma2: float,
    prior: GbmPrior = GbmPrior(),
    rng=None,
):
    """Draw (theta, sigma2) from the no-jump conditionals on d_i - J_i*Z_i."""
    stats = _SuffStats.of(inc.d - latent.contribution, inc.dt)
    return _draw_theta_sigma2(stats, sigma2, prior, as_generator(rng))


def increment_moments(params: JumpParams, dt: float):
    """Exact (mean, variance) of one increment under the jump model:
    mean = theta*dt + lambda_star*mu_z,
    var  = sigma2*dt + lambda_star*sigma2_z + lambda_star*(1-lambda_star)*mu_z^2.
    """
    lam = params.lambda_star
    mean = params.theta * dt + lam * params.mu_z
    var = params.sigma2 * dt + lam * params.sigma2_z + lam * (1.0 - lam) * params.mu_z**2
    return mean, var


def simulate_jump_increments(params: JumpParams, dt, n: int, rng=None) -> np.ndarray:
    """Sample n increments: Normal diffusion plus Bernoulli(lambda_star) jumps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = as_generator(rng)
    dt = np.broadcast_to(np.asarray(dt, dtype=float), (n,))
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    jump = (params.lambda_star, params.mu_z, params.sigma2_z)
    return IncrementKernel(params.theta, params.sigma2, gen, jump).block(dt)[:, 0]


def _initial_params(inc: IncrementSeries, prior: JumpPrior) -> JumpParams:
    """Diffusion at the no-jump start (the MLE, or the prior center below two
    increments), lambda_star = 0.1, mu_z = 0 and sigma2_z the excess variance
    of d over the diffusion share (floored at 1e-6), or the prior center."""
    theta, sigma2 = _start(inc, prior.diffusion)
    if inc.n >= 2:
        sigma2_z = max(float(np.var(inc.d) - sigma2 * np.mean(inc.dt)), 1e-6)
    else:
        sigma2_z = prior.jump.sigma2_center()
    return JumpParams(
        theta=theta, sigma2=sigma2, mu_z=0.0, sigma2_z=sigma2_z, lambda_star=0.1
    )


def run_jump_gibbs(
    inc: IncrementSeries,
    prior: JumpPrior = JumpPrior(),
    n_keep: int = 5000,
    burn_in: int = 1000,
    seed: int | None = None,
    lambda_star_fixed: float | None = None,
    track_jump_probs: bool = True,
) -> PosteriorChain:
    """Full data-augmentation sampler; returns a chain with columns
    (theta, sigma2, mu_z, sigma2_z, lambda_star, n_jumps).

    lambda_star_fixed pins the jump probability instead of sampling it
    (0.0 reduces the diffusion block to the no-jump sampler). jump_probs on
    the returned chain holds the posterior mean of each J_i over kept sweeps.
    """
    if n_keep < 1 or burn_in < 0:
        raise ValueError("need n_keep >= 1 and burn_in >= 0")
    if lambda_star_fixed is not None and not 0.0 <= lambda_star_fixed <= 1.0:
        raise ValueError("lambda_star_fixed must lie in [0, 1]")
    gen = as_generator(seed)
    params = _initial_params(inc, prior)
    if lambda_star_fixed is not None:
        params = replace(params, lambda_star=lambda_star_fixed)
    d, n = inc.d, inc.n
    dd, sum_dt = d * d, float(np.sum(inc.dt))
    dt = inc.dt[0] if n and np.all(inc.dt == inc.dt[0]) else inc.dt
    lam = lambda_star_fixed
    draws = np.empty((n_keep, 6))
    jump_hits = np.zeros(n)
    for sweep in range(burn_in + n_keep):
        active = _draw_indicators(gen.random(n), _jump_log_odds(d, dd, dt, params))
        idx = np.flatnonzero(active)
        sizes = _jump_sizes(d, dt, gen.standard_normal(n), idx, params)
        if lambda_star_fixed is None:
            lam = update_lambda(active, prior, gen)
        mu_z, sigma2_z = update_jump_moments(sizes, params.sigma2_z, prior, gen)
        resid = d.copy()
        resid[idx] -= sizes
        stats = _SuffStats(n, float(resid.sum()), sum_dt, float((resid * resid / dt).sum()))
        theta, sigma2 = _draw_theta_sigma2(stats, params.sigma2, prior.diffusion, gen)
        params = JumpParams(
            theta=theta, sigma2=sigma2, mu_z=mu_z, sigma2_z=sigma2_z, lambda_star=lam
        )
        if sweep >= burn_in:
            draws[sweep - burn_in] = (theta, sigma2, mu_z, sigma2_z, lam, sizes.size)
            if track_jump_probs:
                jump_hits += active
    meta = ChainMeta(model="gbm-jump", n_keep=n_keep, burn_in=burn_in, seed=seed)
    return PosteriorChain(
        columns=("theta", "sigma2", "mu_z", "sigma2_z", "lambda_star", "n_jumps"),
        draws=draws,
        meta=meta,
        jump_probs=jump_hits / n_keep if track_jump_probs else None,
    )
