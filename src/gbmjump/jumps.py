"""Data-augmented Gibbs sampling for GBM with Bernoulli jumps.

Observation model per step: d_i ~ Normal(theta*dt_i, sigma2*dt_i) plus, with
probability lambda_star, an independent Normal(mu_z, sigma2_z) jump. The
sampler augments with latent indicators J_i and sizes Z_i and sweeps

    latent (J, Z)  ->  lambda_star  ->  (mu_z, sigma2_z)  ->  (theta, sigma2)

where each block is conjugate. Inactive Z_i are refreshed from their prior
Normal(mu_z, sigma2_z) so the joint kernel stays valid; only active sizes
enter the jump-moment updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gbm import LOG_2PI, mle_fit, simulate_increments
from .gibbs import (
    ChainMeta,
    GbmPrior,
    PosteriorChain,
    _draw_theta_sigma2,
    _SuffStats,
    sample_inverse_gamma,
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
    """Diffusion block reuses the no-jump prior; jump moments get the same
    Normal/inverse-gamma pair; lambda_star gets Beta(lambda_a, lambda_b)."""

    diffusion: GbmPrior = field(default_factory=GbmPrior)
    jump_mean_mean: float = 0.0
    jump_mean_var: float = 100.0
    jump_ig_shape: float = 2.0
    jump_ig_scale: float = 0.001
    lambda_a: float = 1.0
    lambda_b: float = 1.0

    def __post_init__(self) -> None:
        if min(self.jump_mean_var, self.jump_ig_shape, self.jump_ig_scale) <= 0.0:
            raise ValueError("jump prior variance, shape and scale must be positive")
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


def _norm_logpdf(x, mean, var):
    return -0.5 * (LOG_2PI + np.log(var)) - 0.5 * (x - mean) ** 2 / var


def jump_indicator_prob(d, dt, params: JumpParams) -> np.ndarray:
    """Posterior probability that each increment contains a jump.

    Computed in log space from the two marginal component densities
    Normal(theta*dt + mu_z, sigma2*dt + sigma2_z) and Normal(theta*dt, sigma2*dt),
    so it stays finite far out in the tails.
    """
    d = np.asarray(d, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    lam = params.lambda_star
    if lam == 0.0:
        return np.zeros(np.broadcast(d, dt).shape)
    if lam == 1.0:
        return np.ones(np.broadcast(d, dt).shape)
    base_mean = params.theta * dt
    base_var = params.sigma2 * dt
    with_jump = math.log(lam) + _norm_logpdf(
        d, base_mean + params.mu_z, base_var + params.sigma2_z
    )
    without = math.log1p(-lam) + _norm_logpdf(d, base_mean, base_var)
    return np.exp(with_jump - np.logaddexp(with_jump, without))


def sample_latent(inc: IncrementSeries, params: JumpParams, rng=None) -> LatentState:
    """Draw (J, Z) jointly given parameters and data.

    J_i is Bernoulli with the indicator probability above. Given J_i = 1 the
    size is Normal with precision-weighted moments
        v = (1/sigma2_z + 1/(sigma2*dt_i))^-1,
        m = v * (mu_z/sigma2_z + (d_i - theta*dt_i)/(sigma2*dt_i));
    given J_i = 0 it is refreshed from the prior Normal(mu_z, sigma2_z).
    """
    gen = as_generator(rng)
    probs = jump_indicator_prob(inc.d, inc.dt, params)
    indicators = gen.random(inc.n) < probs
    base_var = params.sigma2 * inc.dt
    v = 1.0 / (1.0 / params.sigma2_z + 1.0 / base_var)
    m = v * (params.mu_z / params.sigma2_z + (inc.d - params.theta * inc.dt) / base_var)
    mean = np.where(indicators, m, params.mu_z)
    sd = np.sqrt(np.where(indicators, v, params.sigma2_z))
    sizes = mean + sd * gen.standard_normal(inc.n)
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


def jump_mean_conditional(
    z_active, sigma2_z: float, prior: JumpPrior = JumpPrior()
):
    """(mean, variance) of mu_z | sigma2_z and the active jump sizes."""
    if sigma2_z <= 0.0:
        raise ValueError("sigma2_z must be positive")
    z = np.asarray(z_active, dtype=float)
    prec = 1.0 / prior.jump_mean_var + z.size / sigma2_z
    mean = (prior.jump_mean_mean / prior.jump_mean_var + np.sum(z) / sigma2_z) / prec
    return float(mean), 1.0 / prec


def jump_var_conditional(z_active, mu_z: float, prior: JumpPrior = JumpPrior()):
    """(shape, scale) of the inverse-gamma sigma2_z | mu_z and active sizes."""
    z = np.asarray(z_active, dtype=float)
    rss = float(np.sum((z - mu_z) ** 2))
    return prior.jump_ig_shape + 0.5 * z.size, prior.jump_ig_scale + 0.5 * rss


def update_jump_moments(
    z_active, sigma2_z: float, prior: JumpPrior = JumpPrior(), rng=None
):
    """Draw mu_z | sigma2_z then sigma2_z | mu_z from the active sizes.

    With no active jumps both reduce to prior draws.
    """
    gen = as_generator(rng)
    mean, var = jump_mean_conditional(z_active, sigma2_z, prior)
    mu_z = mean + math.sqrt(var) * gen.standard_normal()
    shape, scale = jump_var_conditional(z_active, mu_z, prior)
    return float(mu_z), sample_inverse_gamma(shape, scale, gen)


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
    return simulate_increments(params.theta, params.sigma2, dt, gen, jump)


def _initial_params(inc: IncrementSeries, prior: JumpPrior) -> JumpParams:
    """MLE-anchored start: diffusion at the no-jump MLE, lambda_star = 0.1,
    mu_z = 0, sigma2_z = excess variance of d over the diffusion share
    (floored at 1e-6)."""
    if inc.n >= 2:
        start = mle_fit(inc)
        if start.degenerate:
            raise ValueError("degenerate data: sample volatility is zero")
        theta, sigma2 = start.theta, start.sigma2
        excess = float(np.var(inc.d) - sigma2 * np.mean(inc.dt))
        sigma2_z = max(excess, 1e-6)
    else:
        diff = prior.diffusion
        theta, sigma2 = diff.theta_mean, diff.sigma2_center()
        if prior.jump_ig_shape > 1.0:
            sigma2_z = prior.jump_ig_scale / (prior.jump_ig_shape - 1.0)
        else:
            sigma2_z = prior.jump_ig_scale
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
        params = JumpParams(
            params.theta, params.sigma2, params.mu_z, params.sigma2_z,
            lambda_star_fixed,
        )
    draws = np.empty((n_keep, 6))
    jump_hits = np.zeros(inc.n)
    for sweep in range(burn_in + n_keep):
        latent = sample_latent(inc, params, gen)
        if lambda_star_fixed is None:
            lam = update_lambda(latent.indicators, prior, gen)
        else:
            lam = lambda_star_fixed
        mu_z, sigma2_z = update_jump_moments(
            latent.active_sizes, params.sigma2_z, prior, gen
        )
        theta, sigma2 = update_diffusion_block(
            inc, latent, params.sigma2, prior.diffusion, gen
        )
        params = JumpParams(
            theta=theta, sigma2=sigma2, mu_z=mu_z, sigma2_z=sigma2_z, lambda_star=lam
        )
        if sweep >= burn_in:
            draws[sweep - burn_in] = (
                theta, sigma2, mu_z, sigma2_z, lam, latent.n_jumps
            )
            if track_jump_probs:
                jump_hits += latent.indicators
    meta = ChainMeta(model="gbm-jump", n_keep=n_keep, burn_in=burn_in, seed=seed)
    return PosteriorChain(
        columns=("theta", "sigma2", "mu_z", "sigma2_z", "lambda_star", "n_jumps"),
        draws=draws,
        meta=meta,
        jump_probs=jump_hits / n_keep if track_jump_probs else None,
    )
