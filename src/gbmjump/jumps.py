"""Data-augmented Gibbs sampling for GBM with Bernoulli jumps.

Observation model per step: d_i ~ Normal(theta*dt_i, sigma2*dt_i) plus, with
probability lambda_star, an independent Normal(mu_z, sigma2_z) jump. The
sampler augments with latent indicators J_i and sizes Z_i. Each sweep runs

    move  ->  latent (J, Z)  ->  lambda_star  ->  (mu_z, sigma2_z)  ->  (theta, sigma2)

and then records the row. The Gibbs blocks are conjugate. The move is one
random-walk Metropolis step on x = (theta, log sigma2, mu_z, log sigma2_z,
logit lambda_star) targeting the posterior with J and Z summed out, which
leaves that posterior invariant and breaks the ridge through sigma2,
lambda_star and sigma2_z that the blocks cross slowly. Its proposal is
2.38^2/5 times the covariance of x over burn-in sweeps [B//4, B//2),
frozen before sweep B//2 (Roberts, Gelman & Gilks 1997); the move is off
below a 100-sweep pilot (burn-in < 400), when the pilot covariance is not
positive definite, and after a lambda_star draw of exactly 0 or 1. The
array E = exp(-log-odds) that the move's target evaluates at the state it
keeps is the indicator draw's input, and normals for the sizes are drawn
only at the active steps. run_jump_gibbs takes the same (inc, prior, n_keep,
burn_in, seed) as gibbs.run_gibbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gbm import IncrementKernel, _SuffStats
from .gibbs import (
    ChainMeta,
    GbmPrior,
    PosteriorChain,
    _draw_theta_sigma2,
    _normal_ig_log_kernel,
    _start,
)
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
    """Per-step jump indicators and sizes from one augmentation draw; sample_latent
    leaves the sizes of inactive steps at 0."""

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


# Floor on the log-odds L: exp(-L) stays finite (exp(700) < 1.8e308), and
# log1p(exp(-L)) + L still gives softplus(L) to within 1e-13 below it.
_LOG_ODDS_FLOOR = -700.0
_NO_DATA = _SuffStats(0, 0.0, 0.0, 0.0)


def _logit(p: float) -> float:
    """log(p/(1-p)); -inf at 0 and +inf at 1."""
    return math.log(p) - math.log1p(-p) if 0.0 < p < 1.0 else (p - 0.5) * math.inf


def _softplus(t: float) -> float:
    """log(1 + exp(t)) without overflow."""
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _log_odds_terms(dt, theta, sigma2, mu_z, sigma2_z, logit_lam):
    """(a, b, c) with the log-odds of J_i = 1, logit(lambda_star)
    + log N(d_i; m1, v1) - log N(d_i; m0, v0), equal to a*d_i^2 + b*d_i + c.
    Scalars for a scalar dt; a > 0; c is -inf or +inf at lambda_star 0 or 1."""
    v0, m0 = sigma2 * dt, theta * dt
    v1, m1 = v0 + sigma2_z, m0 + mu_z
    a = 0.5 * (1.0 / v0 - 1.0 / v1)
    b = m1 / v1 - m0 / v0
    c = logit_lam - 0.5 * np.log(v1 / v0) + 0.5 * (m0 * m0 / v0 - m1 * m1 / v1)
    return a, b, c


def _neg_log_odds(d, terms):
    """-L = -((a*d + b)*d + c) for the log-odds L with terms (a, b, c)."""
    a, b, c = terms
    neg = -a * d
    neg -= b
    neg *= d
    neg -= c
    return neg


def _floored_neg_log_odds(d, terms):
    """(-max(L, _LOG_ODDS_FLOOR), whether the floor was applied): with scalar
    terms the pass is skipped when L's minimum over all d, c - b^2/(4a),
    clears the floor (a can round to 0 when sigma2_z is tiny)."""
    neg = _neg_log_odds(d, terms)
    a, b, c = terms
    floored = isinstance(a, np.ndarray) or not (
        a > 0.0 and c - b * b / (4.0 * a) >= _LOG_ODDS_FLOOR
    )
    if floored:
        np.minimum(neg, -_LOG_ODDS_FLOOR, out=neg)
    return neg, floored


def _jump_odds_e(d, dt, theta, sigma2, mu_z, sigma2_z, logit_lam):
    """E = exp(-max(L, _LOG_ODDS_FLOOR)) of the log-odds L at each step."""
    terms = _log_odds_terms(dt, theta, sigma2, mu_z, sigma2_z, logit_lam)
    neg, _ = _floored_neg_log_odds(d, terms)
    return np.exp(neg, out=neg)


def _draw_indicators(u, e):
    """J_i = [u_i < 1/(1 + E_i)], E_i = exp(-log-odds_i)."""
    return u * (1.0 + e) < 1.0


def _jump_sizes(d_act, dt_act, z, theta, sigma2, mu_z, sigma2_z):
    """Z_i | J_i = 1 from one normal each in z, given the active steps'
    increments d_act and step lengths dt_act (or one scalar dt): Normal(m, v),
    v = 1/(1/sigma2_z + 1/v0) with v0 = sigma2*dt_i, and
    m = v*(mu_z/sigma2_z + (d_i - theta*dt_i)/v0)
      = (v/v0)*d_i + v*(mu_z/sigma2_z - theta/sigma2)."""
    v0 = sigma2 * dt_act
    v = 1.0 / (1.0 / sigma2_z + 1.0 / v0)
    sizes = (v / v0) * d_act
    sizes += v * (mu_z / sigma2_z - theta / sigma2)
    sizes += np.sqrt(v) * z
    return sizes


def _jump_adjusted_stats(stats: _SuffStats, d_act, dt_act, sizes) -> _SuffStats:
    """_SuffStats of d_i - J_i*Z_i from those of d, corrected at the active
    steps only: (d - Z)^2/dt = d^2/dt - (2d - Z)*Z/dt."""
    w = sizes / dt_act
    sdd = stats.sdd - (2.0 * float(d_act @ w) - float(sizes @ w))
    return _SuffStats(stats.n, stats.sd - float(sizes.sum()), stats.st, sdd)


class _Marginal(NamedTuple):
    """The posterior of (theta, sigma2, mu_z, sigma2_z, lambda_star) with J and Z
    summed out: per step the mixture (1-lambda)*N(d; theta*dt, sigma2*dt) +
    lambda*N(d; theta*dt + mu_z, sigma2*dt + sigma2_z), times the priors. Its
    evaluations also return E = exp(-max(L, _LOG_ODDS_FLOOR)) of the log-odds,
    the indicator draw's input at that point."""

    d: np.ndarray
    dt: float | np.ndarray  # a float when every step is equal
    stats: _SuffStats
    sum_dd: float
    prior: JumpPrior

    @classmethod
    def of(cls, inc: IncrementSeries, prior: JumpPrior) -> "_Marginal":
        d = inc.d
        dt = float(inc.dt[0]) if inc.n and np.all(inc.dt == inc.dt[0]) else inc.dt
        return cls(d, dt, _SuffStats.of(d, inc.dt), float(d @ d), prior)

    def log_kernel(self, theta, sigma2, mu_z, sigma2_z, logit_lam):
        """(log density up to a constant, E of the log-odds it summed).

        Each step's log mixture density is log N(d; theta*dt, sigma2*dt)
        + log(1 - lambda) + softplus(L) with L its jump log-odds, and
        softplus(L) = L + log1p(exp(-L)) on the floored L; the no-jump
        densities enter in closed form through the sufficient statistics.
        """
        terms = _log_odds_terms(self.dt, theta, sigma2, mu_z, sigma2_z, logit_lam)
        neg, floored = _floored_neg_log_odds(self.d, terms)
        if floored:
            sum_log_odds = -float(neg.sum())
        else:  # sum of a*d^2 + b*d + c in closed form
            a, b, c = terms
            sum_log_odds = a * self.sum_dd + b * self.stats.sd + c * self.stats.n
        e = np.exp(neg, out=neg)
        prior = self.prior
        log_1m = -_softplus(logit_lam)  # log(1 - lambda_star)
        value = (
            _normal_ig_log_kernel(self.stats, theta, sigma2, prior.diffusion)
            + _normal_ig_log_kernel(_NO_DATA, mu_z, sigma2_z, prior.jump)
            + (prior.lambda_a - 1.0) * (logit_lam + log_1m)
            + (prior.lambda_b - 1.0 + self.stats.n) * log_1m
            + sum_log_odds
            + float(np.log1p(e).sum())
        )
        return value, e

    def move_target(self, x):
        """log_kernel on x = (theta, log sigma2, mu_z, log sigma2_z, logit
        lambda_star) plus the Jacobian log sigma2 + log sigma2_z
        + log lambda_star + log(1 - lambda_star); and E."""
        theta, log_s2, mu_z, log_sz2, logit_lam = x.tolist()
        value, e = self.log_kernel(theta, math.exp(log_s2), mu_z, math.exp(log_sz2), logit_lam)
        return value + log_s2 + log_sz2 + logit_lam - 2.0 * _softplus(logit_lam), e


def marginal_log_posterior(
    inc: IncrementSeries, params: JumpParams, prior: JumpPrior = JumpPrior()
) -> float:
    """log p(params | d) up to a constant that depends on the data and prior
    only, with J and Z summed out, on the natural scale (no Jacobian): the
    log of prod_i [(1-lambda)*N(d_i; theta*dt_i, sigma2*dt_i)
    + lambda*N(d_i; theta*dt_i + mu_z, sigma2*dt_i + sigma2_z)] plus the
    Normal, inverse-gamma and Beta prior log densities. This is the target of
    run_jump_gibbs's Metropolis move; lambda_star must lie inside (0, 1)."""
    if not 0.0 < params.lambda_star < 1.0:
        raise ValueError("lambda_star must lie strictly inside (0, 1)")
    value, _ = _Marginal.of(inc, prior).log_kernel(
        params.theta, params.sigma2, params.mu_z, params.sigma2_z, _logit(params.lambda_star)
    )
    return value


def _metropolis_step(x, chol, target, gen):
    """One random-walk Metropolis step from x with proposal x + chol @ N(0, I)
    on target(x) -> (log density, E). Returns the next x, its E, and whether
    the proposal was taken."""
    current, e = target(x)
    proposal = x + chol @ gen.standard_normal(len(x))
    value, e_prop = target(proposal)
    if gen.random() < math.exp(min(value - current, 0.0)):
        return proposal, e_prop, True
    return x, e, False


def _proposal_factor(pilot):
    """Cholesky factor of 2.38^2/5 times the covariance of the pilot rows of x,
    or None when a row is not finite (a lambda_star draw of exactly 0 or 1) or
    the covariance is not positive definite."""
    if not np.all(np.isfinite(pilot)):
        return None
    try:
        return np.linalg.cholesky(np.cov(pilot, rowvar=False) * (2.38**2 / 5.0))
    except np.linalg.LinAlgError:
        return None


def jump_indicator_prob(d, dt, params: JumpParams) -> np.ndarray:
    """Posterior probability that each increment contains a jump, the logistic
    of its log-odds; exactly 0 or 1 far out in the tails."""
    d, dt = np.asarray(d, dtype=float), np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    p = params
    terms = _log_odds_terms(dt, p.theta, p.sigma2, p.mu_z, p.sigma2_z, _logit(p.lambda_star))
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(_neg_log_odds(d, terms)))


def sample_latent(inc: IncrementSeries, params: JumpParams, rng=None) -> LatentState:
    """Draw (J, Z) given parameters and data: n uniforms for the indicators,
    then one normal per active step, in step order; inactive sizes are 0."""
    gen = np.random.default_rng(rng)
    p = params
    e = _jump_odds_e(inc.d, inc.dt, p.theta, p.sigma2, p.mu_z, p.sigma2_z, _logit(p.lambda_star))
    indicators = _draw_indicators(gen.random(inc.n), e)
    z = gen.standard_normal(int(np.count_nonzero(indicators)))
    sizes = np.zeros(inc.n)
    sizes[indicators] = _jump_sizes(
        inc.d[indicators], inc.dt[indicators], z, p.theta, p.sigma2, p.mu_z, p.sigma2_z
    )
    return LatentState(indicators=indicators, sizes=sizes)


def _lambda_beta(k: int, n: int, prior: JumpPrior):
    """(a, b) of the Beta conditional for lambda_star given k jumps in n steps."""
    return prior.lambda_a + k, prior.lambda_b + n - k


def lambda_conditional(indicators, prior: JumpPrior = JumpPrior()):
    """(a, b) of the Beta conditional for lambda_star given indicators."""
    indicators = np.asarray(indicators, dtype=bool)
    return _lambda_beta(int(np.count_nonzero(indicators)), indicators.size, prior)


def update_lambda(indicators, prior: JumpPrior = JumpPrior(), rng=None) -> float:
    a, b = lambda_conditional(indicators, prior)
    return float(np.random.default_rng(rng).beta(a, b))


def _size_stats(z_active) -> _SuffStats:
    """The active sizes as increments of unit step length: Z_i ~ Normal(mu_z,
    sigma2_z) is the diffusion model with theta = mu_z and every dt = 1."""
    z = np.asarray(z_active, dtype=float)
    return _SuffStats(z.size, float(z.sum()), z.size, float(z @ z))


def update_jump_moments(
    z_active, sigma2_z: float, prior: JumpPrior = JumpPrior(), rng=None
):
    """Draw mu_z | sigma2_z then sigma2_z | mu_z from the active sizes, the
    diffusion block's draw on sizes of unit step length.

    With no active jumps both reduce to prior draws.
    """
    gen = np.random.default_rng(rng)
    return _draw_theta_sigma2(_size_stats(z_active), sigma2_z, prior.jump, gen)


def update_diffusion_block(
    inc: IncrementSeries,
    latent: LatentState,
    sigma2: float,
    prior: GbmPrior = GbmPrior(),
    rng=None,
):
    """Draw (theta, sigma2) from the no-jump conditionals on d_i - J_i*Z_i."""
    on = latent.indicators
    stats = _jump_adjusted_stats(
        _SuffStats.of(inc.d, inc.dt), inc.d[on], inc.dt[on], latent.sizes[on]
    )
    return _draw_theta_sigma2(stats, sigma2, prior, np.random.default_rng(rng))


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
    gen = np.random.default_rng(rng)
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
) -> PosteriorChain:
    """Metropolis-within-Gibbs sampler (see the module docstring); returns a
    chain with columns (theta, sigma2, mu_z, sigma2_z, lambda_star, n_jumps)
    whose meta.accept_rate is the share of Metropolis proposals taken from
    sweep burn_in//2 on, or None when the move is off, and whose jump_probs
    holds the posterior mean of each J_i over kept sweeps.
    """
    if n_keep < 1 or burn_in < 0:
        raise ValueError("need n_keep >= 1 and burn_in >= 0")
    gen = np.random.default_rng(seed)
    start = _initial_params(inc, prior)
    theta, sigma2, mu_z, sigma2_z = start.theta, start.sigma2, start.mu_z, start.sigma2_z
    lam = start.lambda_star
    marginal = _Marginal.of(inc, prior)
    d, dt, n = marginal.d, marginal.dt, inc.n
    pilot_start, freeze = burn_in // 4, burn_in // 2
    pilot = np.empty((freeze - pilot_start, 5)) if pilot_start >= 100 else None
    chol, moves, taken = None, 0, 0
    draws = np.empty((n_keep, 6))
    jump_hits = np.zeros(n)
    for sweep in range(burn_in + n_keep):
        # a lambda_star draw of exactly 0 or 1 has no logit: skip that move
        if chol is not None and 0.0 < lam < 1.0:
            x = np.array((theta, math.log(sigma2), mu_z, math.log(sigma2_z), _logit(lam)))
            x, e, accepted = _metropolis_step(x, chol, marginal.move_target, gen)
            moves += 1
            if accepted:
                taken += 1
                # the move's lambda_star reaches the indicators through e
                # only: the lambda block below redraws it
                theta, log_s2, mu_z, log_sz2, _ = x.tolist()
                sigma2, sigma2_z = math.exp(log_s2), math.exp(log_sz2)
        else:
            e = _jump_odds_e(d, dt, theta, sigma2, mu_z, sigma2_z, _logit(lam))
        active = _draw_indicators(gen.random(n), e)
        idx = np.flatnonzero(active)
        d_act, dt_act = d[idx], dt[idx] if isinstance(dt, np.ndarray) else dt
        sizes = _jump_sizes(
            d_act, dt_act, gen.standard_normal(idx.size), theta, sigma2, mu_z, sigma2_z
        )
        lam = float(gen.beta(*_lambda_beta(idx.size, n, prior)))
        mu_z, sigma2_z = update_jump_moments(sizes, sigma2_z, prior, gen)
        stats = _jump_adjusted_stats(marginal.stats, d_act, dt_act, sizes)
        theta, sigma2 = _draw_theta_sigma2(stats, sigma2, prior.diffusion, gen)
        if pilot is not None and pilot_start <= sweep < freeze:
            pilot[sweep - pilot_start] = (
                theta, math.log(sigma2), mu_z, math.log(sigma2_z), _logit(lam)
            )
            if sweep == freeze - 1:
                chol = _proposal_factor(pilot)
        if sweep >= burn_in:
            draws[sweep - burn_in] = (theta, sigma2, mu_z, sigma2_z, lam, idx.size)
            jump_hits += active
    meta = ChainMeta(
        model="gbm-jump", n_keep=n_keep, burn_in=burn_in, seed=seed,
        accept_rate=taken / moves if moves else None,
    )
    return PosteriorChain(
        columns=("theta", "sigma2", "mu_z", "sigma2_z", "lambda_star", "n_jumps"),
        draws=draws,
        meta=meta,
        jump_probs=jump_hits / n_keep,
    )
