"""Data-augmented Gibbs sampling for GBM with Bernoulli jumps.

Observation model per step: d_i ~ Normal(theta*dt_i, sigma2*dt_i) plus, with
probability lambda_star, an independent Normal(mu_z, sigma2_z) jump. The
sampler augments with latent indicators J_i and sizes Z_i. Each sweep runs

    move  ->  latent (J, Z)  ->  lambda_star  ->  (mu_z, sigma2_z)  ->  (theta, sigma2)

and then records the row. The Gibbs blocks are conjugate. The move is one
independence Metropolis step on x = (theta, log sigma2, mu_z, log sigma2_z,
logit lambda_star) targeting the posterior with J and Z summed out, which
leaves that posterior invariant and jumps the ridge through sigma2,
lambda_star and sigma2_z that the blocks cross slowly. Its proposal is a
multivariate t with 5 degrees of freedom centred at the posterior mode, with
1.2 times the Laplace covariance (the inverse of minus the Hessian there) as
its scale. Damped Newton ascent from the chain's start finds both before
sweep 0, and they stay fixed, so the move runs from sweep 0 at any burn-in.
The move is off on series of fewer than 250 increments, when Newton does not
converge within 50 steps or minus the Hessian at its end is not positive
definite (the conjugate blocks then run alone), and after a lambda_star draw
of exactly 0 or 1. The array E = exp(-log-odds) that the move's target
evaluates at the state it keeps is the indicator draw's input, normals for
the sizes are drawn only at the active steps, and the chain's jump_probs
average each step's jump probability 1/(1 + E) over kept sweeps
(Rao-Blackwellized), so they draw no random numbers. run_jump_gibbs takes
the same (inc, prior, n_keep, burn_in, seed) as gibbs.run_gibbs.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .gbm import IncrementKernel, _SuffStats
from .gibbs import (
    ChainMeta,
    GbmPrior,
    PosteriorChain,
    _draw_theta_sigma2,
    _normal_ig_log_kernel,
    _sigma2_conditional,
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
# The move runs on series of at least _MOVE_MIN_N increments: on shorter ones
# its proposal fits the posterior too loosely to be taken often, and its two
# target evaluations cost more than the conjugate blocks. The proposal is a t
# with _T_DF degrees of freedom and _T_SCALE times the Laplace covariance as
# its scale; the mode search takes at most _NEWTON_CAP Newton steps.
_MOVE_MIN_N, _T_DF, _T_SCALE, _NEWTON_CAP = 250, 5.0, 1.2, 50


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


def _neg_log_odds(d, terms, out=None):
    """-L = -((a*d + b)*d + c) for the log-odds L with terms (a, b, c), into
    out when given."""
    a, b, c = terms
    neg = np.multiply(d, -a, out=out)
    neg -= b
    neg *= d
    neg -= c
    return neg


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


class _Marginal:
    """The posterior of (theta, sigma2, mu_z, sigma2_z, lambda_star) with J and Z
    summed out: per step the mixture (1-lambda)*N(d; theta*dt, sigma2*dt) +
    lambda*N(d; theta*dt + mu_z, sigma2*dt + sigma2_z), times the priors. Its
    evaluations also return E = exp(-max(L, _LOG_ODDS_FLOOR)) of the log-odds,
    the indicator draw's input at that point."""

    def __init__(self, inc: IncrementSeries, prior: JumpPrior) -> None:
        self.d, self.prior = inc.d, prior
        self.stats = _SuffStats.of(inc.d, inc.dt)
        equal = inc.n > 0 and bool(np.all(inc.dt == inc.dt[0]))
        self.dt = float(inc.dt[0]) if equal else inc.dt  # a float when every step is equal
        # rows (d^2, d, 1): L = (a, b, c) @ powers
        self.powers = np.stack((self.d * self.d, self.d, np.ones(inc.n)))
        self.scratch = np.empty((2, inc.n))  # log_kernel's work rows, free between calls

    def neg_log_odds(self, theta, sigma2, mu_z, sigma2_z, logit_lam, out=None):
        """-max(L, _LOG_ODDS_FLOOR) of the log-odds L at each step, into out
        when given: one product with the powers for equal steps."""
        a, b, c = _log_odds_terms(self.dt, theta, sigma2, mu_z, sigma2_z, logit_lam)
        neg = (np.dot((-a, -b, -c), self.powers, out=out) if isinstance(self.dt, float)
               else _neg_log_odds(self.d, (a, b, c), out))
        return np.minimum(neg, -_LOG_ODDS_FLOOR, out=neg)

    def log_kernel(self, theta, sigma2, mu_z, sigma2_z, logit_lam, out=None):
        """(log density up to a constant, E of the log-odds it summed, in out
        when given).

        Each step's log mixture density is log N(d; theta*dt, sigma2*dt)
        + log(1 - lambda) + softplus(L) with L its jump log-odds, and
        softplus(L) = L + log1p(exp(-L)) on max(L, _LOG_ODDS_FLOOR); the no-jump
        densities enter in closed form through the sufficient statistics.
        """
        neg = self.neg_log_odds(theta, sigma2, mu_z, sigma2_z, logit_lam, self.scratch[0])
        e = np.exp(neg, out=out)
        np.log1p(e, out=self.scratch[1])
        sum_neg, sum_log1p = (self.scratch @ self.powers[2]).tolist()
        prior = self.prior
        log_1m = -_softplus(logit_lam)  # log(1 - lambda_star)
        value = (_normal_ig_log_kernel(self.stats, theta, sigma2, prior.diffusion)
                 + _normal_ig_log_kernel(_NO_DATA, mu_z, sigma2_z, prior.jump)
                 + (prior.lambda_a - 1.0) * (logit_lam + log_1m)
                 + (prior.lambda_b - 1.0 + self.stats.n) * log_1m + sum_log1p - sum_neg)
        return value, e

    def move_target(self, x, out=None):
        """log_kernel on x = (theta, log sigma2, mu_z, log sigma2_z, logit
        lambda_star) plus the Jacobian log sigma2 + log sigma2_z
        + log lambda_star + log(1 - lambda_star); and E. The value is -inf,
        with E None, where a variance overflows or underflows."""
        theta, log_s2, mu_z, log_sz2, logit_lam = x.tolist()
        if not -700.0 < min(log_s2, log_sz2) <= max(log_s2, log_sz2) < 700.0:
            return -math.inf, None
        value, e = self.log_kernel(theta, math.exp(log_s2), mu_z, math.exp(log_sz2), logit_lam, out)
        return value + log_s2 + log_sz2 + logit_lam - 2.0 * _softplus(logit_lam), e

    def gradient(self, x):
        """Gradient of move_target's value at x. The data enter through
        sum_i p_i*dL_i/dx with p = 1/(1 + E): L_i = logit_lam + F(v1, m1)
        - F(v0, m0) for F(v, m) = (-1/(2v), m/v, -(log v + m^2/v)/2) @
        (d_i^2, d_i, 1), so one product s = powers @ p (per step for unequal
        steps) gives every sum."""
        theta, log_s2, mu_z, log_sz2, logit_lam = x.tolist()
        sigma2, sigma2_z = math.exp(log_s2), math.exp(log_sz2)
        p = 1.0 / (np.exp(self.neg_log_odds(theta, sigma2, mu_z, sigma2_z, logit_lam)) + 1.0)
        s = (self.powers @ p).tolist() if isinstance(self.dt, float) else self.powers * p

        def d_f(v, m):  # (dF/dv, dF/dm) @ s
            return ((s[0] - m * (2 * s[1] - m * s[2])) / v - s[2]) / (2 * v), (s[1] - m * s[2]) / v

        v0, m0 = sigma2 * self.dt, theta * self.dt
        (dv0, dm0), (dv1, dm1) = d_f(v0, m0), d_f(v0 + sigma2_z, m0 + mu_z)
        data = (self.dt * (dm1 - dm0), v0 * (dv1 - dv0), dm1, sigma2_z * dv1, s[2])
        stats, dif, jmp, prior = self.stats, self.prior.diffusion, self.prior.jump, self.prior
        shape, scale = _sigma2_conditional(stats, theta, dif)
        lam = math.exp(-_softplus(-logit_lam))
        return np.array(data).reshape(5, -1).sum(axis=1) + (
            (stats.sd - theta * stats.st) / sigma2 - (theta - dif.theta_mean) / dif.theta_var,
            scale / sigma2 - shape,  # with the Jacobian's +1
            (jmp.theta_mean - mu_z) / jmp.theta_var,
            jmp.ig_scale / sigma2_z - jmp.ig_shape,
            prior.lambda_a * (1.0 - lam) - (prior.lambda_b + stats.n) * lam,
        )


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
    return _Marginal(inc, prior).log_kernel(*astuple(params)[:4], _logit(params.lambda_star))[0]


def _independence_step(x, proposal, target, gen, out=(None, None)):
    """One independence Metropolis step from x on target(x, out) -> (log
    density, E), with the t proposal (mode, factor, inverse): y = mode
    + factor @ (z*sqrt(_T_DF/w)) from len(x) normals z and a chi-square w,
    taken with probability min(1, exp(target(y) - target(x) + log q(x)
    - log q(y))) for the proposal's log density log q(y) = -(_T_DF +
    len(x))/2*log(1 + |inverse @ (y - mode)|^2/_T_DF) + constant.
    E at x goes to out[0], at y to out[1]. Returns the next x, its E, and
    whether y was taken."""
    mode, factor, inverse = proposal
    current, e = target(x, out[0])
    z = gen.standard_normal(len(x)) * math.sqrt(_T_DF / gen.chisquare(_T_DF))
    y = mode + factor @ z
    value, e_y = target(y, out[1])
    w = inverse @ (x - mode)
    log_q = 0.5 * (_T_DF + len(x)) * math.log((_T_DF + z @ z) / (_T_DF + w @ w))
    if gen.random() < math.exp(min(value - current + log_q, 0.0)):
        return y, e_y, True
    return x, e, False


def _laplace(marginal: _Marginal, x):
    """The move's t proposal (mode, factor, inverse) from the Laplace
    approximation of marginal.move_target: factor @ factor.T is _T_SCALE
    times the inverse of -H, minus the Hessian at the mode, and inverse is
    factor's inverse. Damped Newton ascent from x finds the mode: each step
    is the analytic gradient g over the absolute eigenvalues of -H, which
    comes from central differences of g (so the step climbs where the target
    is not concave), halved until it raises the target. It stops when -H is
    positive definite and g'(-H)^-1 g < 1e-8. None when that takes more than
    _NEWTON_CAP steps or no halving raises the target."""
    with np.errstate(all="ignore"):
        value = marginal.move_target(x)[0]
        for _ in range(_NEWTON_CAP):
            grad, at = marginal.gradient(x), marginal.gradient
            # -H from central differences of the gradient, symmetrized
            rows = np.array([(at(x - h) - at(x + h)) / (2.0 * h.sum())
                             for h in np.diag(1e-5 * np.maximum(np.abs(x), 1.0))])
            w, v = np.linalg.eigh(0.5 * (rows + rows.T))
            step = v @ ((v.T @ grad) / np.maximum(np.abs(w), 1e-6 * np.abs(w).max()))
            if w[0] > 0.0 and grad @ step < 1e-8:
                root = np.sqrt(w / _T_SCALE)
                return x, v / root, (v * root).T
            for _ in range(40):
                trial = marginal.move_target(x + step)[0]
                if trial > value:
                    break
                step *= 0.5
            else:
                return None
            x, value = x + step, trial
    return None


def jump_indicator_prob(d, dt, params: JumpParams) -> np.ndarray:
    """Posterior probability that each increment contains a jump, the logistic
    of its log-odds; exactly 0 or 1 far out in the tails."""
    d, dt = np.asarray(d, dtype=float), np.asarray(dt, dtype=float)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    terms = _log_odds_terms(dt, *astuple(params)[:4], _logit(params.lambda_star))
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(_neg_log_odds(d, terms)))


def sample_latent(inc: IncrementSeries, params: JumpParams, rng=None) -> LatentState:
    """Draw (J, Z) given parameters and data: n uniforms for the indicators,
    then one normal per active step, in step order; inactive sizes are 0."""
    gen = np.random.default_rng(rng)
    *diffusion_and_jump, lam = astuple(params)
    e = np.exp(_Marginal(inc, JumpPrior()).neg_log_odds(*diffusion_and_jump, _logit(lam)))
    indicators = gen.random(inc.n) * (1.0 + e) < 1.0
    z = gen.standard_normal(int(np.count_nonzero(indicators)))
    sizes = np.zeros(inc.n)
    sizes[indicators] = _jump_sizes(inc.d[indicators], inc.dt[indicators], z, *diffusion_and_jump)
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


def update_jump_moments(z_active, sigma2_z: float, prior: JumpPrior = JumpPrior(), rng=None):
    """Draw mu_z | sigma2_z then sigma2_z | mu_z from the active sizes, the
    diffusion block's draw on sizes of unit step length: Z_i ~ Normal(mu_z,
    sigma2_z) is the diffusion model with theta = mu_z and every dt = 1.

    With no active jumps both reduce to prior draws.
    """
    z = np.asarray(z_active, dtype=float)
    stats = _SuffStats(z.size, float(z.sum()), z.size, float(z @ z))
    return _draw_theta_sigma2(stats, sigma2_z, prior.jump, np.random.default_rng(rng))


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
    of d over the diffusion share (at least 1e-6), or the prior center."""
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
    whose meta.accept_rate is the share of the move's proposals taken over
    all sweeps, or None when the move is off, and whose jump_probs holds the
    posterior mean of each J_i: the mean over kept sweeps of the probability
    1/(1 + E_i) that the indicator draw used.
    """
    if n_keep < 1 or burn_in < 0:
        raise ValueError("need n_keep >= 1 and burn_in >= 0")
    gen = np.random.default_rng(seed)
    theta, sigma2, mu_z, sigma2_z, lam = astuple(_initial_params(inc, prior))
    marginal = _Marginal(inc, prior)
    d, dt, n = marginal.d, marginal.dt, inc.n
    x = np.array((theta, math.log(sigma2), mu_z, math.log(sigma2_z), _logit(lam)))
    proposal = _laplace(marginal, x) if n >= _MOVE_MIN_N else None
    buffers, moves, taken = (np.empty(n), np.empty(n)), 0, 0
    draws, jump_probs = np.empty((n_keep, 6)), np.zeros(n)
    for sweep in range(burn_in + n_keep):
        # a lambda_star draw of exactly 0 or 1 has no logit: skip that move
        if proposal is not None and 0.0 < lam < 1.0:
            x = np.array((theta, math.log(sigma2), mu_z, math.log(sigma2_z), _logit(lam)))
            x, e, accepted = _independence_step(x, proposal, marginal.move_target, gen, buffers)
            moves, taken = moves + 1, taken + accepted
            if accepted:
                # the move's lambda_star reaches the indicators through e
                # only: the lambda block below redraws it
                theta, log_s2, mu_z, log_sz2, _ = x.tolist()
                sigma2, sigma2_z = math.exp(log_s2), math.exp(log_sz2)
        else:
            neg = marginal.neg_log_odds(theta, sigma2, mu_z, sigma2_z, _logit(lam), buffers[0])
            e = np.exp(neg, out=neg)
        # J_i = [u_i < 1/(1 + E_i)], as u_i*(1 + E_i) < 1 in place
        e += 1.0
        if sweep >= burn_in:
            jump_probs += np.reciprocal(e, out=marginal.scratch[0])
        e *= gen.random(n)
        idx = (e < 1.0).nonzero()[0]
        d_act, dt_act = d[idx], dt[idx] if isinstance(dt, np.ndarray) else dt
        z = gen.standard_normal(idx.size)
        sizes = _jump_sizes(d_act, dt_act, z, theta, sigma2, mu_z, sigma2_z)
        lam = float(gen.beta(*_lambda_beta(idx.size, n, prior)))
        mu_z, sigma2_z = update_jump_moments(sizes, sigma2_z, prior, gen)
        stats = _jump_adjusted_stats(marginal.stats, d_act, dt_act, sizes)
        theta, sigma2 = _draw_theta_sigma2(stats, sigma2, prior.diffusion, gen)
        if sweep >= burn_in:
            draws[sweep - burn_in] = (theta, sigma2, mu_z, sigma2_z, lam, idx.size)
    meta = ChainMeta("gbm-jump", burn_in, seed, accept_rate=taken / moves if moves else None)
    return PosteriorChain(draws=draws, meta=meta, jump_probs=jump_probs / n_keep)
