"""Data-augmented Gibbs sampling for GBM with Bernoulli jumps.

Observation model per step: d_i ~ Normal(theta*dt_i, sigma2*dt_i) plus, with
probability lambda_star, an independent Normal(mu_z, sigma2_z) jump. The
sampler augments with latent indicators J_i and sizes Z_i. A whole sweep runs

    move  ->  latent (J, Z)  ->  lambda_star  ->  (mu_z, sigma2_z)  ->  (theta, sigma2)

and then records the row. The Gibbs blocks are conjugate. The move is one
independence Metropolis step on x = (theta, log sigma2, mu_z, log sigma2_z,
logit lambda_star) targeting the posterior with J and Z summed out, which
_Marginal.move_target alone evaluates, Jacobian included; the step leaves
that posterior invariant and jumps the ridge through sigma2, lambda_star and
sigma2_z that the blocks cross slowly. Its proposal is a
multivariate t with 30 degrees of freedom centred at the posterior mode, with
1.2 times the Laplace covariance (the inverse of minus the Hessian there) as
its scale. Damped Newton ascent from the chain's start finds both before
sweep 0, with the gradient and Hessian differenced from the target's values
at 21 points around each iterate (_derivatives), so the target is written
once and a new one needs no derivative code. They stay fixed, so the move
runs from sweep 0 at any burn-in, and the chain starts at the mode.
Run alone, an independence sampler whose proposal has lighter tails than
its target is not geometrically ergodic (Mengersen & Tweedie 1996, Ann.
Statist. 24); here the conjugate blocks run in every cycle of sweeps and are
ergodic on their own, so the move only has to fit the bulk, which on series
of a few hundred increments or more is close to the Laplace approximation.
With the move on, the sweeps run in cycles of _MOVES from sweep 0: the move
alone in the first _MOVES - 1, a whole sweep in the last. Each kernel leaves
the posterior invariant, so the fixed cycle does too (Tierney 1994, Ann.
Statist. 22). The proposal does not depend on the chain's state (Liu 1996,
Stat. Comput. 6), so its offers are drawn, and the target's value and P at
each evaluated, _BLOCK at a time before the sweeps reach them and no
further than the last sweep (Brockwell 2006, JCGS 15), from three substreams
split off the chain's generator before sweep 0; the step itself only
compares and copies. Here P is the array of
each step's jump probability 1/(1 + E), E = exp(-log-odds), which the target
forms once per point it evaluates. The move keeps the target's value and P at
its state from the evaluation that put it there, and evaluates afresh, at one
point, only after the blocks have moved the state. A move-only sweep's row
holds the move's (theta, sigma2, mu_z, sigma2_z, lambda_star) and, as
n_jumps, the count of indicators drawn from n uniforms against the P at
those parameters, so every row is a joint draw (van Dyk & Park 2008, JASA
103); in burn-in, where that row is not kept, the generator skips the n
uniforms instead. The move is off, and every sweep a whole one, on series
of fewer than 250 increments, when Newton does not converge within 50 steps
or minus the Hessian at its end is not positive definite (the conjugate
blocks then run alone), and at a lambda_star of exactly 0 or 1 until the next
draw of it. The P at the move's state, or at the parameters of a sweep
without the move, is the indicator draw's input, and the chain's jump_probs
average it over kept sweeps of both kinds (Rao-Blackwellized), so they draw
no random numbers. The blocks after the latent one read the sizes only
through sum Z, sum Z^2 and the sizes' correction to the diffusion
statistics. Those sums come from their joint law given J, by groups of
active steps, and no size is drawn (_size_sums): equal steps are one group,
drawn from two normals and a chi-square; on unequal steps each active step
is its own group, drawn from one normal.
run_jump_gibbs takes the same (inc, prior, n_keep, burn_in, seed) as
gibbs.run_gibbs.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .gbm import _substreams, _SuffStats
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


# Floor on the log-odds L: exp(-L) stays finite (exp(700) < 1.8e308), and
# log1p(exp(-L)) + L still gives softplus(L) to within 1e-13 below it.
_LOG_ODDS_FLOOR = -700.0
_NO_DATA = (0, 0.0, 0.0, 0.0)
# The move runs on series of at least _MOVE_MIN_N increments. The threshold
# 250 was set when every sweep made two one-point evaluations of the target,
# before the cycle and the block offers, on the view that below it the move
# costs more than the conjugate blocks and is seldom taken. A later scan
# (ROADMAP item 19) found the opposite on series shaped like the bundled data:
# at n = 60, 120 and 249 the move raised the smallest per-parameter ESS per
# second of sampler time (157 -> 195, 140 -> 213, 201 -> 450), with
# acceptance 0.28-0.43. The threshold stays until item 19's scan over shapes
# and seeds decides it. The proposal is a t with _T_DF
# degrees of freedom and _T_SCALE times the Laplace covariance as its scale:
# of df in {5, 10, 20, 30, 50} and scale in {1.0, 1.1, 1.2}, the pair with the
# highest geometric mean of the smallest per-parameter ESS over synthetic
# jump-diffusion series (scripts/move_scan.py reruns the scan).
# Scale 1.2 over 1.0 is not resolved by that scan: its margin comes from the
# n = 250 series, whose smallest ESS spans three orders of magnitude across
# seeds, and on the bundled data 1.0 reads higher. The mode search takes at
# most _NEWTON_CAP Newton steps.
_MOVE_MIN_N, _T_DF, _T_SCALE, _NEWTON_CAP = 250, 30.0, 1.2, 50
# With the move on, the sweeps run in cycles of _MOVES: the move alone in the
# first _MOVES - 1, the whole sweep in the last. scripts/move_scan.py scores
# each of {1, 2, 3, 5} by the geometric mean, over 40 synthetic fits, of the
# smallest per-parameter ESS per second of sampler time, with every length
# fitted back to back per fit. Two runs (2-CPU Xeon VM), per second:
#   m = 1: 2,050 and 2,376    m = 3: 2,336 and 2,802
#   m = 2: 1,759 and 2,085    m = 5: 2,226 and 2,640
# 3 scored highest in both. Since the chain starts at the Laplace mode, the
# simulation-based calibration passes at 10 burn-in sweeps at 3 and at 5
# (tests/test_sbc.py). 8 is not scanned: on the bundled data its fitted band
# is wider than the GBM fit's (width ratio 1.016 against 0.998 at 3), which
# tests/test_predict.py's jump-band test rejects.
_MOVES = 3
# The move's offers are drawn and evaluated this many at a time (_offers);
# the chain does not depend on it, and its P rows take _BLOCK * n * 8 bytes
# (0.77 MB on the bundled data). On the bundled data's equal steps a sweep
# took 0.94 of its thread CPU time at 32 (medians of 20 alternating 6,000-sweep
# fits in one process, faster in 17, scripts/compare_trees.py, 2-CPU Xeon VM).
# Unequal steps evaluate the offers row by row, so there it changes little.
_BLOCK = 64


def _logit(p: float) -> float:
    """log(p/(1-p)); -inf at 0 and +inf at 1."""
    return math.log(p) - math.log1p(-p) if 0.0 < p < 1.0 else (p - 0.5) * math.inf


def _expit(t: float) -> float:
    """1/(1 + exp(-t)), the inverse of _logit, without overflow."""
    return 1.0 / (1.0 + math.exp(-t)) if t > -700.0 else math.exp(t)


def _natural(x):
    """(theta, sigma2, mu_z, sigma2_z, lambda_star) at the move's x."""
    theta, log_s2, mu_z, log_sz2, logit_lam = x.tolist()
    return theta, math.exp(log_s2), mu_z, math.exp(log_sz2), _expit(logit_lam)


def _moved(theta, sigma2, mu_z, sigma2_z, lam):
    """The move's x at (theta, sigma2, mu_z, sigma2_z, lambda_star), the
    inverse of _natural."""
    return np.array((theta, math.log(sigma2), mu_z, math.log(sigma2_z), _logit(lam)))


def _jump_probs(e):
    """1/(1 + E) in place of the array E, which it returns."""
    return np.reciprocal(np.add(e, 1.0, out=e), out=e)


def _softplus(t):
    """log(1 + exp(t)) without overflow, of a float or elementwise of an array."""
    if isinstance(t, float):
        return (t if t > 0.0 else 0.0) + math.log1p(math.exp(-abs(t)))
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _log_odds_terms(dt, theta, sigma2, mu_z, sigma2_z, logit_lam):
    """(a, b, c) with the log-odds of J_i = 1, logit(lambda_star)
    + log N(d_i; m1, v1) - log N(d_i; m0, v0), equal to a*d_i^2 + b*d_i + c.
    Scalars for a scalar dt and scalar parameters, arrays for an array of
    either; a > 0; c is -inf or +inf at lambda_star 0 or 1."""
    v0, m0 = sigma2 * dt, theta * dt
    v1, m1 = v0 + sigma2_z, m0 + mu_z
    a = 0.5 * (1.0 / v0 - 1.0 / v1)
    b = m1 / v1 - m0 / v0
    c = logit_lam - 0.5 * np.log(v1 / v0) + 0.5 * (m0 * m0 / v0 - m1 * m1 / v1)
    return a, b, c


def _size_law(dt, theta, sigma2, mu_z, sigma2_z):
    """(alpha, beta, v) with Z_i | J_i = 1 ~ Normal(alpha*d_i + beta, v) at a
    step of length dt (a scalar, or an array of the steps' lengths):
    v = 1/(1/sigma2_z + 1/v0) with v0 = sigma2*dt, and the mean
    v*(mu_z/sigma2_z + (d_i - theta*dt)/v0)
      = (v/v0)*d_i + v*(mu_z/sigma2_z - theta/sigma2)."""
    v0 = sigma2 * dt
    v = 1.0 / (1.0 / sigma2_z + 1.0 / v0)
    return v / v0, v * (mu_z / sigma2_z - theta / sigma2), v


def _size_sums(sums, draws, dt, theta, sigma2, mu_z, sigma2_z):
    """(sum Z, sum Z^2, sum d*Z) over a group of k >= 1 active steps of length
    dt, with Z_i = alpha*d_i + beta + s*z_i (_size_law, s = sqrt(v)) from
    standard normals z_i, from sums = (S2, S1, k), the group's sums of d^2, d
    and 1, and draws = (g1, g2, W), two standard normals and a chi-square
    with k - 2 degrees of freedom (g2 = 0 for k = 1, W = 0 for k <= 2). g1
    and g2 are z's projections on the orthonormal 1/sqrt(k) and
    (d - S1/k)/|d - S1/k|, and W the rest of |z|^2, so sum z = A,
    sum d*z = C and |z|^2 = Q below have their joint law given J; when every
    active d is equal, g2 stands for any direction orthogonal to the first.
    At k = 1, |d - S1/k| is exactly 0. Floats for one group; for several,
    arrays of the groups' values, dt among them, give arrays of their sums."""
    s2, s1, k = sums
    g1, g2, w = draws
    alpha, beta, v = _size_law(dt, theta, sigma2, mu_z, sigma2_z)
    sqrt, clip = (math.sqrt, max) if isinstance(v, float) else (np.sqrt, np.maximum)
    s, a = sqrt(v), sqrt(k) * g1
    c = s1 / sqrt(k) * g1 + sqrt(clip(s2 - s1 * s1 / k, 0.0)) * g2
    q = g1 * g1 + g2 * g2 + w
    total = alpha * s1 + k * beta + s * a
    squares = (alpha * alpha * s2 + 2.0 * alpha * beta * s1 + k * beta * beta
               + 2.0 * s * (alpha * c + beta * a) + v * q)
    return total, squares, alpha * s2 + beta * s1 + s * c


class _Marginal:
    """The posterior of (theta, sigma2, mu_z, sigma2_z, lambda_star) with J and Z
    summed out: per step the mixture (1-lambda)*N(d; theta*dt, sigma2*dt) +
    lambda*N(d; theta*dt + mu_z, sigma2*dt + sigma2_z), times the priors.
    move_target is its one evaluator, on the move's coordinates x, at one
    point or at k; it also returns each step's jump probability
    P = 1/(1 + E), E = exp(-max(L, _LOG_ODDS_FLOOR)) of the log-odds L, the
    indicator draw's input at that point."""

    def __init__(self, inc: IncrementSeries, prior: JumpPrior) -> None:
        self.d, self.prior = inc.d, prior
        self.stats = _SuffStats.of(inc.d, inc.dt)
        equal = inc.n > 0 and bool(np.all(inc.dt == inc.dt[0]))
        self.dt = float(inc.dt[0]) if equal else inc.dt  # a float when every step is equal
        # rows (d^2, d, 1): L = (a, b, c) @ powers
        self.powers = np.stack((self.d * self.d, self.d, np.ones(inc.n)))
        # move_target's work rows, free between calls, which indicators reuses.
        # Allocating the two rows on each call took 1.19-1.20x the sweep time
        # (two runs of 40 alternating pairs of 1,200 sweeps of the bundled data,
        # faster in 0 and 3 of 40), for the same chain.
        self.scratch = np.empty((2, inc.n))

    def indicators(self, p, gen, probs=None):
        """J_i = [u_i < P_i] from n uniforms drawn into a work row of
        move_target, 1.0 or 0.0 per step in that row, valid until its next
        call; p is left as it was, and probs, when given, gains p. Drawn as
        u_i*(1 + E_i) < 1, the indicators would differ only where u_i is one
        value, fixed by E_i, of the 2^53 that random() draws: at most once in
        2^53 draws."""
        if probs is not None:
            probs += p
        u = gen.random(out=self.scratch[1])
        return np.less(u, p, out=u)

    def jump_stats(self, active, theta, sigma2, mu_z, sigma2_z, gen):
        """(the statistics of the active steps' sizes as unit-length steps,
        those of d - J*Z), each a plain tuple in _SuffStats' field order (a
        NamedTuple took about 0.33 us to build), with the sizes' sums drawn
        given the indicators active, 1.0 or 0.0 per step, by _size_sums.
        Equal steps are one group: one product with the powers gives (S2, S1,
        k), and for k > 0 two normals and, for k > 2, a chi-square with k - 2
        degrees of freedom draw its sums. On unequal steps each active step is
        a group of one, with its own dt and one normal, in step order, and the
        groups' sums are added."""
        n, sd, st, sdd = self.stats
        if isinstance(self.dt, float):
            s2, s1, k = (self.powers @ active).tolist()
            k = int(k)
            if k == 0:
                return _NO_DATA, self.stats
            g1, g2 = gen.standard_normal(2).tolist()
            draws = (g1, g2 if k > 1 else 0.0, gen.chisquare(k - 2) if k > 2 else 0.0)
            total, squares, cross = _size_sums(
                (s2, s1, k), draws, self.dt, theta, sigma2, mu_z, sigma2_z)
            shift = (2.0 * cross - squares) / self.dt
        else:
            idx = active.nonzero()[0]
            k, dt = idx.size, self.dt[idx]
            draws = (gen.standard_normal(k), 0.0, 0.0)
            total, squares, cross = _size_sums(
                (self.powers[0, idx], self.d[idx], 1), draws, dt, theta, sigma2, mu_z, sigma2_z)
            shift = float(((2.0 * cross - squares) / dt).sum())
            total, squares = float(total.sum()), float(squares.sum())
        return (k, total, k, squares), (n, sd - total, st, sdd - shift)

    def neg_log_odds(self, theta, sigma2, mu_z, sigma2_z, logit_lam, out=None):
        """-max(L, _LOG_ODDS_FLOOR) of the log-odds L = (a*d + b)*d + c at
        each step, into out when given: one product with the powers for equal
        steps, -(a*d + b)*d - c in place for unequal ones. On equal steps the
        parameters may be arrays of k, for k rows, one per point."""
        a, b, c = _log_odds_terms(self.dt, theta, sigma2, mu_z, sigma2_z, logit_lam)
        if isinstance(self.dt, float):
            # (-a, -b, -c) as a row, or as k rows for arrays of k parameters
            neg = np.dot(np.array((-a, -b, -c)).T, self.powers, out=out)
        else:
            neg = np.multiply(self.d, -a, out=out)
            neg -= b
            neg *= self.d
            neg -= c
        return np.minimum(neg, -_LOG_ODDS_FLOOR, out=neg)

    def move_target(self, x, out=None):
        """(log density up to a constant, P = 1/(1 + E) of the log-odds it
        summed, in out when given) at x = (theta, log sigma2, mu_z, log
        sigma2_z, logit lambda_star): one point as a 1-d x, or k points as
        the rows of a (k, 5) x, for an array of k values and P with one row
        per point.

        Each step's log mixture density is log N(d; theta*dt, sigma2*dt)
        + log(1 - lambda) + softplus(L) with L its jump log-odds, and
        softplus(L) = L + log1p(exp(-L)) on max(L, _LOG_ODDS_FLOOR); the no-jump
        densities enter in closed form through the sufficient statistics. The
        priors follow, then the Jacobian of x's transforms, log sigma2
        + log sigma2_z + log lambda_star + log(1 - lambda_star). k points on
        equal steps take one (k, 3) @ powers product into the rows that E and
        then P take, and log1p(E) goes through the two work rows, two rows at
        a time; on unequal steps the points go through the one-point code row
        by row. The value is -inf where a variance overflows or underflows:
        with P None at one point; at k points that row of P is meaningless.
        """
        if x.ndim == 1:
            theta, log_s2, mu_z, log_sz2, logit_lam = x.tolist()
            if not -700.0 < min(log_s2, log_sz2) <= max(log_s2, log_sz2) < 700.0:
                return -math.inf, None
            sigma2, sigma2_z = math.exp(log_s2), math.exp(log_sz2)
            neg = self.neg_log_odds(theta, sigma2, mu_z, sigma2_z, logit_lam, self.scratch[0])
            e = np.exp(neg, out=out)
            np.log1p(e, out=self.scratch[1])
            sum_neg, sum_log1p = (self.scratch @ self.powers[2]).tolist()
            p = _jump_probs(e)
        elif not isinstance(self.dt, float):
            p = np.empty((len(x), self.d.size)) if out is None else out
            return np.array([self.move_target(point, out=row)[0] for point, row in zip(x, p)]), p
        else:
            theta, log_s2, mu_z, log_sz2, logit_lam = x.T
            log_var = x[:, 1:4:2]
            bad = np.abs(log_var).max(axis=1) >= 700.0
            # the bad rows are evaluated at unit variances, then set to -inf
            sigma2, sigma2_z = np.exp(np.where(bad[:, None], 0.0, log_var)).T
            neg = self.neg_log_odds(theta, sigma2, mu_z, sigma2_z, logit_lam, out)
            sum_neg = neg @ self.powers[2]
            e = np.exp(neg, out=neg)
            sum_log1p = np.concatenate([np.log1p(rows, out=self.scratch[:len(rows)]) @ self.powers[2]
                                        for rows in np.split(e, range(2, len(e), 2))])
            p = _jump_probs(e)
        prior = self.prior
        log_1m = -_softplus(logit_lam)  # log(1 - lambda_star)
        value = (_normal_ig_log_kernel(self.stats, theta, sigma2, prior.diffusion)
                 + _normal_ig_log_kernel(_NO_DATA, mu_z, sigma2_z, prior.jump)
                 + (prior.lambda_a - 1.0) * (logit_lam + log_1m)
                 + (prior.lambda_b - 1.0 + self.stats.n) * log_1m + sum_log1p - sum_neg
                 + log_s2 + log_sz2 + logit_lam + 2.0 * log_1m)
        if x.ndim == 2:
            value[bad] = -math.inf
        return value, p


def _move_state(marginal: _Marginal, proposal, x, p):
    """The move's state at x: (x, marginal.move_target's value there,
    _T_DF + |inverse @ (x - mode)|^2 for the t proposal (mode, factor,
    inverse), P at x in the buffer p)."""
    mode, _, inverse = proposal
    w = inverse @ (x - mode)
    return x, marginal.move_target(x, p)[0], _T_DF + w @ w, p


def _offers(marginal: _Marginal, proposal, streams, count: int):
    """The move's count offers, one at a time: (y, marginal.move_target's
    value at y, _T_DF + |z|^2, P at y, a uniform u) for y = mode + factor @ z
    of the t proposal (mode, factor, inverse), z = g*sqrt(_T_DF/w) from 5
    standard normals g and a chi-square w with _T_DF degrees of freedom. The
    offers are drawn and evaluated _BLOCK at a time, the last block only as
    far as count, and the P rows live in one (_BLOCK, n) block that the next
    draw refills. The normals, the chi-squares and the uniforms each come
    from one of the three generators in streams, and factor @ z is an
    elementwise sum (a BLAS product rounds differently at different
    lengths), so every block length gives the same offers."""
    mode, factor, _ = proposal
    normals, chisquares, uniforms = streams
    block = np.empty((min(_BLOCK, count), marginal.d.size))
    for lo in range(0, count, _BLOCK):
        rows = min(_BLOCK, count - lo)
        p = block[:rows]
        z = normals.standard_normal((rows, len(mode)))
        z *= np.sqrt(_T_DF / chisquares.chisquare(_T_DF, rows))[:, None]
        y = mode + (z[:, None, :] * factor).sum(axis=2)
        values = marginal.move_target(y, p)[0].tolist()
        norms = (_T_DF + (z * z).sum(axis=1)).tolist()
        yield from zip(y, values, norms, p, uniforms.random(rows).tolist())


def _independence_step(state, offer):
    """One independence Metropolis step from the move's state (x, target
    value, _T_DF + |w|^2, P) of _move_state, to the offer's y (_offers),
    taken when u < exp(target(y) - target(x) + log q(x) - log q(y)) for the
    t proposal's log density log q = -(_T_DF + 5)/2*log(_T_DF + |w|^2)
    + constant, w = inverse @ (x - mode), which is z at y. Taking y copies
    its P row into the state's buffer. Returns the next state and whether y
    was taken."""
    x, value, norm, p = state
    y, y_value, y_norm, y_p, u = offer
    log_q = 0.5 * (_T_DF + len(x)) * math.log(y_norm / norm)
    if u < math.exp(min(y_value - value + log_q, 0.0)):
        np.copyto(p, y_p)
        return (y, y_value, y_norm, p), True
    return state, False


def _derivatives(marginal: _Marginal, x):
    """(value, g, -H): marginal.move_target's value, gradient and minus its
    Hessian at x, from its values at 21 points in one block evaluation: x,
    x +- h_i*e_i and x + h_i*e_i + h_j*e_j for i < j. Central differences
    give g and the diagonal of -H, forward differences the rest of -H."""
    # h_i = 1e-5*max(|x_i|, 1): relative to x_i, and absolute near 0, where
    # theta, mu_z and logit lambda_star sit; the step the Hessian took when
    # it was differenced from a hand-written gradient. At the bundled data's
    # mode the target, about 2e3, rounds by up to 1.6e-12, which costs at
    # most 1.6e-7 in g and a relative 5e-4 in -H's diagonal (1.4e2 to
    # 1.8e6); a step 10 times as long moves mu_z's g by 2e-2 through the
    # target's higher terms.
    h = 1e-5 * np.maximum(np.abs(x), 1.0)
    k = len(x)
    i, j = np.triu_indices(k, 1)
    steps = np.diag(h)
    points = x + np.concatenate((np.zeros((1, k)), steps, -steps, steps[i] + steps[j]))
    f = marginal.move_target(points)[0]
    value, up, down, pairs = f[0], f[1:k + 1], f[k + 1:2 * k + 1], f[2 * k + 1:]
    minus_h = np.diag((2.0 * value - up - down) / (h * h))
    minus_h[i, j] = minus_h[j, i] = (up[i] + up[j] - pairs - value) / (h[i] * h[j])
    return value, (up - down) / (2.0 * h), minus_h


def _laplace(marginal: _Marginal, x):
    """The move's t proposal (mode, factor, inverse) from the Laplace
    approximation of marginal.move_target: factor @ factor.T is _T_SCALE
    times the inverse of -H, minus the Hessian at the mode, and inverse is
    factor's inverse. Damped Newton ascent from x finds the mode: each step
    is the gradient g over the absolute eigenvalues of -H, both differenced
    from the target's values (_derivatives), so the step climbs where the
    target is not concave, halved until it raises the target. It stops when
    -H is positive definite and g'(-H)^-1 g < 1e-8. None when that takes
    more than _NEWTON_CAP steps or no halving raises the target."""
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_CAP):
            value, grad, minus_h = _derivatives(marginal, x)
            w, v = np.linalg.eigh(minus_h)
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
            x = x + step
    return None


def _lambda_beta(k: int, n: int, prior: JumpPrior):
    """(a, b) of the Beta conditional for lambda_star given k jumps in n steps."""
    return prior.lambda_a + k, prior.lambda_b + n - k


def simulate_jump_increments(params: JumpParams, dt, n: int, rng=None) -> np.ndarray:
    """Sample n increments: Normal diffusion plus Bernoulli(lambda_star) jumps,
    over steps of dt, one length for every step or a 1-d array of n; a
    ValueError for any other shape, or unless every step is positive and
    finite. The diffusion noise, the jump hits and the jump sizes (drawn at
    hits only) come from substreams 0, 1 and 2 split off rng's generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dt = np.asarray(dt, dtype=float)
    if dt.shape not in ((), (n,)):
        raise ValueError(f"dt must be a scalar or a 1-d array of n = {n} steps, "
                         f"got an array of shape {dt.shape}")
    if not np.all((dt > 0.0) & (dt < np.inf)):
        raise ValueError("dt must be positive and finite")
    dt = np.broadcast_to(dt, (n,))
    substream = _substreams(np.random.default_rng(rng))
    d = substream(0).standard_normal(n) * np.sqrt(dt) * math.sqrt(params.sigma2) + params.theta * dt
    hit = substream(1).random(n) < params.lambda_star
    d[hit] += substream(2).standard_normal(np.count_nonzero(hit)) * math.sqrt(params.sigma2_z) + params.mu_z
    return d


def _initial_params(inc: IncrementSeries, prior: JumpPrior) -> JumpParams:
    """Diffusion at the no-jump start (the MLE, or the prior center below two
    increments), lambda_star = 0.1, mu_z = 0 and sigma2_z the variance of d
    (at least 1e-6), or the prior center. Not the excess over the MLE's
    diffusion share: on equal steps that share is the whole variance. The
    chain starts here when the move is off, and the mode search when on."""
    theta, sigma2 = _start(inc, prior.diffusion)
    if inc.n >= 2:
        sigma2_z = max(float(np.var(inc.d)), 1e-6)
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
    """Metropolis-within-Gibbs sampler, in cycles of move-only and whole
    sweeps (see the module docstring); returns a chain with columns (theta,
    sigma2, mu_z, sigma2_z, lambda_star, n_jumps) whose meta.accept_rate is
    the share of the move's proposals taken over all sweeps, or None when the
    move is off, and whose jump_probs holds the posterior mean of each J_i:
    the mean over kept sweeps of the probability P_i that the indicator draw
    used. As in run_gibbs, burn_in and seed are checked by ChainMeta before
    the first sweep.
    """
    if n_keep < 1:
        raise ValueError("need n_keep >= 1")
    meta = ChainMeta("gbm-jump", burn_in, seed, inc.digest())
    gen = np.random.default_rng(seed)
    theta, sigma2, mu_z, sigma2_z, lam = astuple(_initial_params(inc, prior))
    marginal = _Marginal(inc, prior)
    n = inc.n
    x = _moved(theta, sigma2, mu_z, sigma2_z, lam)
    proposal = _laplace(marginal, x) if n >= _MOVE_MIN_N else None
    if proposal is not None:
        # start at the mode. From the no-jump start, whose sigma2 also holds
        # the jumps' variance, 10 sweeps left too many chains of the
        # calibration's 250-increment series (tests/test_sbc.py) with sigma2
        # above the truth: its lowest rank bin held 263 of 1,000 over four
        # seeds, against 220 from the mode and 200 expected.
        theta, sigma2, mu_z, sigma2_z, lam = _natural(proposal[0])
    # the move's offers come from three substreams, split off gen only when
    # the move is on, so that chains without it keep their streams; a sweep
    # takes at most one
    offers = None if proposal is None else _offers(
        marginal, proposal, tuple(map(_substreams(gen), range(3))), burn_in + n_keep)
    # state is the move's state (_move_state), or None when the blocks have
    # moved the parameters since. P, at the state or at the parameters of a
    # sweep without the move, is in p. Fresh arrays for it and the indicators
    # on each evaluation, in place of this row and move_target's, took about
    # 1.02-1.03x the sweep time (measured as for _Marginal.scratch: faster in
    # 17 and 12 of 40 pairs), for the same chain.
    p, state, moves, taken = np.empty(n), None, 0, 0
    draws, jump_probs = np.empty((n_keep, 6)), np.zeros(n)
    for sweep in range(burn_in + n_keep):
        kept = sweep >= burn_in
        # a lambda_star of exactly 0 or 1 has no logit: skip that move
        moving = offers is not None and 0.0 < lam < 1.0
        if moving:
            if state is None:
                x = _moved(theta, sigma2, mu_z, sigma2_z, lam)
                state = _move_state(marginal, proposal, x, p)
            state, accepted = _independence_step(state, next(offers))
            moves, taken = moves + 1, taken + accepted
            if accepted:
                theta, sigma2, mu_z, sigma2_z, lam = _natural(state[0])
        else:
            _jump_probs(np.exp(marginal.neg_log_odds(
                theta, sigma2, mu_z, sigma2_z, _logit(lam), p), out=p))
        # A move-only sweep ends with the move's state; the last sweep of a
        # cycle, and every sweep without the move, runs the blocks too. In
        # burn-in, a move-only sweep's indicators would feed nothing: the
        # generator skips the n uniforms they take (PCG64 spends one 64-bit
        # output per double), so every later draw is the one it would be.
        move_only = moving and sweep % _MOVES < _MOVES - 1
        if move_only and not kept:
            gen.bit_generator.advance(n)
            continue
        active = marginal.indicators(p, gen, jump_probs if kept else None)
        # n_jumps counts the indicators drawn in the sweep
        if move_only:
            n_jumps = np.count_nonzero(active)
        else:
            sizes, stats = marginal.jump_stats(active, theta, sigma2, mu_z, sigma2_z, gen)
            n_jumps = sizes[0]
            lam = float(gen.beta(*_lambda_beta(n_jumps, n, prior)))
            mu_z, sigma2_z = _draw_theta_sigma2(sizes, sigma2_z, prior.jump, gen)
            theta, sigma2 = _draw_theta_sigma2(stats, sigma2, prior.diffusion, gen)
            state = None
        if kept:
            draws[sweep - burn_in] = (theta, sigma2, mu_z, sigma2_z, lam, n_jumps)
    meta = replace(meta, accept_rate=taken / moves if moves else None)
    return PosteriorChain(draws=draws, meta=meta, jump_probs=jump_probs / n_keep)
