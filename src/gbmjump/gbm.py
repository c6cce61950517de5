"""Geometric Brownian motion: exact transition density and closed-form MLE.

Parameterization is (theta, sigma2) with theta = mu - sigma2/2, so log-increments
over a step dt are Normal(theta*dt, sigma2*dt) and the price solution is
x0 * exp(theta*t + sigma*B_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .series import IncrementSeries

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GbmParams:
    """Drift (log-scale) and squared volatility, both per year.

    sigma2 == 0 is permitted so the degenerate MLE of a noise-free series can be
    represented; densities refuse it.
    """

    theta: float
    sigma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.sigma2)):
            raise ValueError("parameters must be finite")
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")

    @property
    def mu(self) -> float:
        """Arithmetic drift mu = theta + sigma2/2."""
        return self.theta + 0.5 * self.sigma2

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def degenerate(self) -> bool:
        return self.sigma2 == 0.0


class _SuffStats(NamedTuple):
    """The GBM sufficient statistics n, sum d, sum dt and sum d^2/dt: all that
    the MLE and the Gibbs conditionals read of the data."""

    n: int
    sd: float
    st: float
    sdd: float

    @classmethod
    def of(cls, d: np.ndarray, dt: np.ndarray) -> "_SuffStats":
        return cls(
            n=len(d),
            sd=float(np.sum(d)),
            st=float(np.sum(dt)),
            sdd=float(np.sum(d * d / dt)),
        )


def log_likelihood(inc: IncrementSeries, params: GbmParams) -> float:
    """Sum over a non-empty increment series of the exact transition
    log-densities log Normal(d_i; theta*dt_i, sigma2*dt_i); sigma2 == 0 has none."""
    if inc.n == 0:
        raise ValueError("log_likelihood needs at least one increment")
    if params.degenerate:
        raise ValueError("transition density undefined for sigma2 == 0")
    var = params.sigma2 * inc.dt
    resid = inc.d - params.theta * inc.dt
    return float(np.sum(-0.5 * (LOG_2PI + np.log(var)) - 0.5 * resid * resid / var))


def mle_fit(inc: IncrementSeries) -> GbmParams:
    """Closed-form maximizer of the exact likelihood.

    theta_hat = (y_n - y_0) / (t_n - t_0)
    sigma2_hat = (1/n) * [ sum d_i^2/dt_i - (y_n - y_0)^2 / (t_n - t_0) ]

    The 1/n divisor is the plain MLE, no bias correction. A series whose
    increments are exactly proportional to dt yields sigma2_hat == 0; the
    result carries params.degenerate == True rather than raising.
    """
    if inc.n < 2:
        raise ValueError(f"MLE needs n >= 2 increments, got {inc.n}")
    n, sd, st, sdd = _SuffStats.of(inc.d, inc.dt)
    theta = sd / st
    sigma2 = (sdd - sd * sd / st) / n
    if sigma2 < 0.0:  # roundoff from cancellation; the true value is >= 0
        sigma2 = 0.0
    return GbmParams(theta=theta, sigma2=sigma2)


def _substreams(gen: np.random.Generator):
    """substream(k), the generator of child k of SeedSequence(entropy).spawn(),
    with entropy drawn from gen now: a caller's substreams, each built only
    when asked for."""
    entropy = gen.integers(2**32, size=4)
    return lambda k: np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(k,)))
