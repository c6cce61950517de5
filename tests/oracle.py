"""The conjugate conditionals on a series, as the paper writes them, and the
jump model's increment moments: reference forms that only the tests read.

The samplers call the private _sigma2_conditional and _draw_theta_sigma2 on a
series' sufficient statistics; _draw_theta_sigma2 writes theta | sigma2 out
inline, and theta_conditional here is its reference form. The conditionals
here are those on an IncrementSeries, and their samplers draw one parameter
each from a generator of their own.
"""

import math

import numpy as np

from gbmjump import GbmPrior, IncrementSeries, JumpParams
from gbmjump.gbm import _SuffStats
from gbmjump.gibbs import _sigma2_conditional


def theta_conditional(inc: IncrementSeries, sigma2: float, prior: GbmPrior = GbmPrior()):
    """(mean, variance) of theta | sigma2, data: 1/v = 1/theta_var +
    sum(dt)/sigma2, m = v*(theta_mean/theta_var + sum(d)/sigma2)."""
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    _, sd, st, _ = _SuffStats.of(inc.d, inc.dt)
    prec = 1.0 / prior.theta_var + st / sigma2
    mean = (prior.theta_mean / prior.theta_var + sd / sigma2) / prec
    return mean, 1.0 / prec


def sigma2_conditional(inc: IncrementSeries, theta: float, prior: GbmPrior = GbmPrior()):
    """(shape, scale) of the inverse-gamma sigma2 | theta, data."""
    return _sigma2_conditional(_SuffStats.of(inc.d, inc.dt), theta, prior)


def sample_theta_given_sigma2(inc, sigma2, prior=GbmPrior(), rng=None) -> float:
    mean, var = theta_conditional(inc, sigma2, prior)
    return float(mean + math.sqrt(var) * np.random.default_rng(rng).standard_normal())


def sample_sigma2_given_theta(inc, theta, prior=GbmPrior(), rng=None) -> float:
    shape, scale = sigma2_conditional(inc, theta, prior)
    return float(scale / np.random.default_rng(rng).gamma(shape))


def increment_moments(params: JumpParams, dt: float):
    """Exact (mean, variance) of one increment under the jump model:
    mean = theta*dt + lambda_star*mu_z,
    var  = sigma2*dt + lambda_star*sigma2_z + lambda_star*(1-lambda_star)*mu_z^2.
    """
    lam = params.lambda_star
    mean = params.theta * dt + lam * params.mu_z
    var = params.sigma2 * dt + lam * params.sigma2_z + lam * (1.0 - lam) * params.mu_z**2
    return mean, var
