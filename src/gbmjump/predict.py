"""Posterior-predictive credible bands.

Each retained posterior draw contributes one price at every step (parameter
and path noise both enter), so bands reflect full predictive uncertainty.
predictive_band covers the steps of dt past a start price, as a forecast does;
fitted_band reruns the model over the observation grid from the first observed
price. A band reads each step's prices on their own, so a draw's price at a
step comes from its exact law there, given the draw's jump count so far, not
from a simulated path: one normal per draw serves every step, and only the
jump hits are drawn per step. The prices of one draw at two steps are
therefore not a path's, which a pointwise band does not read. Prices are drawn
in blocks of time steps, reduced to their band rows and dropped, so no band
holds the draws x steps price matrix. simulate_jump_increments draws
increments of the jump model, whose cumulative sums are paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import quantiles
from .gbm import _substreams
from .gibbs import PosteriorChain
from .series import IncrementSeries, write_csv


@dataclass(frozen=True)
class Band:
    """Pointwise credible band: empirical quantile envelope plus ensemble mean."""

    grid: np.ndarray
    lower: np.ndarray
    mean: np.ndarray
    upper: np.ndarray
    level: float

    def __post_init__(self) -> None:
        for name in ("grid", "lower", "mean", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (len(self.grid) == len(self.lower) == len(self.mean) == len(self.upper)):
            raise ValueError("band arrays must share one length")
        if np.any(self.lower > self.upper):
            raise ValueError("lower envelope above upper envelope")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


def _subsample_rows(n_rows: int, max_draws: int) -> np.ndarray:
    """Deterministic even stride over chain rows (all rows if they fit)."""
    if n_rows <= max_draws:
        return np.arange(n_rows)
    return (np.arange(max_draws) * n_rows) // max_draws


# Chain rows that a band draws one price each from at every step, evenly strided.
_MAX_DRAWS = 2000
# Time steps per block: memory is O(draws x _BLOCK), and the bytes do not
# depend on it. For the bundled jump fit (2000 draws x 1510 steps, 2-CPU Xeon
# VM) a fitted band took a median 62-67 ms at 16 and at 32 steps per block and
# 73-74 ms at 64 (16 alternating bands, two runs). perfbench jump-bands read
# peak_rss_mb 37.38 MB at 16 and 41.75 MB at 64, and wall_s 0.336-0.348 s
# against 0.352-0.364 s (seeds 901-903). At 16 a band's traced peak is 1.6 MiB.
_BLOCK = 16


def _price_blocks(chain: PosteriorChain, start: float, dt: np.ndarray, rng):
    """Prices after each step of dt from start, as time-major blocks of up to
    _BLOCK steps with one column per subsampled draw.

    A band reads each step on its own, so each column is drawn from its law
    at that step, not as a path: given its jump count N_t up to elapsed
    time T_t, a draw's log-price is exactly Normal(log start + theta*T_t +
    mu_z*N_t, sigma2*T_t + sigma_z^2*N_t) (Merton 1976, J. Financial Econ.
    3). One standard normal Z per draw (substream 0) gives that law at every
    step, and N_t sums Bernoulli(lambda_star) hits drawn time-major
    (substream 1) and carried from block to block, so every block length
    gives the same bytes. sigma_z is read, not sigma2_z, because a chain file
    holds sigma_z: a chain read back from its file gives the same band.
    """
    rows = _subsample_rows(len(chain), _MAX_DRAWS)
    theta, sigma2 = (chain.column(c)[rows] for c in ("theta", "sigma2"))
    substream = _substreams(np.random.default_rng(rng))
    z = substream(0).standard_normal(len(rows))
    jumps = "lambda_star" in chain.columns
    if jumps:
        mu_z, sigma_z, lam = (chain.column(c)[rows] for c in ("mu_z", "sigma_z", "lambda_star"))
        var_z = np.square(sigma_z)
        hits = substream(1)
        count = np.zeros(len(rows))
    elapsed = np.cumsum(dt)[:, None]
    log_start = np.log(start)
    for lo in range(0, len(dt), _BLOCK):
        t = elapsed[lo:lo + _BLOCK]
        y = theta * t
        y += log_start
        var = sigma2 * t
        if jumps:
            n = hits.random((len(t), len(rows)))
            np.less(n, lam, out=n)
            n[0] += count
            for i in range(1, len(n)):  # a fifth of np.cumsum(n, axis=0)'s time
                n[i] += n[i - 1]
            count = n[-1].copy()
            var += var_z * n
            n *= mu_z
            y += n
        np.sqrt(var, out=var)
        var *= z
        y += var
        yield np.exp(y, out=y)


def _tail(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly in (0, 1), got {level}")
    return 0.5 * (1.0 - level)


def predictive_band(
    chain: PosteriorChain,
    start: float,
    dt,
    level: float = 0.90,
    rng=None,
) -> Band:
    """Pointwise band of the prices after each step of dt from start: the
    empirical (1-level)/2 and 1-(1-level)/2 quantiles and the mean over one
    price per chain row at each step (up to _MAX_DRAWS rows, evenly strided).

    Prices are drawn _BLOCK steps at a time, checked positive and finite,
    reduced to their quantile and mean rows and dropped, so memory is
    O(draws x _BLOCK). The grid holds the offsets cumsum(dt) from the start;
    the start itself is not a row.
    """
    dt = np.asarray(dt, dtype=float)
    if not 0.0 < start < np.inf:
        raise ValueError(f"start must be positive and finite, got {start}")
    if dt.ndim != 1 or len(dt) < 1 or not np.all((dt > 0.0) & (dt < np.inf)):
        raise ValueError("dt must be a non-empty 1-d array of positive finite steps")
    tail = _tail(level)
    if len(chain) < 2:
        raise ValueError("need at least two draws for a band (chain rows >= 2)")
    rows = []
    # an overflow to inf in the generator's exp is silenced here and rejected
    # below, before a quantile subtracts infs
    with np.errstate(over="ignore"):
        for prices in _price_blocks(chain, start, dt, rng):
            mean = prices.mean(axis=1)  # prices are >= 0: finite means, finite prices
            if not (np.all(prices > 0.0) and np.all(np.isfinite(mean))):
                raise ValueError("band prices must stay positive and finite")
            # the mean's bits depend on element order, so it comes before the sort
            rows.append((*quantiles(prices, (tail, 1.0 - tail)), mean))
    lower, upper, mean = (np.concatenate(parts) for parts in zip(*rows))
    return Band(grid=np.cumsum(dt), lower=lower, mean=mean, upper=upper, level=level)


def fitted_band(
    chain: PosteriorChain,
    inc: IncrementSeries,
    x0: float,
    level: float = 0.90,
    rng=None,
) -> Band:
    """predictive_band over the observation grid from x0, after a first row at
    time 0 that is x0 exactly in lower, mean and upper, so row j aligns with
    observation j."""
    if not 0.0 < x0 < np.inf:
        raise ValueError(f"x0 must be positive and finite, got {x0}")
    if inc.n < 1:
        raise ValueError("need at least one increment")
    band = predictive_band(chain, x0, inc.dt, level, rng)
    lower, mean, upper = (np.concatenate(([x0], row)) for row in (band.lower, band.mean, band.upper))
    grid = np.concatenate(([0.0], band.grid))
    return Band(grid=grid, lower=lower, mean=mean, upper=upper, level=level)


def write_band_csv(band: Band, path, dates) -> None:
    """Rows of (time, date, lower, mean, upper), one date per grid row; a
    None date is written as a blank cell."""
    if len(dates) != len(band.grid):
        raise ValueError("dates must match the band grid")
    columns = {
        "time": band.grid, "date": dates,
        "lower": band.lower, "mean": band.mean, "upper": band.upper,
    }
    write_csv(path, columns, meta={"level": band.level})


def simulate_jump_increments(params, dt, n: int, rng=None) -> np.ndarray:
    """Sample n increments of the jump model at params, a jumps.JumpParams:
    Normal diffusion plus Bernoulli(lambda_star) jumps, over steps of dt, one
    length for every step or a 1-d array of n; a ValueError for any other
    shape, or unless every step is positive and finite. The diffusion noise,
    the jump hits and the jump sizes (drawn at hits only) come from
    substreams 0, 1 and 2 split off rng's generator."""
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
