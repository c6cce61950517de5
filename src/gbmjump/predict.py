"""Posterior-predictive path ensembles and pointwise credible bands.

Each retained posterior draw contributes one free-running path (parameter and
path noise both enter), so bands reflect full predictive uncertainty. Fitted
realizations rerun the model over the observation grid from the first observed
price; forecasts extend horizon_steps equal steps past the last one. Bands can
also be streamed (predictive_band, fitted_band): blocks of time steps are
simulated, reduced to their band rows and dropped, with the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gbm import IncrementKernel
from .gibbs import PosteriorChain
from .rngs import as_generator
from .series import IncrementSeries, write_csv


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths (one row per draw) on a common time grid in years."""

    grid: np.ndarray
    paths: np.ndarray
    model: str

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        paths = np.asarray(self.paths, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "paths", paths)
        if paths.ndim != 2 or paths.shape[1] != grid.shape[0]:
            raise ValueError("paths must be (n_draws, len(grid))")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(paths > 0.0):
            raise ValueError("price paths must stay positive")

    @property
    def n_draws(self) -> int:
        return self.paths.shape[0]


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


# Time steps per block that predictive_band holds at once: memory is
# O(draws x _BLOCK) and the bytes do not depend on it. For the bundled jump
# fit (2000 draws x 1510 steps, 2-CPU Xeon VM) a band took 0.29-0.34 s at 8 to
# 1510 steps per block and 0.44 s at 1, where per-block overhead dominates.
_BLOCK = 64


def _price_blocks(chain: PosteriorChain, start: float, dt: np.ndarray, rng, max_draws: int,
                  block: int):
    """Prices after each step of dt from start, start * exp(cumsum of model
    increments), as time-major blocks of up to `block` steps with one column
    per subsampled draw.

    The log-price carried from block to block is added to a block's first row
    before the in-place cumsum, so every block length gives the same bytes.
    """
    rows = _subsample_rows(len(chain), max_draws)
    names = ["theta", "sigma2"]
    if chain.meta.model == "gbm-jump":
        names += ["lambda_star", "mu_z", "sigma2_z"]
    theta, sigma2, *jump = (chain.column(c)[rows] for c in names)
    kernel = IncrementKernel(theta, sigma2, as_generator(rng), jump or None)
    carry = np.full(len(rows), np.log(start))
    for lo in range(0, len(dt), block):
        y = kernel.block(dt[lo:lo + block])
        y[0] += carry
        np.cumsum(y, axis=0, out=y)
        carry = y[-1].copy()
        yield np.exp(y, out=y)


def _paths(chain: PosteriorChain, start: float, dt: np.ndarray, rng, max_draws: int):
    """_price_blocks as one block: every step of dt, one column per draw."""
    return next(_price_blocks(chain, start, dt, rng, max_draws, block=len(dt)))


def _check_draws(max_draws: int) -> None:
    if max_draws < 1:
        raise ValueError("max_draws must be >= 1")


def fitted_realizations(
    chain: PosteriorChain,
    inc: IncrementSeries,
    x0: float,
    rng=None,
    max_draws: int = 2000,
) -> PathEnsemble:
    """Free-running paths over the observation grid, anchored at x0.

    The grid is t0 followed by the cumulative observation times, so row j aligns
    with observation j and paths[:, 0] == x0.
    """
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    if inc.n < 1:
        raise ValueError("need at least one increment")
    _check_draws(max_draws)
    prices = _paths(chain, x0, inc.dt, rng, max_draws)
    prices = np.vstack((np.full((1, prices.shape[1]), x0), prices))
    grid = inc.t0 + np.concatenate(([0.0], np.cumsum(inc.dt)))
    return PathEnsemble(grid=grid, paths=prices.T, model=chain.meta.model)


def forecast(
    chain: PosteriorChain,
    s_last: float,
    horizon_steps: int,
    dt: float = 1.0 / 252.0,
    rng=None,
    max_draws: int = 2000,
) -> PathEnsemble:
    """Paths extending horizon_steps steps of size dt beyond the last price.

    The grid holds offsets dt, 2*dt, ..., horizon_steps*dt from the forecast
    origin (as a cumulative sum), one band row per future step (the origin
    itself is not a row).
    """
    if s_last <= 0.0:
        raise ValueError("s_last must be positive")
    if horizon_steps < 1:
        raise ValueError("horizon_steps must be >= 1")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    _check_draws(max_draws)
    steps = np.full(horizon_steps, dt)
    prices = _paths(chain, s_last, steps, rng, max_draws)
    return PathEnsemble(grid=np.cumsum(steps), paths=prices.T, model=chain.meta.model)


def _tail(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly in (0, 1), got {level}")
    return 0.5 * (1.0 - level)


def _band_rows(prices: np.ndarray, tail: float):
    """Lower quantile, mean and upper quantile of each row of a time-major block."""
    lower, upper = np.quantile(prices, [tail, 1.0 - tail], axis=1)
    return lower, prices.mean(axis=1), upper


def credible_band(ens: PathEnsemble, level: float = 0.90) -> Band:
    """Pointwise empirical (1-level)/2 and 1-(1-level)/2 quantiles plus mean."""
    tail = _tail(level)
    if ens.n_draws < 2:
        raise ValueError("need at least two paths for a band")
    # time-major and C-ordered, as predictive_band reduces its blocks; for
    # fitted_realizations and forecast ensembles this is a view, not a copy
    lower, mean, upper = _band_rows(np.ascontiguousarray(ens.paths.T), tail)
    return Band(grid=ens.grid, lower=lower, mean=mean, upper=upper, level=level)


def predictive_band(
    chain: PosteriorChain,
    start: float,
    dt,
    level: float = 0.90,
    rng=None,
    max_draws: int = 2000,
) -> Band:
    """The band credible_band gives for paths after each step of dt from start,
    without the path matrix.

    Prices are drawn _BLOCK steps at a time, checked positive, reduced to their
    quantile and mean rows and dropped, so memory is O(draws x _BLOCK). At the
    same rng the band is byte-identical to credible_band of the ensemble that
    forecast or fitted_realizations builds. The grid holds the offsets
    cumsum(dt) from the start.
    """
    dt = np.asarray(dt, dtype=float)
    if start <= 0.0:
        raise ValueError("start must be positive")
    if dt.ndim != 1 or len(dt) < 1 or np.any(dt <= 0.0):
        raise ValueError("dt must be a non-empty 1-d array of positive steps")
    _check_draws(max_draws)
    tail = _tail(level)
    if min(len(chain), max_draws) < 2:
        raise ValueError("need at least two paths for a band")
    rows = []
    for prices in _price_blocks(chain, start, dt, rng, max_draws, _BLOCK):
        if not np.all(prices > 0.0):
            raise ValueError("price paths must stay positive")
        rows.append(_band_rows(prices, tail))
    lower, mean, upper = (np.concatenate(parts) for parts in zip(*rows))
    return Band(grid=np.cumsum(dt), lower=lower, mean=mean, upper=upper, level=level)


def fitted_band(
    chain: PosteriorChain,
    inc: IncrementSeries,
    x0: float,
    level: float = 0.90,
    rng=None,
    max_draws: int = 2000,
) -> Band:
    """predictive_band over the observation grid of fitted_realizations, with
    a first row (at t0) that is x0 exactly in lower, mean and upper."""
    band = predictive_band(chain, x0, inc.dt, level, rng, max_draws)
    lower, mean, upper = (np.concatenate(([x0], row)) for row in (band.lower, band.mean, band.upper))
    grid = inc.t0 + np.concatenate(([0.0], band.grid))
    return Band(grid=grid, lower=lower, mean=mean, upper=upper, level=level)


def write_band_csv(band: Band, path, dates=None) -> None:
    """Rows of (time, date, lower, mean, upper); date blank when not supplied."""
    if dates is None:
        dates = [None] * len(band.grid)
    elif len(dates) != len(band.grid):
        raise ValueError("dates must match the band grid")
    columns = {
        "time": band.grid, "date": dates,
        "lower": band.lower, "mean": band.mean, "upper": band.upper,
    }
    write_csv(path, columns, meta={"level": band.level})
