"""Posterior-predictive path ensembles and pointwise credible bands.

Each retained posterior draw contributes one free-running path (parameter and
path noise both enter), so bands reflect full predictive uncertainty. Fitted
realizations rerun the model over the observation grid from the first observed
price; forecasts extend horizon_steps equal steps past the last one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gbm import simulate_increments
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


def _paths(chain: PosteriorChain, start: float, dt: np.ndarray, rng, max_draws: int):
    """Prices after each step of dt from start, start * exp(cumsum of model
    increments), one row per subsampled draw."""
    rows = _subsample_rows(len(chain), max_draws)
    names = ["theta", "sigma2"]
    if chain.meta.model == "gbm-jump":
        names += ["lambda_star", "mu_z", "sigma2_z"]
    theta, sigma2, *jump = (chain.column(c)[rows, None] for c in names)
    d = simulate_increments(theta, sigma2, dt, as_generator(rng), jump or None)
    return np.exp(np.log(start) + np.cumsum(d, axis=1))


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
    if max_draws < 1:
        raise ValueError("max_draws must be >= 1")
    paths = _paths(chain, x0, inc.dt, rng, max_draws)
    paths = np.hstack((np.full((len(paths), 1), x0), paths))
    grid = inc.t0 + np.concatenate(([0.0], np.cumsum(inc.dt)))
    return PathEnsemble(grid=grid, paths=paths, model=chain.meta.model)


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
    origin, one band row per future step (the origin itself is not a row).
    """
    if s_last <= 0.0:
        raise ValueError("s_last must be positive")
    if horizon_steps < 1:
        raise ValueError("horizon_steps must be >= 1")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if max_draws < 1:
        raise ValueError("max_draws must be >= 1")
    paths = _paths(chain, s_last, np.full(horizon_steps, dt), rng, max_draws)
    grid = dt * np.arange(1, horizon_steps + 1)
    return PathEnsemble(grid=grid, paths=paths, model=chain.meta.model)


def credible_band(ens: PathEnsemble, level: float = 0.90) -> Band:
    """Pointwise empirical (1-level)/2 and 1-(1-level)/2 quantiles plus mean."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly in (0, 1), got {level}")
    if ens.n_draws < 2:
        raise ValueError("need at least two paths for a band")
    tail = 0.5 * (1.0 - level)
    lower, upper = np.quantile(ens.paths, [tail, 1.0 - tail], axis=0)
    return Band(
        grid=ens.grid,
        lower=lower,
        mean=ens.paths.mean(axis=0),
        upper=upper,
        level=level,
    )


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
