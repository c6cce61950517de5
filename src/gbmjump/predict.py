"""Posterior-predictive credible bands.

Each retained posterior draw contributes one free-running path (parameter and
path noise both enter), so bands reflect full predictive uncertainty.
predictive_band covers the steps of dt past a start price, as a forecast does;
fitted_band reruns the model over the observation grid from the first observed
price. Paths are simulated in blocks of time steps, reduced to their band rows
and dropped, so no band holds the draws x steps path matrix. A worker thread
draws the next block's diffusion and jump hits while the caller adds the
current block's jump sizes, sums, exponentiates, and sorts each step's prices
in place for its quantiles; numpy releases the GIL in both, so a band keeps two
CPUs busy, and the bytes are those of a serial loop. The worker is a plain
threading.Thread fed through two queue.SimpleQueues: a concurrent.futures
pool imported logging as well, which cost each forecast process 6-10 ms.
"""

from __future__ import annotations

import queue
import threading
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .diagnostics import quantiles
from .gbm import IncrementKernel
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


# Chain rows that a band draws one path each from, evenly strided.
_MAX_DRAWS = 2000
# Time steps per block. Two blocks are in flight, one drawn while the other is
# reduced, so memory is O(draws x _BLOCK); the bytes do not depend on it. For
# the bundled jump fit (2000 draws x 1510 steps, 2-CPU Xeon VM, medians of 14
# bands over 3 runs) a fitted band took 0.09-0.12 s at 8 to 64 steps per block
# (0.08-0.10 s at 32 and 64, within the VM's drift), 0.17-0.20 s at 1510 (one
# block: nothing overlaps) and 0.37-0.43 s at 1, where the hand-off per block
# dominates. At 16 a band's traced peak is 1.4 MiB (2.5 at 32).
_BLOCK = 16


def _price_blocks(chain: PosteriorChain, start: float, dt: np.ndarray, rng):
    """Prices after each step of dt from start, start * exp(cumsum of model
    increments), as time-major blocks of up to _BLOCK steps with one column
    per subsampled draw.

    The log-price carried from block to block is added to a block's first row
    before the in-place prefix sum, so every block length gives the same bytes.
    One worker thread runs kernel.diffusion for block j+1 while the caller runs
    kernel.add_jumps on block j and reduces it, so each substream is still
    consumed by one thread in block order. The caller asks for a block through
    one queue and takes its draws from the other, so at most one block is
    drawn ahead. An error the worker raises ends the worker and is raised
    here, and closing the generator stops the worker and joins its thread.
    """
    rows = _subsample_rows(len(chain), _MAX_DRAWS)
    theta, sigma2, *jump = (chain.column(c)[rows] for c in chain.columns if c != "n_jumps")
    kernel = IncrementKernel(theta, sigma2, np.random.default_rng(rng), jump)
    asked, drawn = queue.SimpleQueue(), queue.SimpleQueue()

    def draw():  # the worker: each asked block's diffusion, until None
        try:
            while (steps := asked.get()) is not None:
                drawn.put(kernel.diffusion(steps))
        except Exception as exc:  # for the caller to raise
            drawn.put(exc)

    carry = np.full(len(rows), np.log(start))
    asked.put(dt[:_BLOCK])
    worker = threading.Thread(target=draw)
    worker.start()
    try:
        for lo in range(0, len(dt), _BLOCK):
            item = drawn.get()
            if isinstance(item, Exception):
                raise item
            if lo + _BLOCK < len(dt):
                asked.put(dt[lo + _BLOCK:lo + 2 * _BLOCK])
            y = kernel.add_jumps(*item)
            y[0] += carry
            # the prefix sum down the rows: np.cumsum(y, axis=0)'s additions in
            # its order, the same bytes. The bundled jump fit's fitted band took
            # 0.89 and 0.95 of cumsum's time (two runs of 16 alternating bands
            # in one process, faster in 14 and 13, 2-CPU Xeon VM).
            for i in range(1, len(y)):
                y[i] += y[i - 1]
            carry = y[-1].copy()
            yield np.exp(y, out=y)
    finally:
        asked.put(None)
        worker.join()


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
    path per chain row (up to _MAX_DRAWS rows, evenly strided).

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
        raise ValueError("need at least two paths for a band (chain rows >= 2)")
    rows = []
    # the generator's exp runs on this thread, so an overflow to inf is
    # silenced here and rejected below, before a quantile subtracts infs
    with closing(_price_blocks(chain, start, dt, rng)) as blocks, np.errstate(over="ignore"):
        for prices in blocks:
            mean = prices.mean(axis=1)  # prices are >= 0: finite means, finite prices
            if not (np.all(prices > 0.0) and np.all(np.isfinite(mean))):
                raise ValueError("price paths must stay positive and finite")
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
