"""Chain summaries and convergence diagnostics."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .gibbs import CHAIN_COLUMNS, PosteriorChain
from .series import write_csv, write_json


@dataclass(frozen=True)
class ParamSummary:
    mean: float
    sd: float
    q2_5: float
    q50: float
    q97_5: float


def summarize_draws(draws) -> ParamSummary:
    """Mean, SD (n-1 divisor) and type-7 quantiles of one chain."""
    x = np.array(draws, dtype=float)  # a copy, which quantiles sorts
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d sample of at least two draws")
    if not np.all(np.isfinite(x)):
        raise ValueError("draws must be finite")
    mean, sd = float(x.mean()), float(x.std(ddof=1))  # before the sort reorders x
    q = quantiles(x, (0.025, 0.5, 0.975))
    return ParamSummary(mean=mean, sd=sd, q2_5=float(q[0]), q50=float(q[1]), q97_5=float(q[2]))


def quantiles(x: np.ndarray, levels) -> np.ndarray:
    """Type-7 sample quantiles (Hyndman & Fan 1996, numpy's 'linear') of each
    row of x, the last axis, bit for bit those of np.quantile(x, levels,
    axis=-1), with one leading row per level. Sorts x in place; x must be
    finite, as numpy's NaN placement is not copied.
    """
    x.sort(axis=-1)
    v = (x.shape[-1] - 1) * np.asarray(levels, dtype=float)
    lo = np.floor(v)
    g = (v - lo).reshape(-1, *(1,) * (x.ndim - 1))
    lo = lo.astype(np.intp)
    a, b = (np.moveaxis(x[..., i], -1, 0) for i in (lo, np.minimum(lo + 1, x.shape[-1] - 1)))
    step = b - a
    return np.where(g >= 0.5, b - step * (1 - g), a + step * g)


def summarize(chain: PosteriorChain) -> dict[str, ParamSummary]:
    """ParamSummary of each reporting column of the chain's model, in order:
    (mu, sigma) for gbm, plus (mu_z, sigma_z, lambda_star) for gbm-jump."""
    params = CHAIN_COLUMNS[chain.meta.model].reported
    return {p: summarize_draws(chain.column(p)) for p in params}


def pacf(series, max_lag: int) -> np.ndarray:
    """Partial autocorrelations at lags 1..max_lag: at lag k, the last
    coefficient of the order-k Yule-Walker system on the sample
    autocorrelations (autocovariances with the 1/n divisor).

    Requires a finite series, len(series) > max_lag + 1 and nonzero variance.
    """
    x = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("series must be finite")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    n = x.size
    if n <= max_lag + 1:
        raise ValueError(f"series of length {n} too short for max_lag {max_lag}")
    centered = x - x.mean()
    acov = np.array(
        [np.dot(centered[: n - k], centered[k:]) / n for k in range(max_lag + 1)]
    )
    if acov[0] <= 0.0:
        raise ValueError("series has zero variance")
    rho = acov / acov[0]
    lag = np.arange(max_lag)
    toeplitz = rho[np.abs(lag[:, None] - lag)]
    return np.array(
        [np.linalg.solve(toeplitz[:k, :k], rho[1 : k + 1])[-1] for k in range(1, max_lag + 1)]
    )


def summary_to_dict(summary: dict[str, ParamSummary]) -> dict:
    return {name: asdict(row) for name, row in summary.items()}


def write_summary_csv(summary: dict[str, ParamSummary], path) -> None:
    columns = {"parameter": list(summary)}
    for f in fields(ParamSummary):
        columns[f.name] = [getattr(row, f.name) for row in summary.values()]
    write_csv(path, columns)


def write_summary_json(summary: dict[str, ParamSummary], path) -> None:
    write_json(path, summary_to_dict(summary))
