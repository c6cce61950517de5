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
    """Mean, SD (n-1 divisor) and linear-interpolation quantiles of one chain."""
    x = np.asarray(draws, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d sample of at least two draws")
    q = np.quantile(x, [0.025, 0.5, 0.975])
    return ParamSummary(
        mean=float(x.mean()),
        sd=float(x.std(ddof=1)),
        q2_5=float(q[0]),
        q50=float(q[1]),
        q97_5=float(q[2]),
    )


def summarize(chain: PosteriorChain) -> dict[str, ParamSummary]:
    """ParamSummary of each reporting column of the chain's model, in order:
    (mu, sigma) for gbm, plus (mu_z, sigma_z, lambda_star) for gbm-jump."""
    params = CHAIN_COLUMNS[chain.meta.model].reported
    return {p: summarize_draws(chain.column(p)) for p in params}


def pacf(series, max_lag: int) -> np.ndarray:
    """Partial autocorrelations at lags 1..max_lag via Durbin-Levinson.

    Runs the standard recursion on sample autocorrelations (autocovariances with
    the 1/n divisor). Requires len(series) > max_lag + 1 and nonzero variance.
    """
    x = np.asarray(series, dtype=float)
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
    out = np.empty(max_lag)
    phi_prev = np.empty(max_lag)  # phi_{k-1, 1..k-1}
    for k in range(1, max_lag + 1):
        if k == 1:
            phi_kk = rho[1]
        else:
            head = phi_prev[: k - 1]
            num = rho[k] - np.dot(head, rho[k - 1 : 0 : -1])
            den = 1.0 - np.dot(head, rho[1:k])
            phi_kk = num / den
        out[k - 1] = phi_kk
        if k > 1:
            phi_prev[: k - 1] = phi_prev[: k - 1] - phi_kk * phi_prev[k - 2 :: -1]
        phi_prev[k - 1] = phi_kk
    return out


def summary_to_dict(summary: dict[str, ParamSummary]) -> dict:
    return {name: asdict(row) for name, row in summary.items()}


def write_summary_csv(summary: dict[str, ParamSummary], path) -> None:
    columns = {"parameter": list(summary)}
    for f in fields(ParamSummary):
        columns[f.name] = [getattr(row, f.name) for row in summary.values()]
    write_csv(path, columns)


def write_summary_json(summary: dict[str, ParamSummary], path) -> None:
    write_json(path, summary_to_dict(summary))
