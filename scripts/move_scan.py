"""Scan the jump sampler's independence-move proposal over a grid of t
degrees of freedom and covariance scales, on synthetic jump-diffusion series.

For every grid point (df, scale) the move's proposal is a t with df degrees
of freedom and scale times the Laplace covariance. Each series below is drawn
once per seed and fitted at every grid point with the same chain seed, so the
grid points see the same data and the same random stream. Per fit it records
the move's acceptance rate and the ESS of each reported parameter by
perfbench/ess.py (Geyer's initial monotone sequence).

Rule, fixed before the scan: the chosen point has the highest geometric
mean, over every (series, seed) fit, of the smallest of the five
per-parameter ESS. The bundled data are fitted only as a check; they choose
nothing.

Usage: python3 scripts/move_scan.py

It prints one row per grid point for the synthetic series (mean acceptance,
geometric-mean ESS per parameter, and the rule's score, the chosen row
marked *), then one row per grid point for the bundled data (mean acceptance
and mean ESS per parameter over the same seeds).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ess import ess  # noqa: E402
from gbmjump import (  # noqa: E402
    IncrementSeries, JumpParams, jumps, load_price_series, run_jump_gibbs,
    simulate_jump_increments, to_increments,
)

DFS = (5.0, 10.0, 20.0, 30.0, 50.0)
SCALES = (1.0, 1.1, 1.2)
PARAMS = ("lambda_star", "sigma", "mu", "mu_z", "sigma_z")
DT = 1.0 / 252.0
# (n, lambda_star, annual sigma, mu_z, sigma_z): rare large jumps to frequent
# small ones, over the lengths at which the move runs (n >= 250)
SHAPES = (
    (250, 0.60, 0.10, 0.000, 0.010),
    (500, 0.05, 0.15, -0.010, 0.030),
    (1000, 0.35, 0.09, -0.002, 0.017),
    (1500, 0.15, 0.20, 0.005, 0.025),
)
BUNDLED = ROOT / "data" / "sp500_synthetic.csv"
# seeds 1..SEEDS per series; KEEP kept draws after BURN_IN sweeps per fit
SEEDS, KEEP, BURN_IN = 10, 3000, 500


def synthetic(shape_index: int, seed: int) -> IncrementSeries:
    n, lam, sigma, mu_z, sigma_z = SHAPES[shape_index]
    params = JumpParams(0.1, sigma * sigma, mu_z, sigma_z * sigma_z, lam)
    gen = np.random.default_rng(np.random.SeedSequence([seed, shape_index]))
    return IncrementSeries(d=simulate_jump_increments(params, DT, n, gen), dt=np.full(n, DT))


def fit(inc: IncrementSeries, df: float, scale: float, seed: int):
    """(acceptance, ESS per parameter) of one chain with the move's proposal
    set to a t with df degrees of freedom and scale times the Laplace
    covariance."""
    saved = jumps._T_DF, jumps._T_SCALE
    jumps._T_DF, jumps._T_SCALE = df, scale
    try:
        chain = run_jump_gibbs(inc, n_keep=KEEP, burn_in=BURN_IN, seed=seed)
    finally:
        jumps._T_DF, jumps._T_SCALE = saved
    rate = chain.meta.accept_rate
    return (math.nan if rate is None else rate), [ess(chain.column(p)) for p in PARAMS]


def main() -> int:
    seeds = range(1, SEEDS + 1)
    series = [(synthetic(i, s), s) for i in range(len(SHAPES)) for s in seeds]
    bundled = to_increments(load_price_series(BUNDLED))
    grid = [(df, scale) for df in DFS for scale in SCALES]
    header = "  ".join(f"{p:>11}" for p in PARAMS)

    rows = []
    for df, scale in grid:
        fits = [fit(inc, df, scale, s) for inc, s in series]
        ess_table = np.array([e for _, e in fits])
        score = math.exp(np.mean(np.log(ess_table.min(axis=1))))
        rows.append((df, scale, np.nanmean([r for r, _ in fits]),
                     np.exp(np.log(ess_table).mean(axis=0)), score))
    best = max(range(len(rows)), key=lambda i: rows[i][-1])
    print(f"synthetic: {len(SHAPES)} shapes x {SEEDS} seeds, {KEEP} kept draws, "
          f"burn-in {BURN_IN}; ESS are geometric means over fits")
    print(f"  {'df':>4} {'scale':>5} {'accept':>6}  {header}  {'min-ESS gm':>10}")
    for i, (df, scale, rate, ess_gm, score) in enumerate(rows):
        cells = "  ".join(f"{v:11.0f}" for v in ess_gm)
        print(f"{'*' if i == best else ' '} {df:4.0f} {scale:5.1f} {rate:6.3f}  {cells}  {score:10.0f}")

    print(f"\nbundled data (check only): {bundled.n} increments x {SEEDS} seeds, "
          f"{KEEP} kept draws; mean ESS over seeds")
    print(f"  {'df':>4} {'scale':>5} {'accept':>6}  {header}")
    for df, scale in grid:
        fits = [fit(bundled, df, scale, s) for s in seeds]
        cells = "  ".join(f"{v:11.0f}" for v in np.mean([e for _, e in fits], axis=0))
        print(f"  {df:4.0f} {scale:5.1f} {np.mean([r for r, _ in fits]):6.3f}  {cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
