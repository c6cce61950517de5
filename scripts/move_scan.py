"""Scan the jump sampler's independence move on synthetic jump-diffusion
series: first the length of the sweep cycle, then the proposal's t degrees
of freedom and covariance scale.

Each series below is drawn once per seed and fitted at every scanned point
with the same chain seed, so the points see the same data and the same
random stream. Per fit the scan records the move's acceptance rate, the
seconds run_jump_gibbs takes and the ESS of each reported parameter by
perfbench/ess.py (Geyer's initial monotone sequence).

Cycle length: with the proposal at today's t (_T_DF, _T_SCALE), the sweeps
run in cycles of m in MOVES, the move alone in the first m - 1 and the whole
sweep in the last (m = 1 runs the whole sweep every time). Rule, fixed
before the scan: the chosen m has the highest geometric mean, over every
(series, seed) fit, of the smallest of the five per-parameter ESS per
second of sampler time. Each (series, seed) is fitted at every length back
to back, in an order rotated by the fit's index, so a slow spell of the
machine lands on every length alike.

Proposal: at today's cycle length, for every grid point (df, scale) the
proposal is a t with df degrees of freedom and scale times the Laplace
covariance. Rule, fixed before the scan: the chosen point has the highest
geometric mean, over every (series, seed) fit, of the smallest of the five
per-parameter ESS.

The bundled data are fitted only as a check; they choose nothing.

Usage: python3 scripts/move_scan.py

It prints one row per cycle length (mean acceptance, the geometric mean of
min-ESS per second per shape and over all fits, that of min-ESS and the
median seconds of one fit, the chosen row marked *), one row per grid point
for the synthetic series (mean acceptance, geometric-mean ESS per parameter,
and the rule's score, the chosen row marked *), and then the same rows on
the bundled data (means over the same seeds).
"""

from __future__ import annotations

import math
import sys
import time
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
MOVES = (1, 2, 3, 5)
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


def fit(inc: IncrementSeries, seed: int, df=None, scale=None, moves=None):
    """(acceptance, ESS per parameter, seconds) of one chain with the move's
    proposal set to a t with df degrees of freedom and scale times the
    Laplace covariance, and the sweeps in cycles of moves; today's constant
    for each one not given."""
    saved = jumps._T_DF, jumps._T_SCALE, jumps._MOVES
    jumps._T_DF, jumps._T_SCALE, jumps._MOVES = (
        v if v is not None else old for v, old in zip((df, scale, moves), saved))
    try:
        start = time.perf_counter()
        chain = run_jump_gibbs(inc, n_keep=KEEP, burn_in=BURN_IN, seed=seed)
        seconds = time.perf_counter() - start
    finally:
        jumps._T_DF, jumps._T_SCALE, jumps._MOVES = saved
    rate = chain.meta.accept_rate
    return (math.nan if rate is None else rate), [ess(chain.column(p)) for p in PARAMS], seconds


def gm(values) -> float:
    """Geometric mean."""
    return math.exp(np.mean(np.log(values)))


def interleaved(items, fit_one):
    """{m: [fit_one(item, m) for item in items]} for m in MOVES, fitted with
    every length back to back for each item, in an order rotated by the
    item's index, so that a slow spell of the machine lands on every length
    alike and not on the one whose fits it catches."""
    fits = {m: [None] * len(items) for m in MOVES}
    for k, item in enumerate(items):
        for m in MOVES[k % len(MOVES):] + MOVES[:k % len(MOVES)]:
            fits[m][k] = fit_one(item, m)
    return fits


def scan_cycles(series, bundled, seeds) -> None:
    """The cycle-length scan and its bundled-data check."""
    shapes = "  ".join(f"{f'shape {i}':>8}" for i in range(len(SHAPES)))
    rows = []
    for m, fits in interleaved(series, lambda item, m: fit(*item, moves=m)).items():
        min_ess = np.array([min(e) for _, e, _ in fits])
        seconds = [t for *_, t in fits]
        per_s = (min_ess / seconds).reshape(len(SHAPES), -1)
        rows.append((m, np.nanmean([r for r, _, _ in fits]), [gm(row) for row in per_s],
                     gm(per_s), gm(min_ess), np.median(seconds)))
    best = max(range(len(rows)), key=lambda i: rows[i][3])
    print(f"cycle length: {len(SHAPES)} shapes x {SEEDS} seeds, {KEEP} kept draws, "
          f"burn-in {BURN_IN}, t{jumps._T_DF:.0f} x {jumps._T_SCALE}, lengths interleaved "
          f"per fit; geometric means over seeds of min-ESS per second of sampler time")
    print(f"  {'m':>2} {'accept':>6}  {shapes}  {'all /s':>8}  {'min-ESS':>8}  {'median s':>8}")
    for i, (m, rate, per_shape, score, min_gm, median_s) in enumerate(rows):
        cells = "  ".join(f"{v:8.0f}" for v in per_shape)
        print(f"{'*' if i == best else ' '} {m:2d} {rate:6.3f}  {cells}  {score:8.0f}  "
              f"{min_gm:8.0f}  {median_s:8.3f}")

    print(f"\nbundled data (check only): {bundled.n} increments x {SEEDS} seeds, lengths "
          f"interleaved per seed; means over seeds")
    print(f"  {'m':>2} {'accept':>6}  {'lambda_star ESS':>15}  {'min-ESS /s':>10}  {'median s':>8}")
    for m, fits in interleaved(seeds, lambda s, m: fit(bundled, s, moves=m)).items():
        lam = np.mean([e[0] for _, e, _ in fits])
        per_s = np.mean([min(e) / t for _, e, t in fits])
        median_s = np.median([t for *_, t in fits])
        print(f"  {m:2d} {np.mean([r for r, _, _ in fits]):6.3f}  {lam:15.0f}  {per_s:10.0f}  "
              f"{median_s:8.3f}")


def main() -> int:
    seeds = range(1, SEEDS + 1)
    series = [(synthetic(i, s), s) for i in range(len(SHAPES)) for s in seeds]
    bundled = to_increments(load_price_series(BUNDLED))
    scan_cycles(series, bundled, seeds)

    grid = [(df, scale) for df in DFS for scale in SCALES]
    header = "  ".join(f"{p:>11}" for p in PARAMS)
    rows = []
    for df, scale in grid:
        fits = [fit(inc, s, df, scale) for inc, s in series]
        ess_table = np.array([e for _, e, _ in fits])
        rows.append((df, scale, np.nanmean([r for r, _, _ in fits]),
                     np.exp(np.log(ess_table).mean(axis=0)), gm(ess_table.min(axis=1))))
    best = max(range(len(rows)), key=lambda i: rows[i][-1])
    print(f"\nproposal: {len(SHAPES)} shapes x {SEEDS} seeds, {KEEP} kept draws, "
          f"burn-in {BURN_IN}, cycles of {jumps._MOVES}; ESS are geometric means over fits")
    print(f"  {'df':>4} {'scale':>5} {'accept':>6}  {header}  {'min-ESS gm':>10}")
    for i, (df, scale, rate, ess_gm, score) in enumerate(rows):
        cells = "  ".join(f"{v:11.0f}" for v in ess_gm)
        print(f"{'*' if i == best else ' '} {df:4.0f} {scale:5.1f} {rate:6.3f}  {cells}  {score:10.0f}")

    print(f"\nbundled data (check only): {bundled.n} increments x {SEEDS} seeds, "
          f"{KEEP} kept draws; mean ESS over seeds")
    print(f"  {'df':>4} {'scale':>5} {'accept':>6}  {header}")
    for df, scale in grid:
        fits = [fit(bundled, s, df, scale) for s in seeds]
        cells = "  ".join(f"{v:11.0f}" for v in np.mean([e for _, e, _ in fits], axis=0))
        print(f"  {df:4.0f} {scale:5.1f} {np.mean([r for r, _, _ in fits]):6.3f}  {cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
