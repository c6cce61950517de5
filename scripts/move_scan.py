"""Scan the jump sampler's independence move on synthetic jump-diffusion
series: first the length of the sweep cycle, then the proposal's t degrees
of freedom and covariance scale.

Each scan is a grid of values of jumps' module constants (GRIDS); the
constants it does not name keep today's values, and all are restored when
the scan ends, even if a fit raises. Each series below is drawn once per seed
and fitted at every point of a grid back to back with the same chain seed,
in an order rotated by the fit's index, so the points see the same data and
the same random stream, and a slow spell of the machine lands on every point
alike. Each fit runs through scripts/compare_trees.py's _fit, which records
the move's acceptance rate, the thread CPU time of run_jump_gibbs and the ESS
of each parameter by perfbench/ess.py (Geyer's initial monotone sequence).

Cycle length: the sweeps run in cycles of m, the move alone in the first
m - 1 and the whole sweep in the last (m = 1 runs the whole sweep every
time). Rule, fixed before the scan: the chosen m has the highest geometric
mean, over every (series, seed) fit, of the smallest of the five
per-parameter ESS per second of thread CPU time (min_ess_per_s).

Proposal: for every grid point (df, scale) the proposal is a t with df
degrees of freedom and scale times the Laplace covariance. Rule, fixed
before the scan: the chosen point has the highest geometric mean, over every
(series, seed) fit, of the smallest of the five per-parameter ESS (min_ess).

The bundled data, on trading-day steps, are fitted at the same points and
seeds only as a check; they choose nothing.

Usage: python3 scripts/move_scan.py

Per scan it prints one row per point for the synthetic series (mean
acceptance, the geometric mean over seeds of the rule's score per shape and
over all fits, that of min-ESS, and the median thread CPU µs per sweep; the
chosen row marked *), then one row per point for the bundled data (mean
acceptance, mean ESS per parameter, mean min-ESS per second and the median
µs per sweep over the seeds).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gbmjump  # noqa: E402
from compare_trees import PARAMS, _fit, step_shapes  # noqa: E402
from gbmjump import JumpParams, jumps, simulate_jump_increments  # noqa: E402

DT = 1.0 / 252.0
# (n, lambda_star, annual sigma, mu_z, sigma_z): rare large jumps to frequent
# small ones, over the lengths at which the move runs (n >= 250)
SHAPES = (
    (250, 0.60, 0.10, 0.000, 0.010),
    (500, 0.05, 0.15, -0.010, 0.030),
    (1000, 0.35, 0.09, -0.002, 0.017),
    (1500, 0.15, 0.20, 0.005, 0.025),
)
# seeds 1..SEEDS per series; KEEP kept draws after BURN_IN sweeps per fit
SEEDS, KEEP, BURN_IN = 10, 3000, 500


def synthetic(shape_index: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(d, dt) of the series of shape SHAPES[shape_index] drawn at seed."""
    n, lam, sigma, mu_z, sigma_z = SHAPES[shape_index]
    params = JumpParams(0.1, sigma * sigma, mu_z, sigma_z * sigma_z, lam)
    gen = np.random.default_rng(np.random.SeedSequence([seed, shape_index]))
    return simulate_jump_increments(params, DT, n, gen), np.full(n, DT)


def min_ess(fit) -> float:
    """The smallest per-parameter ESS of one of _fit's results."""
    return min(fit[3][f"ess {name}"] for name in PARAMS)


def min_ess_per_s(fit) -> float:
    """min_ess per second of the fit's thread CPU time."""
    return min_ess(fit) / (fit[0] * 1e-6 * (KEEP + BURN_IN))


# scan -> (its rule's score of one fit, the constants of jumps at each point)
GRIDS = {
    "cycle length": (min_ess_per_s, [{"_MOVES": m} for m in (1, 2, 3, 5)]),
    "proposal": (min_ess, [{"_T_DF": df, "_T_SCALE": scale}
                           for df in (5.0, 10.0, 20.0, 30.0, 50.0) for scale in (1.0, 1.1, 1.2)]),
}


def gm(values) -> float:
    """Geometric mean."""
    return math.exp(np.mean(np.log(values)))


def accept(fits) -> float:
    """Mean acceptance rate of fits (nan if the move was off in any)."""
    return float(np.mean([math.nan if f[3]["accept_rate"] is None else f[3]["accept_rate"]
                          for f in fits]))


def scan(name: str, rule, points: list[dict], series: list, bundled) -> None:
    """Fit each (d, dt, seed) of series, SEEDS per shape, and the bundled
    (d, dt) at each seed, at every point, and print the scan's two tables."""
    items = series + [(*bundled, seed) for seed in range(1, SEEDS + 1)]
    saved = {key: getattr(jumps, key) for key in points[0]}
    fits = [[None] * len(items) for _ in points]
    try:
        for k, (d, dt, seed) in enumerate(items):
            for j in ((k + i) % len(points) for i in range(len(points))):
                for key, value in points[j].items():
                    setattr(jumps, key, value)
                fits[j][k] = _fit(gbmjump, d, dt, seed, KEEP, BURN_IN)
    finally:
        for key, value in saved.items():
            setattr(jumps, key, value)
    keys = "".join(f"{key:>9}" for key in points[0])
    labels = ["".join(f"{v:9g}" for v in point.values()) for point in points]
    shapes = len(series) // SEEDS
    scores = [np.array([rule(f) for f in row[:len(series)]]) for row in fits]
    best = max(range(len(points)), key=lambda j: gm(scores[j]))
    print(f"{name}: {shapes} shapes x {SEEDS} seeds, {KEEP} kept draws after {BURN_IN} "
          f"burn-in, points interleaved per fit; rule: geometric mean of {rule.__name__}")
    print(f"  {keys}  accept" + "".join(f"{f'shape {i}':>9}" for i in range(shapes))
          + "      all  min-ESS  µs/sweep")
    for j, label in enumerate(labels):
        group = fits[j][:len(series)]
        cells = "".join(f"{gm(row):9.0f}" for row in scores[j].reshape(shapes, SEEDS))
        print(f"{'*' if j == best else ' '} {label}  {accept(group):6.3f}{cells}"
              f"{gm(scores[j]):9.0f}{gm([min_ess(f) for f in group]):9.0f}"
              f"{np.median([f[0] for f in group]):10.1f}")
    params = "".join(f"{p:>12}" for p in PARAMS)
    print(f"bundled data (check only): {len(bundled[0])} increments x {SEEDS} seeds; "
          f"means over seeds\n  {keys}  accept{params}  min-ESS/s  µs/sweep")
    for j, label in enumerate(labels):
        group = fits[j][len(series):]
        cells = "".join(f"{np.mean([f[3][f'ess {p}'] for f in group]):12.0f}" for p in PARAMS)
        print(f"  {label}  {accept(group):6.3f}{cells}"
              f"{np.mean([min_ess_per_s(f) for f in group]):11.0f}"
              f"{np.median([f[0] for f in group]):10.1f}")
    print()


def main() -> int:
    series = [(*synthetic(i, s), s) for i in range(len(SHAPES)) for s in range(1, SEEDS + 1)]
    bundled = step_shapes(gbmjump)["trading"]
    for name, (rule, points) in GRIDS.items():
        scan(name, rule, points, series, bundled)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
