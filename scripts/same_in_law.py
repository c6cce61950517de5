"""Compare the jump sampler of two source trees in law, over a range of seeds.

For each tree, one subprocess with PYTHONPATH=<tree>/src fits the bundled data
with run_jump_gibbs (5,000 kept draws after 1,000 burn-in) at each seed of the
range, on each step shape: trading-day steps (dt = 1/252, every step of one
length), calendar-day steps (dt = days between closes / 365, so weekends and
holidays are longer steps) and all-distinct steps (each trading-day step
times its own uniform(0.8, 1.25) draw, seed 17). From each chain it takes
each parameter's posterior mean and ESS (perfbench/ess.py, Geyer's initial
monotone sequence) and the move's acceptance rate. One table per step shape prints each
quantity's mean over the seeds on each side, then z: the change's mean minus
the parent's over the standard error of that difference, from the spread
across seeds on each side. The two trees'
chains at one seed are taken as independent; they share their random streams,
so when the samplers differ little they stay close, z sits near 0 and the
standard error, which ignores that pairing, is conservative.

Usage: python3 scripts/same_in_law.py PARENT_DIR CHANGE_DIR [--seeds FIRST-LAST]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "sp500_synthetic.csv"
PARAMS = ("mu", "sigma", "mu_z", "sigma_z", "lambda_star")
N_KEEP, BURN_IN = 5000, 1000


def _fit(first: int, last: int) -> None:
    """Print one JSON line per seed from the gbmjump on the path."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from ess import ess

    import numpy as np

    import gbmjump
    from gbmjump.series import IncrementSeries, load_price_series, to_increments

    print(json.dumps({"package": str(Path(gbmjump.__file__).parent)}), flush=True)
    series = load_price_series(DATA)
    trading = to_increments(series)
    days = [(b - a).days for a, b in zip(series.dates, series.dates[1:])]
    distinct = trading.dt * np.random.default_rng(17).uniform(0.8, 1.25, trading.n)
    shapes = {"trading": trading,
              "calendar": IncrementSeries(d=trading.d, dt=[day / 365.0 for day in days]),
              "distinct": IncrementSeries(d=trading.d, dt=distinct)}
    for steps, inc in shapes.items():
        for seed in range(first, last + 1):
            chain = gbmjump.run_jump_gibbs(inc, n_keep=N_KEEP, burn_in=BURN_IN, seed=seed)
            row = {"steps": steps, "accept_rate": chain.meta.accept_rate}
            for name in PARAMS:
                draws = chain.column(name)
                row[f"mean {name}"], row[f"ess {name}"] = float(draws.mean()), float(ess(draws))
            print(json.dumps(row), flush=True)


def _side(tree: Path, seeds: str) -> tuple[str, list[dict]]:
    """(the package the subprocess imported, its rows) for one tree."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    out = subprocess.run([sys.executable, __file__, "--fit", seeds], env=env, check=True,
                         capture_output=True, text=True).stdout
    first, *rows = map(json.loads, out.splitlines())
    return first["package"], rows


def _mean_var(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    return mean, sum((v - mean) ** 2 for v in values) / max(len(values) - 1, 1)


def _z(parent: list[float], change: list[float]) -> float:
    (m0, v0), (m1, v1) = _mean_var(parent), _mean_var(change)
    se = math.sqrt(v0 / len(parent) + v1 / len(change))
    return (m1 - m0) / se if se > 0.0 else (0.0 if m1 == m0 else math.copysign(math.inf, m1 - m0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--seeds", default="1-10", help="FIRST-LAST, inclusive (default 1-10)")
    parser.add_argument("--fit", metavar="FIRST-LAST", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        first, last = map(int, (args.fit or args.seeds).split("-"))
    except ValueError:
        parser.error("seeds must be FIRST-LAST")
    if args.fit:
        _fit(first, last)
        return 0
    if args.parent is None or args.change is None or not 0 <= first <= last:
        parser.error("need PARENT_DIR, CHANGE_DIR and FIRST <= LAST")
    (pkg0, rows0), (pkg1, rows1) = _side(args.parent, args.seeds), _side(args.change, args.seeds)
    print(f"seeds {first}-{last}, {N_KEEP} kept draws after {BURN_IN} burn-in")
    print(f"parent: {pkg0}\nchange: {pkg1}")
    for steps in dict.fromkeys(r["steps"] for r in rows0):
        side0, side1 = ([r for r in rows if r["steps"] == steps] for rows in (rows0, rows1))
        print(f"\n{steps} steps")
        print(f"{'quantity':<20}{'parent':>14}{'change':>14}{'z':>9}")
        for key in list(side0[0])[1:]:
            parent, change = [r[key] for r in side0], [r[key] for r in side1]
            print(f"{key:<20}{_mean_var(parent)[0]:>14.6g}{_mean_var(change)[0]:>14.6g}"
                  f"{_z(parent, change):>+9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
