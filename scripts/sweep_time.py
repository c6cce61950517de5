"""Time the jump sampler's sweep in two source trees, fit by fit in one process.

Each tree's src/gbmjump is loaded under a name of its own (gbmjump_parent,
gbmjump_change), so both run in this process. Each tree's run_jump_gibbs
fits each input N times (--fits), the two trees in alternation (the parent
first in even fits, the change first in odd ones), at seed 1, 2, ..., with
5,000 kept draws after 1,000 burn-in, as `gbmjump fit` does. A fit's time, over its
sweeps, is its time per sweep; the mode search before sweep 0 is included.
The inputs are the bundled data on trading-day steps (dt = 1/252),
calendar-day steps (days between closes / 365) and all-distinct steps (each
trading-day step times its own uniform(0.8, 1.25) draw, seed 17), as in
scripts/same_in_law.py, and its first 50 increments on trading-day steps,
where the move is off.

For each input and side it prints the median and quartiles of µs per sweep,
by the thread's CPU time and by wall time, the ratio of the change's median
to the parent's, and in how many fits the change was faster. The last
column says whether every pair of fits gave equal chains (draws, jump_probs
and acceptance rate).

Usage: python3 scripts/sweep_time.py PARENT_DIR CHANGE_DIR [--fits N]
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent.parent / "data" / "sp500_synthetic.csv"
N_KEEP, BURN_IN = 5000, 1000
SIDES = ("parent", "change")


def _load(tree: Path, name: str):
    """tree's src/gbmjump, imported as the package name."""
    package = tree.resolve() / "src" / "gbmjump"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _inputs(pkg) -> dict:
    """The timed inputs, as pkg's IncrementSeries."""
    series = pkg.load_price_series(DATA)
    trading = pkg.to_increments(series)
    days = np.array([(b - a).days for a, b in zip(series.dates, series.dates[1:])])
    distinct = trading.dt * np.random.default_rng(17).uniform(0.8, 1.25, trading.n)
    return {
        "trading": trading,
        "calendar": pkg.IncrementSeries(d=trading.d, dt=days / 365.0),
        "distinct": pkg.IncrementSeries(d=trading.d, dt=distinct),
        "first 50": pkg.IncrementSeries(d=trading.d[:50], dt=trading.dt[:50]),
    }


def _fit(pkg, inc, seed: int):
    """(thread CPU µs per sweep, wall µs per sweep, the chain's bytes)."""
    cpu, wall = time.thread_time(), time.perf_counter()
    chain = pkg.run_jump_gibbs(inc, n_keep=N_KEEP, burn_in=BURN_IN, seed=seed)
    cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
    data = (chain.draws.tobytes() + chain.jump_probs.tobytes()
            + repr(chain.meta.accept_rate).encode())
    return 1e6 * cpu / (N_KEEP + BURN_IN), 1e6 * wall / (N_KEEP + BURN_IN), data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--fits", type=int, default=20,
                        help="fits per side and input (default 20)")
    args = parser.parse_args(argv)
    if args.fits < 1:
        parser.error("need --fits >= 1")
    pkgs = {side: _load(tree, f"gbmjump_{side}")
            for side, tree in zip(SIDES, (args.parent, args.change))}
    inputs = {side: _inputs(pkg) for side, pkg in pkgs.items()}
    for side, pkg in pkgs.items():
        print(f"{side}: {Path(pkg.__file__).parent}")
    print(f"{args.fits} fits per side and input, {N_KEEP} kept draws after {BURN_IN} burn-in; "
          "µs per sweep, median [q1, q3]")
    print(f"{'input':<10}{'side':<8}{'thread CPU':>26}{'wall':>26}{'equal':>7}")
    for name in inputs["parent"]:
        times = {side: [] for side in SIDES}
        equal = True
        for i in range(args.fits):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            fits = {side: _fit(pkgs[side], inputs[side][name], seed=i + 1) for side in order}
            equal &= fits["parent"][2] == fits["change"][2]
            for side in SIDES:
                times[side].append(fits[side][:2])
        cpu, wall = ({side: np.array(times[side])[:, k] for side in SIDES} for k in (0, 1))
        for side in SIDES:
            cells = [f"{np.median(t[side]):8.1f} [{np.quantile(t[side], 0.25):6.1f}, "
                     f"{np.quantile(t[side], 0.75):6.1f}]" for t in (cpu, wall)]
            print(f"{name:<10}{side:<8}{cells[0]:>26}{cells[1]:>26}"
                  f"{('yes' if equal else 'NO') if side == 'change' else '':>7}")
        cells = [f"{np.median(t['change']) / np.median(t['parent']):.3f}, faster in "
                 f"{int(np.sum(t['change'] < t['parent']))}/{args.fits}" for t in (cpu, wall)]
        print(f"{'':<10}{'ratio':<8}{cells[0]:>26}{cells[1]:>26}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
