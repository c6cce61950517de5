"""Compare the jump sampler and the fitted band of two source trees, in one
process: their times, and their outputs in law.

Each tree's src/gbmjump is loaded under a name of its own (gbmjump_parent,
gbmjump_change), so both run in this process. Each tree's run_jump_gibbs fits
each input once at each seed of the range, with 5,000 kept draws after 1,000
burn-in, as `gbmjump fit` does; the parent fits first at even seeds and the
change at odd ones. The inputs (step_shapes) are the bundled data on
trading-day steps (dt = 1/252, every step of one length), calendar-day steps
(days between closes / 365, so weekends and holidays are longer steps) and
all-distinct steps (each trading-day step times its own uniform(0.8, 1.25)
draw, seed 17), and its first 50 increments on trading-day steps, where the
move is off.

Per input it prints, first, µs per sweep by the thread's CPU time and by wall
time (the mode search before sweep 0 included): each side's median and
quartiles, the ratio of the change's median to the parent's, in how many fits
the change was faster, and whether every pair of fits gave equal chains
(draws, jump_probs and acceptance rate). Then a table of each parameter's
posterior mean and ESS (perfbench/ess.py, Geyer's initial monotone sequence)
and the move's acceptance rate (- when the move is off): each quantity's mean
over the seeds on each side, then z, the change's mean minus the parent's over
the standard error of that difference, from the spread across seeds on each
side. The two trees' chains at one seed are taken as independent; they share
their random streams, so when the samplers differ little they stay close, z
sits near 0 and the standard error, which ignores that pairing, is
conservative.

Last, the bands: one jump chain, the parent's fit of the trading-day input
at the first seed, and each tree's fitted_band of it from the first bundled
price at 20 band seeds per seed of the range (20*FIRST to 20*LAST + 19; 200
at the default range), the parent first at even band seeds. It prints ms
per band by process CPU time (all threads) and by wall time, as above, and
then the same table of lower, mean and upper at the steps of BAND_STEPS and
of the mean width over steps 1 to n, with z over the band seeds.

Usage: python3 scripts/compare_trees.py PARENT_DIR CHANGE_DIR [--seeds FIRST-LAST]
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "sp500_synthetic.csv"
PARAMS = ("mu", "sigma", "mu_z", "sigma_z", "lambda_star")
N_KEEP, BURN_IN = 5000, 1000
SIDES = ("parent", "change")
BAND_STEPS = (1, 10, 100, 500, 1000, 1510)
BANDS_PER_SEED = 20


def _load(tree: Path, name: str):
    """tree's src/gbmjump, imported as the package name."""
    package = tree.resolve() / "src" / "gbmjump"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def step_shapes(pkg) -> dict:
    """Input name -> (d, dt) of the bundled data, read by the package pkg."""
    series = pkg.load_price_series(DATA)
    trading = pkg.to_increments(series)
    days = np.array([(b - a).days for a, b in zip(series.dates, series.dates[1:])])
    distinct = trading.dt * np.random.default_rng(17).uniform(0.8, 1.25, trading.n)
    return {"trading": (trading.d, trading.dt), "calendar": (trading.d, days / 365.0),
            "distinct": (trading.d, distinct), "first 50": (trading.d[:50], trading.dt[:50])}


def chain_bytes(chain) -> bytes:
    """A chain's draws, its jump_probs when it has them, and its acceptance rate."""
    probs = b"" if chain.jump_probs is None else chain.jump_probs.tobytes()
    return chain.draws.tobytes() + probs + repr(chain.meta.accept_rate).encode()


def _fit(pkg, d, dt, seed: int, n_keep: int, burn_in: int):
    """(thread CPU µs per sweep, wall µs per sweep, chain_bytes, the quantities)
    of the package pkg's jump chain on (d, dt): the acceptance rate, and each
    parameter's posterior mean and ESS."""
    from ess import ess

    inc = pkg.IncrementSeries(d=d, dt=dt)
    cpu, wall = time.thread_time(), time.perf_counter()
    chain = pkg.run_jump_gibbs(inc, n_keep=n_keep, burn_in=burn_in, seed=seed)
    cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
    row = {"accept_rate": chain.meta.accept_rate}
    for name in PARAMS:
        draws = chain.column(name)
        row[f"mean {name}"], row[f"ess {name}"] = float(draws.mean()), float(ess(draws))
    sweeps = n_keep + burn_in
    return 1e6 * cpu / sweeps, 1e6 * wall / sweeps, chain_bytes(chain), row


def _band(pkg, chain, inc, x0: float, seed: int):
    """(process CPU ms, wall ms, band bytes, the quantities) of the package
    pkg's fitted band of chain at band seed seed: lower, mean and upper at
    each step of BAND_STEPS, and the mean width."""
    cpu, wall = time.process_time(), time.perf_counter()
    band = pkg.fitted_band(chain, inc, x0, rng=seed)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    row = {f"{name} step {step}": float(getattr(band, name)[step])
           for step in BAND_STEPS for name in ("lower", "mean", "upper")}
    row["mean width"] = float(np.mean(band.width[1:]))
    raw = b"".join(getattr(band, a).tobytes() for a in ("grid", "lower", "mean", "upper"))
    return 1e3 * cpu, 1e3 * wall, raw, row


def _mean_var(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    return mean, sum((v - mean) ** 2 for v in values) / max(len(values) - 1, 1)


def _z(parent: list[float], change: list[float]) -> float:
    (m0, v0), (m1, v1) = _mean_var(parent), _mean_var(change)
    se = math.sqrt(v0 / len(parent) + v1 / len(change))
    return (m1 - m0) / se if se > 0.0 else (0.0 if m1 == m0 else math.copysign(math.inf, m1 - m0))


def _print_times(fits: dict, equal: bool, clock: str = "thread CPU") -> None:
    cpu, wall = ({side: np.array([fit[k] for fit in fits[side]]) for side in SIDES} for k in (0, 1))
    print(f"{'side':<20}{clock:>26}{'wall':>26}{'equal':>7}")
    for side in SIDES:
        cells = [f"{np.median(t[side]):8.1f} [{np.quantile(t[side], 0.25):6.1f}, "
                 f"{np.quantile(t[side], 0.75):6.1f}]" for t in (cpu, wall)]
        print(f"{side:<20}{cells[0]:>26}{cells[1]:>26}"
              f"{('yes' if equal else 'NO') if side == 'change' else '':>7}")
    cells = [f"{np.median(t['change']) / np.median(t['parent']):.3f}, faster in "
             f"{int(np.sum(t['change'] < t['parent']))}/{len(t['change'])}" for t in (cpu, wall)]
    print(f"{'ratio':<20}{cells[0]:>26}{cells[1]:>26}")


def _print_law(fits: dict) -> None:
    print(f"{'quantity':<20}{'parent':>14}{'change':>14}{'z':>9}")
    for key in fits["parent"][0][3]:
        parent, change = ([fit[3][key] for fit in fits[side]] for side in SIDES)
        cells = [f"{'-' if None in v else f'{_mean_var(v)[0]:.6g}':>14}" for v in (parent, change)]
        z = "" if None in parent + change else f"{_z(parent, change):>+9.2f}"
        print(f"{key:<20}{cells[0]}{cells[1]}{z}")


def _compare_bands(pkgs: dict, first: int, last: int) -> None:
    """Time and compare both trees' fitted bands of the parent's jump chain
    at seed first, at the band seeds of the range first-last."""
    seeds = range(BANDS_PER_SEED * first, BANDS_PER_SEED * (last + 1))
    parent = pkgs["parent"]
    d, dt = step_shapes(parent)["trading"]
    inc = parent.IncrementSeries(d=d, dt=dt)
    chain = parent.run_jump_gibbs(inc, n_keep=N_KEEP, burn_in=BURN_IN, seed=first)
    x0 = float(parent.load_price_series(DATA).prices[0])
    bands, equal = {side: [] for side in SIDES}, True
    for seed in seeds:
        for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
            bands[side].append(_band(pkgs[side], chain, inc, x0, seed))
        equal &= bands["parent"][-1][2] == bands["change"][-1][2]
    print(f"\nfitted bands, band seeds {seeds[0]}-{seeds[-1]}; ms per band, median [q1, q3]")
    _print_times(bands, equal, "process CPU")
    _print_law(bands)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="1-10", help="FIRST-LAST, inclusive (default 1-10)")
    args = parser.parse_args(argv)
    try:
        first, last = map(int, args.seeds.split("-"))
    except ValueError:
        parser.error("seeds must be FIRST-LAST")
    if not 0 <= first <= last:
        parser.error("need 0 <= FIRST <= LAST")
    sys.path.append(str(ROOT / "perfbench"))  # for ess
    pkgs = {side: _load(tree, f"gbmjump_{side}")
            for side, tree in zip(SIDES, (args.parent, args.change))}
    print(f"seeds {first}-{last}, {N_KEEP} kept draws after {BURN_IN} burn-in; "
          "µs per sweep, median [q1, q3]")
    for side, pkg in pkgs.items():
        print(f"{side}: {Path(pkg.__file__).parent}")
    for name, (d, dt) in step_shapes(pkgs["parent"]).items():
        fits, equal = {side: [] for side in SIDES}, True
        for seed in range(first, last + 1):
            for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                fits[side].append(_fit(pkgs[side], d, dt, seed, N_KEEP, BURN_IN))
            equal &= fits["parent"][-1][2] == fits["change"][-1][2]
        print(f"\n{name} steps")
        _print_times(fits, equal)
        _print_law(fits)
        sys.stdout.flush()
    _compare_bands(pkgs, first, last)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
