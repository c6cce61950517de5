"""Run a fixed set of seeded gbmjump commands and library calls on the bundled
data and print one `sha256  name` line per output file, per command's stdout
and per library output.

The commands: mle as csv and as json, fit of gbm and of gbm-jump, forecast
--fitted-band from each fit's chain, and study with the holdout, all at seed
42 and default settings. Each command writes into its own folder of DIR and
paths print relative to DIR, so the listings of two checkouts compare line by
line. The fit times, the one thing that differs between runs, are hashed
without: study.json's `seconds` lines. study prints its times on stderr,
which is not hashed.

The library calls run in this process on this tree's src: run_gibbs and
run_jump_gibbs on the first n increments of the bundled data, for n in SIZES,
at each seed of SEEDS, N_KEEP draws kept after BURN_IN, on the trading-day,
calendar-day and all-distinct steps of scripts/compare_trees.py's
step_shapes. Each chain's line hashes its compare_trees.chain_bytes.
simulate_jump_increments draws n increments over the same steps at each seed,
for each n >= 1.

Usage: python3 scripts/seeded_outputs.py DIR
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

from compare_trees import _load, chain_bytes, step_shapes

ROOT = Path(__file__).resolve().parent.parent
TRAIN = str(ROOT / "data" / "sp500_synthetic.csv")
HOLDOUT = str(ROOT / "data" / "sp500_synthetic_holdout.csv")
SEED = ("--seed", "42")
# name -> subcommand and flags; each writes into DIR/name
RUNS = {
    "mle_csv": ("mle", "--input", TRAIN),
    "mle_json": ("mle", "--input", TRAIN, "--format", "json"),
    "fit_gbm": ("fit", "--input", TRAIN, "--model", "gbm", *SEED),
    "fit_gbm_jump": ("fit", "--input", TRAIN, "--model", "gbm-jump", *SEED),
    "forecast_gbm": ("forecast", "--input", TRAIN, "--model", "gbm", "--chain",
                     "fit_gbm/chain_gbm.csv", "--fitted-band", *SEED),
    "forecast_gbm_jump": ("forecast", "--input", TRAIN, "--model", "gbm-jump", "--chain",
                          "fit_gbm_jump/chain_gbm_jump.csv", "--fitted-band", *SEED),
    "study": ("study", "--input", TRAIN, "--holdout", HOLDOUT, *SEED),
}
_SECONDS = re.compile(rb' *"seconds": .*\n')
SIZES, SEEDS, N_KEEP, BURN_IN = (0, 1, 50, 250, 1510), (1, 2, 42), 300, 100


def _line(data: bytes, name: str) -> str:
    if name.endswith("/study.json"):
        data = _SECONDS.sub(b"", data)
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


def _library() -> None:
    """Print the library outputs' lines, from this tree's src/gbmjump."""
    pkg = _load(ROOT, "gbmjump")
    shapes = step_shapes(pkg)
    params = pkg.JumpParams(theta=0.12, sigma2=0.02, mu_z=-0.0023, sigma2_z=0.017**2,
                            lambda_star=0.36)
    for steps in ("trading", "calendar", "distinct"):
        d, dt = shapes[steps]
        for n in SIZES:
            inc = pkg.IncrementSeries(d=d[:n], dt=dt[:n])
            for seed in SEEDS:
                for model, run in (("gbm", pkg.run_gibbs), ("gbm-jump", pkg.run_jump_gibbs)):
                    chain = run(inc, n_keep=N_KEEP, burn_in=BURN_IN, seed=seed)
                    print(_line(chain_bytes(chain), f"library/{model}/{steps}/n{n}/seed{seed}"))
                if n:
                    sim = pkg.simulate_jump_increments(params, dt[:n], n, rng=seed)
                    print(_line(sim.tobytes(), f"library/simulate/{steps}/n{n}/seed{seed}"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.rsplit("\n\n", 1)[-1], file=sys.stderr)
        return 2
    top = Path(args[0])
    top.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("GBMJUMP_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for name, flags in RUNS.items():
        cmd = [sys.executable, "-m", "gbmjump.cli", *flags, "--out", name]
        stdout = subprocess.run(cmd, cwd=top, env=env, check=True, capture_output=True).stdout
        for path in sorted((top / name).iterdir()):
            print(_line(path.read_bytes(), f"{name}/{path.name}"))
        print(_line(stdout, f"{name}/stdout"))
    _library()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
