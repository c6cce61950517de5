"""Run a fixed set of seeded gbmjump commands on the bundled data and print
one `sha256  path` line per output file and per command's stdout.

The set: mle as csv and as json, fit of gbm and of gbm-jump, forecast
--fitted-band from each fit's chain, and study with the holdout, all at seed
42 and default settings. Each command writes into its own folder of DIR and
paths print relative to DIR, so the listings of two checkouts compare line by
line. The fit times, the one thing that differs between runs, are hashed
without: study.json's `seconds` lines. study prints its times on stderr,
which is not hashed.

Usage: python3 scripts/seeded_outputs.py DIR
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

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


def _line(data: bytes, name: str) -> str:
    if name.endswith("/study.json"):
        data = _SECONDS.sub(b"", data)
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
