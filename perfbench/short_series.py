"""Fit a batch of short price series with both samplers, the way simulation
studies (Geweke tests, simulation-based calibration) drive the library.

    PYTHONPATH=src python3 perfbench/short_series.py --batch DIR --iters 1000 \
        --burnin 200 --seed 1 --out draws.npz

Every *.csv in DIR (date,close) is loaded, turned into increments and fitted
with run_jump_gibbs and run_gibbs. The draws and each series' increment count
go to one .npz file, which the benchmark checks.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from gbmjump import load_price_series, run_gibbs, run_jump_gibbs, to_increments


def fit_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", required=True, help="directory of price CSVs")
    parser.add_argument("--iters", type=int, required=True)
    parser.add_argument("--burnin", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help=".npz file for the draws")
    args = parser.parse_args(argv)
    paths = sorted(Path(args.batch).glob("*.csv"))
    if not paths:
        raise SystemExit(f"no .csv files in {args.batch}")
    jump_draws, gbm_draws, sizes = [], [], []
    for index, path in enumerate(paths):
        inc = to_increments(load_price_series(path))
        seed = fit_seed(args.seed, index)
        jump_draws.append(run_jump_gibbs(inc, n_keep=args.iters, burn_in=args.burnin, seed=seed).draws)
        gbm_draws.append(run_gibbs(inc, n_keep=args.iters, burn_in=args.burnin, seed=seed).draws)
        sizes.append(inc.n)
    np.savez(
        args.out,
        jump=np.stack(jump_draws),
        gbm=np.stack(gbm_draws),
        n=np.array(sizes),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
