"""Run the full daily-close study on the bundled dataset.

Fits both models to the training window, writes every artifact the analysis
produces (chains, summaries, PACF tables, jump probabilities, fitted and
forecast bands) under --out, and prints a compact report including holdout
band coverage. Each fit is reported and written as `gbmjump fit` does it, and
its bands as `gbmjump forecast --fitted-band` writes them.

Usage: python3 scripts/run_study.py [--out results] [--seed 42]
                                    [--iters 5000] [--burnin 1000]
                                    [--level 0.90]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gbmjump import load_price_series, mle_fit, summarize, to_increments  # noqa: E402
from gbmjump.cli import SAMPLERS, print_summary, write_bands, write_fit_artifacts  # noqa: E402
from gbmjump.diagnostics import summary_to_dict  # noqa: E402
from gbmjump.series import write_csv, write_json  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "data"


def band_coverage(band, prices) -> float:
    prices = np.asarray(prices, dtype=float)
    return float(np.mean((prices >= band.lower) & (prices <= band.upper)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--iters", type=int, default=5000)
    parser.add_argument("--burnin", type=int, default=1000)
    parser.add_argument("--level", type=float, default=0.90)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    train = load_price_series(DATA / "sp500_synthetic.csv")
    holdout = load_price_series(DATA / "sp500_synthetic_holdout.csv")
    inc = to_increments(train)
    print(
        f"training window: {len(train.prices)} closes "
        f"{train.dates[0]} .. {train.dates[-1]}"
    )

    fit = mle_fit(inc)
    print(
        f"closed-form MLE: mu_hat {fit.mu:.4f}  sigma_hat {fit.sigma:.4f} "
        f"(theta_hat {fit.theta:.4f}, sigma2_hat {fit.sigma2:.6f})"
    )

    report = {
        "seed": args.seed,
        "mle": {"mu": fit.mu, "sigma": fit.sigma},
        "models": {},
    }
    chains = {}
    for model, runner in SAMPLERS.items():
        t0 = time.perf_counter()
        chain = runner(inc, n_keep=args.iters, burn_in=args.burnin, seed=args.seed)
        elapsed = time.perf_counter() - t0
        chains[model] = chain
        summary = summarize(chain)
        print(f"\n{model} posterior ({elapsed:.1f}s)")
        print_summary(summary, chain.meta.accept_rate)
        lags = write_fit_artifacts(chain, summary, out, "csv")
        report["models"][model] = {
            "seconds": elapsed,
            "summary": summary_to_dict(summary),
            "pacf_lag1": None if lags is None else float(lags[0]),
        }

    jump_probs = chains["gbm-jump"].jump_probs
    write_csv(
        out / "jump_probs_gbm_jump.csv",
        {"date": train.dates[1:], "probability": jump_probs},
    )
    flagged = int(np.sum(jump_probs > 0.5))
    print(f"\nincrements with posterior jump probability > 0.5: {flagged}")

    horizon = len(holdout.prices)
    for model, chain in chains.items():
        forecast, fitted = write_bands(
            chain, train, inc, out, steps=[1.0 / 252.0] * horizon, dates=holdout.dates,
            level=args.level, seed=args.seed, fitted=True,
        )
        fitted_cov = band_coverage(fitted, train.prices)
        holdout_cov = band_coverage(forecast, holdout.prices)
        print(
            f"{model}: {args.level:.0%} band coverage, fitted {fitted_cov:.3f}, "
            f"{horizon}-day holdout {holdout_cov:.3f}"
        )
        report["models"][model]["fitted_coverage"] = fitted_cov
        report["models"][model]["holdout_coverage"] = holdout_cov

    write_json(out / "study.json", report)
    print(f"\nartifacts written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
