"""Regenerate the bundled synthetic daily-close dataset.

The repository cannot redistribute real index data, so the bundled series is a
seeded surrogate: 1,511 trading days (2009-01-02 through 2014-12-31) drawn from
the jump-diffusion model this package fits, then affine-adjusted so the sample
statistics land on the reference values the test suite pins:

  * endpoints 931.80 -> 2058.90, hence theta_hat = log(2058.90/931.80)/(1510/252)
  * closed-form MLE volatility sigma_hat = 0.183 exactly (pre-rounding)
  * jump structure near (lambda_star 0.36, mu_z -0.0023, sigma_z 0.017)

A 39-day holdout (the trading days of Jan-Feb 2015) continues the same process
and is mean-adjusted to finish at 2104.50. Prices are rounded to cents.

Usage: python3 scripts/make_dataset.py [--seed N] [--outdir data]

To refit both models to a regenerated series and band its holdout, run
gbmjump study --input DIR/sp500_synthetic.csv --holdout
DIR/sp500_synthetic_holdout.csv --seed 42.
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import sys
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7
DAYS_PER_YEAR = 252

TRAIN_FIRST = 931.80  # 2009-01-02 close
TRAIN_LAST = 2058.90  # 2014-12-31 close
HOLD_LAST = 2104.50  # 2015-02-27 close
SIGMA_TARGET = 0.183  # annualized MLE volatility of the training window

# Generating mixture (annualized diffusion, per-step jump law). The affine
# step below rescales realized increments, so these only need to be close.
LAMBDA_STAR = 0.36
SIGMA_DIFF = 0.0878
MU_Z = -0.00227
SIGMA_Z = 0.01676

# NYSE-style holidays that fall on weekdays, 2009 through Feb 2015. 2012-10-30
# (second storm closure) is intentionally treated as a trading day so the
# training window holds exactly 1,511 rows.
HOLIDAYS = {
    # 2009
    "2009-01-19", "2009-02-16", "2009-04-10", "2009-05-25", "2009-07-03",
    "2009-09-07", "2009-11-26", "2009-12-25",
    # 2010
    "2010-01-01", "2010-01-18", "2010-02-15", "2010-04-02", "2010-05-31",
    "2010-07-05", "2010-09-06", "2010-11-25", "2010-12-24",
    # 2011 (New Year's fell on a Saturday and was not observed)
    "2011-01-17", "2011-02-21", "2011-04-22", "2011-05-30", "2011-07-04",
    "2011-09-05", "2011-11-24", "2011-12-26",
    # 2012
    "2012-01-02", "2012-01-16", "2012-02-20", "2012-04-06", "2012-05-28",
    "2012-07-04", "2012-09-03", "2012-10-29", "2012-11-22", "2012-12-25",
    # 2013
    "2013-01-01", "2013-01-21", "2013-02-18", "2013-03-29", "2013-05-27",
    "2013-07-04", "2013-09-02", "2013-11-28", "2013-12-25",
    # 2014
    "2014-01-01", "2014-01-20", "2014-02-17", "2014-04-18", "2014-05-26",
    "2014-07-04", "2014-09-01", "2014-11-27", "2014-12-25",
    # Jan-Feb 2015
    "2015-01-01", "2015-01-19", "2015-02-16",
}
HOLIDAY_DATES = {dt.date.fromisoformat(s) for s in HOLIDAYS}


def trading_days(first: dt.date, last: dt.date) -> list[dt.date]:
    days = []
    cursor = first
    while cursor <= last:
        if cursor.weekday() < 5 and cursor not in HOLIDAY_DATES:
            days.append(cursor)
        cursor += dt.timedelta(days=1)
    return days


def mixture_increments(n: int, theta: float, rng: np.random.Generator):
    """n increments of the generating mixture, and which of them jumped."""
    step = 1.0 / DAYS_PER_YEAR
    d = theta * step + SIGMA_DIFF * math.sqrt(step) * rng.standard_normal(n)
    jumps = rng.random(n) < LAMBDA_STAR
    sizes = MU_Z + SIGMA_Z * rng.standard_normal(n)
    return d + np.where(jumps, sizes, 0.0), jumps


def build(seed: int = DEFAULT_SEED):
    """(training dates, prices), (holdout dates, prices) and the training
    increments' jump indicators: the affine rescaling keeps which increments
    jumped, so these are the true jump days of the written series."""
    train_dates = trading_days(dt.date(2009, 1, 2), dt.date(2014, 12, 31))
    hold_dates = trading_days(dt.date(2015, 1, 2), dt.date(2015, 2, 27))
    assert len(train_dates) == 1511, f"calendar yields {len(train_dates)} rows"
    assert len(hold_dates) == 39, f"holdout calendar yields {len(hold_dates)} rows"

    n = len(train_dates) - 1
    mean_target = math.log(TRAIN_LAST / TRAIN_FIRST) / n
    sd_target = SIGMA_TARGET / math.sqrt(DAYS_PER_YEAR)
    theta_gen = (mean_target - LAMBDA_STAR * MU_Z) * DAYS_PER_YEAR

    rng = np.random.default_rng(seed)
    raw, jumps = mixture_increments(n, theta_gen, rng)
    scale = sd_target / raw.std()  # population SD: the MLE uses the 1/n divisor
    d = mean_target + scale * (raw - raw.mean())
    prices = np.round(TRAIN_FIRST * np.exp(np.concatenate(([0.0], np.cumsum(d)))), 2)
    prices[0], prices[-1] = TRAIN_FIRST, TRAIN_LAST

    raw_hold, _ = mixture_increments(len(hold_dates), theta_gen, rng)
    drift_fix = (math.log(HOLD_LAST / TRAIN_LAST) - raw_hold.sum()) / len(hold_dates)
    d_hold = raw_hold + drift_fix
    hold_prices = np.round(TRAIN_LAST * np.exp(np.cumsum(d_hold)), 2)
    hold_prices[-1] = HOLD_LAST

    return (train_dates, prices), (hold_dates, hold_prices), jumps


def write_csv(path: Path, dates, prices) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("date,close\n")
        for day, price in zip(dates, prices):
            fh.write(f"{day.isoformat()},{price:.2f}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--outdir", default="data")
    args = parser.parse_args(argv)

    (train_dates, prices), (hold_dates, hold_prices), _ = build(args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "sp500_synthetic.csv", train_dates, prices)
    write_csv(outdir / "sp500_synthetic_holdout.csv", hold_dates, hold_prices)
    print(f"wrote {len(prices)} training rows and {len(hold_prices)} holdout rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
