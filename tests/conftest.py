from pathlib import Path

import numpy as np
import pytest

from gbmjump import load_price_series, run_gibbs, run_jump_gibbs, to_increments

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
TRAIN_CSV = DATA_DIR / "sp500_synthetic.csv"
HOLDOUT_CSV = DATA_DIR / "sp500_synthetic_holdout.csv"


@pytest.fixture(scope="session")
def train_series():
    return load_price_series(TRAIN_CSV)


@pytest.fixture(scope="session")
def train_inc(train_series):
    return to_increments(train_series)


@pytest.fixture(scope="session")
def holdout_series():
    return load_price_series(HOLDOUT_CSV)


@pytest.fixture(scope="session")
def gbm_chain(train_inc):
    """Reference no-jump fit of the bundled series (reused across test files)."""
    return run_gibbs(train_inc, n_keep=5000, burn_in=1000, seed=42)


@pytest.fixture(scope="session")
def jump_chain(train_inc):
    """Reference jump-model fit of the bundled series."""
    return run_jump_gibbs(train_inc, n_keep=5000, burn_in=1000, seed=42)


def batch_means_z(draws, mean, batches=50):
    """z-score of the mean of a chain of draws against mean, with the
    standard error taken from the means of equal consecutive batches."""
    means = np.asarray(draws).reshape(batches, -1).mean(axis=1)
    return (means.mean() - mean) / (means.std(ddof=1) / np.sqrt(batches))
