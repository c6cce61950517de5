import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from gbmjump import DataError, load_price_series, run_gibbs, run_jump_gibbs, to_increments

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
TRAIN_CSV = DATA_DIR / "sp500_synthetic.csv"
HOLDOUT_CSV = DATA_DIR / "sp500_synthetic_holdout.csv"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """The module scripts/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


# Reader fuzzing: each example rewrites one file under tmp_path, so the
# function-scoped fixture is safe to share across examples; no deadline, since
# the speed of the machines the suite runs on drifts.
FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def edits_of(valid: bytes):
    """Strategy: valid with a span of up to 8 bytes replaced by up to 8 bytes,
    arbitrary ones or the characters a CSV file of dates and numbers holds."""
    insert = st.binary(max_size=8) | st.text("0123456789.,-+e:# \n\r", max_size=8).map(str.encode)
    return st.builds(
        lambda at, cut, new: valid[:at] + new + valid[at + cut:],
        st.integers(0, len(valid)), st.integers(0, 8), insert,
    )


def loads_or_names_file(read, path, data: bytes) -> None:
    """Write data to path and read it with read: it loads, or it raises a
    DataError whose message starts with the path."""
    path.write_bytes(data)
    try:
        read(path)
    except ValueError as exc:
        assert isinstance(exc, DataError) and str(exc).startswith(f"{path}:"), repr(exc)
