import os
import subprocess
import sys
from pathlib import Path

import gbmjump
from conftest import TRAIN_CSV

# A new export is a deliberate change to this list.
PUBLIC_NAMES = [
    "Band", "ChainMeta", "DataError", "GbmParams", "GbmPrior", "IncrementSeries",
    "JumpParams", "JumpPrior", "ParamSummary", "PosteriorChain", "PriceSeries",
    "fitted_band", "load_price_series", "log_likelihood", "mle_fit", "pacf",
    "predictive_band", "read_chain_csv", "run_gibbs", "run_jump_gibbs",
    "simulate_jump_increments", "summarize", "to_increments", "write_band_csv",
    "write_chain_csv",
]

# Modules that importing the package must not load: hashlib loads OpenSSL
# (about 3.5 MB of resident memory), and queue, logging and concurrent each
# add import time to every CLI run; predict imports concurrent.futures, which
# imports logging and queue, when it draws a band.
HEAVY_MODULES = ["hashlib", "_hashlib", "queue", "logging", "concurrent"]


def test_all_pins_the_public_names():
    # built from the imports, so a submodule bound by importing from it is no export
    assert gbmjump.__all__ == PUBLIC_NAMES


def fresh_interpreter(code: str) -> str:
    """stdout of code run in a new interpreter: this one has loaded pytest's modules."""
    src = str(Path(gbmjump.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return run.stdout


def test_import_loads_no_heavy_module():
    code = f"import sys, gbmjump, gbmjump.cli; print(sorted(set({HEAVY_MODULES}) & set(sys.modules)))"
    assert fresh_interpreter(code) == "[]\n"


def test_fit_and_band_load_no_masked_arrays(tmp_path):
    # np.quantile's np.unique imported numpy.ma (about 12 ms and 0.5 MB per run)
    common = ["--input", str(TRAIN_CSV), "--model", "gbm-jump"]
    fit = ["fit", *common, "--iters", "50", "--burnin", "10", "--out", str(tmp_path / "fit")]
    band = ["forecast", *common, "--fitted-band", "--out", str(tmp_path / "band"),
            "--chain", str(tmp_path / "fit" / "chain_gbm_jump.csv")]
    code = (
        "import contextlib, io, sys\n"
        "from gbmjump.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({fit!r}) == main({band!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert fresh_interpreter(code) == "False\n"
    assert (tmp_path / "band" / "fitted_band_gbm_jump.csv").exists()
