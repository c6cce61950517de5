import ast
import os
import subprocess
import sys
from pathlib import Path

import gbmjump
from conftest import SCRIPTS, TRAIN_CSV

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
# add import time to every CLI run.
HEAVY_MODULES = ["hashlib", "_hashlib", "queue", "logging", "concurrent"]
# The modules not every command runs, and json, which only json output and
# --config read.
LAZY_MODULES = ["gbmjump.cli", "gbmjump.diagnostics", "gbmjump.jumps", "gbmjump.predict", "json"]


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


def test_every_public_name_is_listed_and_resolves():
    # dir first: resolving a name binds it in the package
    code = (
        "import gbmjump\n"
        "print(set(gbmjump.__all__) <= set(dir(gbmjump)))\n"
        "print(all(getattr(gbmjump, name).__name__ == name for name in gbmjump.__all__))\n"
    )
    assert fresh_interpreter(code) == "True\nTrue\n"


def test_import_loads_no_lazy_module():
    code = f"import sys, gbmjump; print(sorted(set({LAZY_MODULES}) & set(sys.modules)))"
    assert fresh_interpreter(code) == "[]\n"


def loaded_by(argv, names) -> list[str]:
    """Those of names that a fresh interpreter has loaded after main(argv)."""
    code = (
        "import contextlib, io, sys\n"
        "from gbmjump.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"print(sorted(set({names!r}) & set(sys.modules)))\n"
    )
    return ast.literal_eval(fresh_interpreter(code))


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    common = ["--input", str(TRAIN_CSV), "--model", "gbm-jump", "--out", str(tmp_path)]
    fit = ["fit", *common, "--iters", "50", "--burnin", "10"]
    band = ["forecast", *common, "--chain", str(tmp_path / "chain_gbm_jump.csv")]
    gbm_fit = [*fit[:4], "gbm", *fit[5:]]  # fit --model gbm runs no jump code
    watched = [*LAZY_MODULES, "concurrent", "logging"]
    assert loaded_by(["mle", *common[:2]], watched) == ["gbmjump.cli"]
    assert loaded_by(fit, watched) == ["gbmjump.cli", "gbmjump.diagnostics", "gbmjump.jumps"]
    assert loaded_by(band, watched) == ["gbmjump.cli", "gbmjump.diagnostics", "gbmjump.predict"]
    assert loaded_by(gbm_fit, watched) == ["gbmjump.cli", "gbmjump.diagnostics"]


def test_scripts_that_load_other_trees_still_run():
    # compare_trees loads this tree twice, under the names gbmjump_parent and
    # gbmjump_change, so the package's lazy names must resolve relative to
    # its own name. Short chains keep it quick.
    tree = str(SCRIPTS.parent)
    code = (
        f"import sys; sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import compare_trees\n"
        "compare_trees.N_KEEP, compare_trees.BURN_IN = 60, 10\n"
        f"compare_trees.main([{tree!r}, {tree!r}, '--seeds', '1-2'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('gbmjump')))\n"
    )
    out = fresh_interpreter(code)
    # each tree ran its own jumps and predict (with diagnostics, for its
    # quantiles), and neither loaded the gbmjump on the path
    trees = [f"gbmjump_{side}{module}" for side in ("change", "parent")
             for module in ("", ".diagnostics", ".gbm", ".gibbs", ".jumps", ".predict", ".series")]
    assert out.endswith(str(trees) + "\n")
    assert out.count(" yes\n") == 5  # every input's two chains and every two bands are equal
    fits, bands = out.split("\nfitted bands, band seeds 20-59;")
    rows = [line.split() for line in fits.splitlines()
            if line.startswith(("accept_rate", "mean ", "ess "))]
    assert len(rows) == 4 * 11  # 4 inputs, each with 11 quantities
    # on the first 50 increments the move is off: no acceptance rate, no z;
    # every other quantity is equal on both sides
    assert rows[33] == ["accept_rate", "-", "-"]
    assert all(row[-1] == "+0.00" for row in rows[:33] + rows[34:])
    # lower, mean and upper at 6 steps, and the mean width
    rows = [line.split() for line in bands.splitlines() if line.startswith(("lower", "mean", "upper"))]
    assert len(rows) == 19 and all(row[-1] == "+0.00" for row in rows)


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
