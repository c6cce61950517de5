"""GBM and GBM-with-Bernoulli-jumps fitting: closed-form MLE, conjugate Gibbs
sampling, posterior summaries, and predictive bands for daily price series.

series, gbm and gibbs, which every command runs, load with the package. The
names of diagnostics, jumps and predict load their module on first access
(PEP 562), so a process compiles only the code it runs: a forecast never loads
the jump sampler, a fit never loads the band simulator.
"""

from importlib import import_module as _import_module

from .gbm import GbmParams, log_likelihood, mle_fit
from .gibbs import (
    ChainMeta,
    GbmPrior,
    PosteriorChain,
    read_chain_csv,
    run_gibbs,
    write_chain_csv,
)
from .series import (
    DataError,
    IncrementSeries,
    PriceSeries,
    load_price_series,
    to_increments,
)

# exported name -> the submodule that defines it and loads on first access
_LAZY = {name: module for module, names in (
    ("diagnostics", ("ParamSummary", "pacf", "summarize")),
    ("jumps", ("JumpParams", "JumpPrior", "run_jump_gibbs")),
    ("predict", ("Band", "fitted_band", "predictive_band", "simulate_jump_increments",
                 "write_band_csv")),
) for name in names}

__all__ = [
    "Band", "ChainMeta", "DataError", "GbmParams", "GbmPrior", "IncrementSeries",
    "JumpParams", "JumpPrior", "ParamSummary", "PosteriorChain", "PriceSeries",
    "fitted_band", "load_price_series", "log_likelihood", "mle_fit", "pacf",
    "predictive_band", "read_chain_csv", "run_gibbs", "run_jump_gibbs",
    "simulate_jump_increments", "summarize", "to_increments", "write_band_csv",
    "write_chain_csv",
]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # relative to __name__, so a tree loaded under another package name works
    value = globals()[name] = getattr(_import_module("." + _LAZY[name], __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
