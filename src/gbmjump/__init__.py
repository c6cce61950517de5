"""GBM and GBM-with-Bernoulli-jumps fitting: closed-form MLE, conjugate Gibbs
sampling, posterior summaries, and predictive bands for daily price series."""

from types import ModuleType as _ModuleType

from .diagnostics import ParamSummary, pacf, summarize
from .gbm import GbmParams, log_likelihood, mle_fit
from .gibbs import (
    ChainMeta,
    GbmPrior,
    PosteriorChain,
    read_chain_csv,
    run_gibbs,
    write_chain_csv,
)
from .jumps import (
    JumpParams,
    JumpPrior,
    run_jump_gibbs,
    simulate_jump_increments,
)
from .predict import (
    Band,
    fitted_band,
    predictive_band,
    write_band_csv,
)
from .series import (
    DataError,
    IncrementSeries,
    PriceSeries,
    load_price_series,
    to_increments,
)

# the imported names, not the submodules that importing them binds
__all__ = [
    name for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
