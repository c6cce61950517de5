"""GBM and GBM-with-Bernoulli-jumps fitting: closed-form MLE, conjugate Gibbs
sampling, posterior summaries, and predictive bands for daily price series."""

from .diagnostics import (
    ParamSummary,
    Summary,
    pacf,
    summarize,
    summarize_draws,
)
from .gbm import GbmParams, log_likelihood, mle_fit, simulate_gbm_path, transition_logpdf
from .gibbs import (
    ChainMeta,
    GbmPrior,
    PosteriorChain,
    read_chain_csv,
    run_gibbs,
    sample_sigma2_given_theta,
    sample_theta_given_sigma2,
    sigma2_conditional,
    theta_conditional,
    write_chain_csv,
)
from .jumps import (
    JumpParams,
    JumpPrior,
    LatentState,
    increment_moments,
    jump_indicator_prob,
    jump_mean_conditional,
    jump_var_conditional,
    lambda_conditional,
    run_jump_gibbs,
    sample_latent,
    simulate_jump_increments,
    update_diffusion_block,
    update_jump_moments,
    update_lambda,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
