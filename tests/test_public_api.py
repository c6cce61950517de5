import gbmjump

# A new export is a deliberate change to this list.
PUBLIC_NAMES = [
    "Band", "ChainMeta", "DataError", "GbmParams", "GbmPrior", "IncrementSeries",
    "JumpParams", "JumpPrior", "ParamSummary", "PosteriorChain", "PriceSeries",
    "fitted_band", "increment_moments", "lambda_conditional", "load_price_series",
    "log_likelihood", "marginal_log_posterior", "mle_fit", "pacf", "predictive_band",
    "read_chain_csv", "run_gibbs", "run_jump_gibbs", "sample_sigma2_given_theta",
    "sample_theta_given_sigma2", "sigma2_conditional", "simulate_jump_increments",
    "summarize", "theta_conditional", "to_increments", "update_jump_moments",
    "update_lambda", "write_band_csv", "write_chain_csv",
]


def test_all_pins_the_public_names():
    # built from the imports, so a submodule bound by importing from it is no export
    assert gbmjump.__all__ == PUBLIC_NAMES
