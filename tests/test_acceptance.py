"""End-to-end acceptance checks for the bundled daily-close study.

Each test prints one ``ACCEPTANCE n: PASS/FAIL (...)`` line (run with -s to see
them) and then asserts, so the suite both reports and enforces the contract:

1. no-jump fit of the bundled series lands in the reference windows, < 10 s
2. jump fit lands in the reference windows, < 60 s
3. jump fit attributes variance to jumps (smaller diffusion sigma) and drift
   is resolved with coefficient of variation < 0.5
4. closed-form MLE maximizes the likelihood on 50 random instances
5. every Gibbs conditional matches its reference law; empty-data chains
   reproduce the priors
6. both samplers recover generating parameters across 20 synthetic replicates
7. the jump-model increment moment identities match simulation
8. the 90% forecast band covers the held-out continuation on >= 90% of days
9. retained chains decorrelate: PACF lag 1 < 0.3, later lags at noise level
"""

import time

import numpy as np
import pytest
from scipy import stats

from gbmjump import (
    GbmParams,
    IncrementSeries,
    JumpParams,
    increment_moments,
    jump_var_conditional,
    lambda_conditional,
    log_likelihood,
    mle_fit,
    pacf,
    predictive_band,
    run_gibbs,
    run_jump_gibbs,
    sample_sigma2_given_theta,
    sample_theta_given_sigma2,
    sigma2_conditional,
    simulate_jump_increments,
    summarize,
    theta_conditional,
    update_lambda,
)

DT = 1.0 / 252.0
EMPTY = IncrementSeries(d=np.array([]), dt=np.array([]))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def window(value: float, center: float, tol: float) -> bool:
    return abs(value - center) <= tol


@pytest.fixture(scope="module")
def timed_gbm(train_inc):
    t0 = time.perf_counter()
    chain = run_gibbs(train_inc, n_keep=5000, burn_in=1000, seed=42)
    return chain, time.perf_counter() - t0


@pytest.fixture(scope="module")
def timed_jump(train_inc):
    t0 = time.perf_counter()
    chain = run_jump_gibbs(train_inc, n_keep=5000, burn_in=1000, seed=42)
    return chain, time.perf_counter() - t0


def test_criterion_1_gbm_reference_fit(train_inc, timed_gbm):
    chain, seconds = timed_gbm
    fit = mle_fit(train_inc)
    summary = summarize(chain)
    mu, sigma = summary["mu"].mean, summary["sigma"].mean
    checks = {
        "posterior mu": window(mu, 0.150, 0.02),
        "posterior sigma": window(sigma, 0.183, 0.004),
        "mle mu": window(fit.mu, 0.149, 0.002),
        "mle sigma": window(fit.sigma, 0.183, 0.002),
        "runtime": seconds < 10.0,
    }
    detail = (
        f"mu {mu:.4f} sigma {sigma:.4f} mle_mu {fit.mu:.4f} "
        f"mle_sigma {fit.sigma:.4f} in {seconds:.2f}s"
    )
    report(1, all(checks.values()), detail)
    assert all(checks.values()), {k: v for k, v in checks.items() if not v} | {
        "detail": detail
    }


def test_criterion_2_jump_reference_fit(timed_jump):
    chain, seconds = timed_jump
    summary = summarize(chain)
    values = {
        "sigma": (summary["sigma"].mean, 0.089, 0.012),
        "lambda_star": (summary["lambda_star"].mean, 0.36, 0.06),
        "mu_z": (summary["mu_z"].mean, -0.002, 0.002),
        "sigma_z": (summary["sigma_z"].mean, 0.017, 0.003),
        "mu": (summary["mu"].mean, 0.349, 0.08),
    }
    checks = {name: window(*win) for name, win in values.items()}
    checks["runtime"] = seconds < 60.0
    detail = (
        " ".join(f"{name} {win[0]:.4f}" for name, win in values.items())
        + f" in {seconds:.2f}s"
    )
    report(2, all(checks.values()), detail)
    assert all(checks.values()), {k: v for k, v in checks.items() if not v} | {
        "detail": detail
    }


def test_criterion_3_jump_fit_reallocates_variance(timed_gbm, timed_jump):
    gbm_chain, _ = timed_gbm
    jump_chain, _ = timed_jump
    sigma_gbm = summarize(gbm_chain)["sigma"].mean
    sigma_jump = summarize(jump_chain)["sigma"].mean
    mu_g = gbm_chain.column("mu")
    mu_j = jump_chain.column("mu")
    cov_g = mu_g.std(ddof=1) / abs(mu_g.mean())
    cov_j = mu_j.std(ddof=1) / abs(mu_j.mean())
    checks = {
        "diffusion sigma shrinks": sigma_jump < sigma_gbm,
        "gbm drift cov": cov_g < 0.5,
        "jump drift cov": cov_j < 0.5,
    }
    detail = (
        f"sigma {sigma_jump:.4f} < {sigma_gbm:.4f}, "
        f"drift cov gbm {cov_g:.3f} jump {cov_j:.3f}"
    )
    report(3, all(checks.values()), detail)
    assert all(checks.values()), detail


def test_criterion_4_mle_maximizes_likelihood():
    worst_rel_grad = 0.0
    failures = []
    for i in range(50):
        rng = np.random.default_rng(500 + i)
        n = int(rng.integers(10, 101))
        theta_true = rng.uniform(-0.5, 0.5)
        sigma2_true = rng.uniform(0.001, 0.09)
        dt = np.full(n, DT)
        d = theta_true * dt + np.sqrt(sigma2_true * dt) * rng.standard_normal(n)
        inc = IncrementSeries(d=d, dt=dt)
        fit = mle_fit(inc)

        thetas = np.linspace(fit.theta - 0.5, fit.theta + 0.5, 21)
        sigmas = np.linspace(fit.sigma2 / 2, fit.sigma2 * 2, 21)
        values = np.array(
            [[log_likelihood(inc, GbmParams(t, s)) for s in sigmas] for t in thetas]
        )
        gi, gj = np.unravel_index(np.argmax(values), values.shape)
        at_center = values[gi, gj] <= log_likelihood(inc, fit)
        if not at_center:
            failures.append(f"instance {i}: grid beats the closed form")

        scale = abs(log_likelihood(inc, fit))
        h = 1e-6
        g_theta = (
            log_likelihood(inc, GbmParams(fit.theta + h, fit.sigma2))
            - log_likelihood(inc, GbmParams(fit.theta - h, fit.sigma2))
        ) / (2 * h)
        hs = h * fit.sigma2
        g_sigma = (
            log_likelihood(inc, GbmParams(fit.theta, fit.sigma2 + hs))
            - log_likelihood(inc, GbmParams(fit.theta, fit.sigma2 - hs))
        ) / (2 * hs)
        rel = max(abs(g_theta), abs(g_sigma)) / max(scale, 1.0)
        worst_rel_grad = max(worst_rel_grad, rel)
        if rel >= 1e-5:
            failures.append(f"instance {i}: relative gradient {rel:.2e}")
    ok = not failures
    report(4, ok, f"50 instances, worst relative gradient {worst_rel_grad:.2e}")
    assert ok, failures


def test_criterion_5_conditionals_match_reference_laws(train_inc):
    n_draws = 100_000
    results = {}

    rng = np.random.default_rng(61)
    sigma2_at = 0.0335
    draws = np.array(
        [sample_theta_given_sigma2(train_inc, sigma2_at, rng=rng) for _ in range(n_draws)]
    )
    mean, var = theta_conditional(train_inc, sigma2_at)
    results["theta"] = stats.kstest(draws, stats.norm(mean, np.sqrt(var)).cdf).statistic

    rng = np.random.default_rng(62)
    theta_at = 0.1323
    draws = np.array(
        [sample_sigma2_given_theta(train_inc, theta_at, rng=rng) for _ in range(n_draws)]
    )
    shape, scale = sigma2_conditional(train_inc, theta_at)
    results["sigma2"] = stats.kstest(
        draws, stats.invgamma(shape, scale=scale).cdf
    ).statistic

    rng = np.random.default_rng(63)
    indicators = np.zeros(train_inc.n, dtype=bool)
    indicators[:544] = True
    draws = np.array([update_lambda(indicators, rng=rng) for _ in range(n_draws)])
    a, b = lambda_conditional(indicators)
    results["lambda"] = stats.kstest(draws, stats.beta(a, b).cdf).statistic

    ks_ok = all(v < 0.01 for v in results.values())

    # empty-data chains must reproduce the prior laws
    prior_checks = {}
    chain = run_gibbs(EMPTY, n_keep=50_000, burn_in=10, seed=29)
    theta = chain.column("theta")
    prior_checks["theta mean"] = abs(theta.mean()) < 4 * 10.0 / np.sqrt(theta.size)
    prior_checks["theta sd"] = abs(theta.std(ddof=1) - 10.0) < 0.5
    recip = 1.0 / chain.column("sigma2")  # Gamma(2, rate 0.001): finite moments
    se = recip.std(ddof=1) / np.sqrt(recip.size)
    prior_checks["sigma2 reciprocal mean"] = abs(recip.mean() - 2000.0) < 4 * se
    got_q = np.quantile(chain.column("sigma2"), [0.25, 0.5, 0.75])
    want_q = stats.invgamma(2.0, scale=0.001).ppf([0.25, 0.5, 0.75])
    prior_checks["sigma2 quartiles"] = np.allclose(got_q, want_q, rtol=0.05)

    jchain = run_jump_gibbs(EMPTY, n_keep=50_000, burn_in=10, seed=30)
    lam = jchain.column("lambda_star")
    prior_checks["lambda mean"] = (
        abs(lam.mean() - 0.5) < 4 * np.sqrt(1.0 / 12.0) / np.sqrt(lam.size)
    )
    mu_z = jchain.column("mu_z")
    prior_checks["mu_z sd"] = abs(mu_z.std(ddof=1) - 10.0) < 0.5

    ok = ks_ok and all(prior_checks.values())
    detail = (
        "KS " + " ".join(f"{k} {v:.4f}" for k, v in results.items())
        + "; prior reproduction "
        + ("ok" if all(prior_checks.values()) else str(prior_checks))
    )
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_synthetic_recovery():
    t0 = time.perf_counter()
    n = 2500
    dt = np.full(n, DT)
    gbm_true = GbmParams(theta=0.1, sigma2=0.04)
    jump_true = JumpParams(
        theta=0.3, sigma2=0.008, mu_z=-0.003, sigma2_z=0.0003, lambda_star=0.35
    )
    hits = {"gbm sigma2": 0, "jump sigma2": 0, "jump lambda": 0}
    for rep in range(20):
        data_rng = np.random.default_rng(1000 + rep)
        d = gbm_true.theta * dt + np.sqrt(gbm_true.sigma2 * dt) * data_rng.standard_normal(n)
        chain = run_gibbs(IncrementSeries(d=d, dt=dt), n_keep=1500, burn_in=300, seed=rep)
        lo, hi = np.quantile(chain.column("sigma2"), [0.025, 0.975])
        hits["gbm sigma2"] += lo <= gbm_true.sigma2 <= hi

        d = simulate_jump_increments(jump_true, DT, n, rng=np.random.default_rng(5000 + rep))
        jchain = run_jump_gibbs(
            IncrementSeries(d=d, dt=dt), n_keep=1500, burn_in=300, seed=100 + rep
        )
        lo, hi = np.quantile(jchain.column("sigma2"), [0.025, 0.975])
        hits["jump sigma2"] += lo <= jump_true.sigma2 <= hi
        lo, hi = np.quantile(jchain.column("lambda_star"), [0.025, 0.975])
        hits["jump lambda"] += lo <= jump_true.lambda_star <= hi
    seconds = time.perf_counter() - t0
    checks = {name: count >= 17 for name, count in hits.items()}
    checks["runtime"] = seconds < 300.0
    detail = (
        " ".join(f"{name} {count}/20" for name, count in hits.items())
        + f" in {seconds:.1f}s"
    )
    report(6, all(checks.values()), detail)
    assert all(checks.values()), detail


def test_criterion_7_moment_identities():
    params = JumpParams(
        theta=0.3, sigma2=0.008, mu_z=-0.003, sigma2_z=0.0003, lambda_star=0.35
    )
    mean, var = increment_moments(params, DT)
    x = simulate_jump_increments(params, DT, 100_000, rng=np.random.default_rng(11))
    se_mean = x.std(ddof=1) / np.sqrt(x.size)
    m4 = np.mean((x - x.mean()) ** 4)
    se_var = np.sqrt((m4 - x.var(ddof=1) ** 2) / x.size)
    mean_dev = abs(x.mean() - mean) / se_mean
    var_dev = abs(x.var(ddof=1) - var) / se_var
    ok = mean_dev < 4.0 and var_dev < 4.0
    report(7, ok, f"mean within {mean_dev:.2f} SE, variance within {var_dev:.2f} SE")
    assert ok


def test_criterion_8_forecast_band_covers_holdout(timed_gbm, train_series, holdout_series):
    chain, _ = timed_gbm
    holdout = np.asarray(holdout_series.prices)
    band = predictive_band(
        chain,
        start=float(train_series.prices[-1]),
        dt=np.full(len(holdout), DT),
        level=0.90,
        rng=np.random.default_rng(77),
    )
    covered = float(np.mean((holdout >= band.lower) & (holdout <= band.upper)))
    ok = covered >= 0.90
    report(8, ok, f"{len(holdout)}-day holdout, coverage {covered:.3f}")
    assert ok, covered


def test_criterion_9_chain_decorrelation(timed_gbm):
    chain, _ = timed_gbm
    mu = chain.column("mu")
    lags = pacf(mu, max_lag=10)
    threshold = 3.0 / np.sqrt(mu.size)
    ok = abs(lags[0]) < 0.3 and np.all(np.abs(lags[1:]) < threshold)
    detail = (
        f"lag1 {lags[0]:+.4f} (< 0.3), max later |pacf| {np.max(np.abs(lags[1:])):.4f} "
        f"(< {threshold:.4f})"
    )
    report(9, ok, detail)
    assert ok, detail
