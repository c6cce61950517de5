import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import expit, logsumexp

from gbmjump import (
    GbmPrior,
    IncrementSeries,
    JumpParams,
    JumpPrior,
    LatentState,
    increment_moments,
    jump_indicator_prob,
    jumps,
    lambda_conditional,
    marginal_log_posterior,
    run_jump_gibbs,
    sample_latent,
    sample_sigma2_given_theta,
    sample_theta_given_sigma2,
    sigma2_conditional,
    simulate_jump_increments,
    theta_conditional,
    update_diffusion_block,
    update_jump_moments,
    update_lambda,
)
from gbmjump.jumps import (
    _MOVE_MIN_N,
    _T_DF,
    _independence_step,
    _initial_params,
    _laplace,
    _Marginal,
)

from conftest import batch_means_z

DT = 1.0 / 252.0
REF = JumpParams(theta=0.35, sigma2=0.008, mu_z=-0.002, sigma2_z=0.0003, lambda_star=0.36)


def _with(params: JumpParams, **kw) -> JumpParams:
    vals = {f: getattr(params, f) for f in ("theta", "sigma2", "mu_z", "sigma2_z", "lambda_star")}
    vals.update(kw)
    return JumpParams(**vals)


class TestJumpParams:
    def test_mu_property(self):
        assert REF.mu == pytest.approx(0.35 + 0.004)

    def test_lambda_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="lambda_star"):
            _with(REF, lambda_star=1.5)

    def test_nonpositive_variances_rejected(self):
        with pytest.raises(ValueError):
            _with(REF, sigma2=0.0)
        with pytest.raises(ValueError):
            _with(REF, sigma2_z=-1.0)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            JumpPrior(lambda_a=0.0)
        with pytest.raises(ValueError):
            JumpPrior(jump=GbmPrior(ig_scale=-0.1))


class TestLatentState:
    def test_counts_and_active_sizes(self):
        state = LatentState(
            indicators=np.array([True, False, True]),
            sizes=np.array([0.5, 9.0, -0.25]),
        )
        assert state.n_jumps == 2
        assert np.array_equal(state.active_sizes, [0.5, -0.25])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LatentState(indicators=np.array([True]), sizes=np.array([0.1, 0.2]))


class TestIndicatorProb:
    def test_lambda_zero_and_one_shortcut(self):
        d = np.array([-0.05, 0.01])
        dt = np.full(2, DT)
        assert np.array_equal(jump_indicator_prob(d, dt, _with(REF, lambda_star=0.0)), [0.0, 0.0])
        assert np.array_equal(jump_indicator_prob(d, dt, _with(REF, lambda_star=1.0)), [1.0, 1.0])

    def test_matches_direct_two_density_formula(self):
        # independent route: scipy normal pdfs combined in probability space
        d = np.array([-0.05])
        got = jump_indicator_prob(d, np.array([DT]), REF)[0]
        num = REF.lambda_star * stats.norm.pdf(
            d[0], REF.theta * DT + REF.mu_z, np.sqrt(REF.sigma2 * DT + REF.sigma2_z)
        )
        den = num + (1.0 - REF.lambda_star) * stats.norm.pdf(
            d[0], REF.theta * DT, np.sqrt(REF.sigma2 * DT)
        )
        assert got == pytest.approx(num / den, abs=1e-10)

    def test_far_tail_saturates_not_nan(self):
        p = jump_indicator_prob(np.array([-5.0, 5.0]), np.full(2, DT), REF)
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_tails_saturate_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = jump_indicator_prob(np.array([-5.0, 5.0]), np.full(2, DT), REF)
            # exp(-log_odds) overflows here: lambda_star's logit alone is -737
            tiny = jump_indicator_prob([0.0], [DT], _with(REF, lambda_star=1e-320))
        assert np.array_equal(p, [1.0, 1.0])
        assert 0.0 <= tiny[0] < 1e-300

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            jump_indicator_prob(np.array([0.0]), np.array([0.0]), REF)

    @settings(max_examples=200)
    @given(
        d=st.floats(min_value=-0.5, max_value=0.5),
        lam_lo=st.floats(min_value=0.05, max_value=0.45),
        lam_hi=st.floats(min_value=0.55, max_value=0.95),
    )
    def test_bounded_and_monotone_in_lambda(self, d, lam_lo, lam_hi):
        arr = np.array([d])
        dt = np.array([DT])
        p_lo = jump_indicator_prob(arr, dt, _with(REF, lambda_star=lam_lo))[0]
        p_hi = jump_indicator_prob(arr, dt, _with(REF, lambda_star=lam_hi))[0]
        assert 0.0 <= p_lo <= 1.0 and 0.0 <= p_hi <= 1.0
        assert p_hi >= p_lo


class TestSampleLatent:
    def test_active_sizes_match_precision_weighted_normal(self):
        # identical increments with lambda_star = 1: every Z_i | J_i = 1 shares
        # the same conditional Normal(m, v)
        n = 100_000
        d0 = -0.04
        inc = IncrementSeries(d=np.full(n, d0), dt=np.full(n, DT))
        params = _with(REF, lambda_star=1.0)
        state = sample_latent(inc, params, rng=np.random.default_rng(31))
        assert state.n_jumps == n
        base_var = params.sigma2 * DT
        v = 1.0 / (1.0 / params.sigma2_z + 1.0 / base_var)
        m = v * (params.mu_z / params.sigma2_z + (d0 - params.theta * DT) / base_var)
        ks = stats.kstest(state.sizes, stats.norm(m, np.sqrt(v)).cdf)
        assert ks.statistic < 0.006

    def test_inactive_sizes_zero_after_n_uniforms_then_k_normals(self, train_inc):
        gen = np.random.default_rng(32)
        state = sample_latent(train_inc, REF, rng=gen)
        assert 0 < state.n_jumps < train_inc.n
        assert np.all(state.sizes[~state.indicators] == 0.0)
        twin = np.random.default_rng(32)
        twin.random(train_inc.n)
        twin.standard_normal(state.n_jumps)
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_indicator_frequency_tracks_probability(self):
        n = 100_000
        inc = IncrementSeries(d=np.full(n, -0.02), dt=np.full(n, DT))
        state = sample_latent(inc, REF, rng=np.random.default_rng(33))
        p = jump_indicator_prob(inc.d, inc.dt, REF)[0]
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(state.n_jumps / n - p) < 4 * se


class TestLambdaConditional:
    def test_worked_example(self):
        indicators = np.zeros(1511, dtype=bool)
        indicators[:544] = True
        a, b = lambda_conditional(indicators)
        assert (a, b) == (545.0, 968.0)
        assert a / (a + b) == pytest.approx(0.3602115003304693, abs=1e-15)

    def test_no_jumps_returns_prior_plus_n(self):
        a, b = lambda_conditional(np.zeros(10, dtype=bool))
        assert (a, b) == (1.0, 11.0)

    def test_empty_returns_prior(self):
        a, b = lambda_conditional(np.array([], dtype=bool), JumpPrior(lambda_a=2.0, lambda_b=5.0))
        assert (a, b) == (2.0, 5.0)


def unit_steps(z):
    """The jump sizes z as increments of step length 1: the sizes' conditionals
    are the diffusion conditionals with theta = mu_z under prior.jump."""
    z = np.asarray(z, dtype=float)
    return IncrementSeries(d=z, dt=np.ones(z.size))


class TestJumpMomentConditionals:
    def test_mean_conditional_no_data_is_prior(self):
        mean, var = theta_conditional(unit_steps([]), 0.01, JumpPrior().jump)
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(100.0)

    def test_var_conditional_worked_example(self):
        shape, scale = sigma2_conditional(unit_steps([0.1, -0.1]), 0.0, JumpPrior().jump)
        assert shape == pytest.approx(3.0)
        assert scale == pytest.approx(0.011)

    def test_large_sample_dominates_prior(self):
        rng = np.random.default_rng(12)
        z = rng.normal(-0.003, 0.02, 2000)
        shape, scale = sigma2_conditional(unit_steps(z), -0.003, JumpPrior().jump)
        posterior_mean = scale / (shape - 1.0)
        assert posterior_mean == pytest.approx(0.0004, rel=0.05)

    def test_equal_diffusion_conditionals_on_unit_steps(self):
        # update_jump_moments draws mu_z then sigma2_z as the diffusion
        # conditionals do on the sizes as unit steps, draw for draw
        z = np.random.default_rng(13).normal(-0.003, 0.02, 300)
        prior = JumpPrior(jump=GbmPrior(theta_mean=0.5, theta_var=0.04, ig_shape=3, ig_scale=0.02))
        got = update_jump_moments(z, 0.0004, prior, rng=np.random.default_rng(14))
        gen = np.random.default_rng(14)
        mu_z = sample_theta_given_sigma2(unit_steps(z), 0.0004, prior.jump, rng=gen)
        sigma2_z = sample_sigma2_given_theta(unit_steps(z), mu_z, prior.jump, rng=gen)
        assert got == pytest.approx((mu_z, sigma2_z), rel=1e-12)

    def test_update_with_no_active_reduces_to_prior(self):
        rng = np.random.default_rng(40)
        draws = np.array(
            [update_jump_moments(np.array([]), 0.01, rng=rng) for _ in range(20000)]
        )
        mu_draws, s2_draws = draws[:, 0], draws[:, 1]
        assert abs(mu_draws.mean()) < 4 * 10.0 / np.sqrt(len(mu_draws))
        assert mu_draws.std(ddof=1) == pytest.approx(10.0, rel=0.05)
        ks = stats.kstest(s2_draws, stats.invgamma(2.0, scale=0.001).cdf)
        assert ks.statistic < 0.012


class TestDiffusionBlock:
    def test_no_jumps_reduces_to_plain_conditionals(self, train_inc):
        latent = LatentState(
            indicators=np.zeros(train_inc.n, dtype=bool), sizes=np.zeros(train_inc.n)
        )
        theta, sigma2 = update_diffusion_block(
            train_inc, latent, 0.03, rng=np.random.default_rng(55)
        )
        gen = np.random.default_rng(55)
        mean, var = theta_conditional(train_inc, 0.03)
        theta_ref = mean + np.sqrt(var) * gen.standard_normal()
        shape, scale = sigma2_conditional(train_inc, theta_ref)
        sigma2_ref = scale / gen.gamma(shape)
        assert theta == pytest.approx(theta_ref, rel=1e-12)
        assert sigma2 == pytest.approx(sigma2_ref, rel=1e-12)

    def test_active_jumps_shift_residuals(self, train_inc):
        rng = np.random.default_rng(56)
        indicators = rng.random(train_inc.n) < 0.3
        sizes = rng.normal(-0.002, 0.017, train_inc.n)
        latent = LatentState(indicators=indicators, sizes=sizes)
        theta, sigma2 = update_diffusion_block(
            train_inc, latent, 0.03, rng=np.random.default_rng(57)
        )
        # manual route on the jump-adjusted increments with an inactive latent
        jump_part = np.where(latent.indicators, latent.sizes, 0.0)
        adj = IncrementSeries(d=train_inc.d - jump_part, dt=train_inc.dt)
        empty = LatentState(
            indicators=np.zeros(train_inc.n, dtype=bool), sizes=np.zeros(train_inc.n)
        )
        theta_ref, sigma2_ref = update_diffusion_block(
            adj, empty, 0.03, rng=np.random.default_rng(57)
        )
        assert theta == pytest.approx(theta_ref, rel=1e-12)
        assert sigma2 == pytest.approx(sigma2_ref, rel=1e-12)


class TestIncrementMoments:
    def test_worked_example(self):
        p = JumpParams(theta=0.25, sigma2=0.04, mu_z=-0.01, sigma2_z=0.0004, lambda_star=0.3)
        mean, var = increment_moments(p, 0.5)
        assert mean == pytest.approx(0.125 - 0.003, abs=1e-15)
        assert var == pytest.approx(0.02 + 0.00012 + 0.000021, abs=1e-15)

    def test_simulator_matches_moments(self):
        p = JumpParams(theta=0.25, sigma2=0.04, mu_z=-0.01, sigma2_z=0.0004, lambda_star=0.3)
        mean, var = increment_moments(p, DT)
        x = simulate_jump_increments(p, DT, 200_000, rng=np.random.default_rng(18))
        se_mean = x.std(ddof=1) / np.sqrt(x.size)
        m4 = np.mean((x - x.mean()) ** 4)
        se_var = np.sqrt((m4 - x.var(ddof=1) ** 2) / x.size)
        assert abs(x.mean() - mean) < 4 * se_mean
        assert abs(x.var(ddof=1) - var) < 4 * se_var

    def test_simulator_input_validation(self):
        with pytest.raises(ValueError):
            simulate_jump_increments(REF, DT, 0)
        with pytest.raises(ValueError):
            simulate_jump_increments(REF, -DT, 5)


class TestRunJumpGibbs:
    def test_shape_columns_and_determinism(self, train_inc):
        a = run_jump_gibbs(train_inc, n_keep=50, burn_in=10, seed=99)
        b = run_jump_gibbs(train_inc, n_keep=50, burn_in=10, seed=99)
        assert a.meta.model == "gbm-jump"
        assert a.columns == ("theta", "sigma2", "mu_z", "sigma2_z", "lambda_star", "n_jumps")
        assert len(a) == 50
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.jump_probs, b.jump_probs)

    def test_jump_probs_match_indicator_frequencies(self, train_inc):
        # jump_probs averages each step's jump probability over kept sweeps;
        # n_jumps counts the indicators drawn from those probabilities, so
        # its mean differs from their sum by Monte Carlo error alone: a
        # martingale difference of variance sum p*(1 - p) per sweep
        inc = IncrementSeries(d=train_inc.d[:60], dt=train_inc.dt[:60])
        chain = run_jump_gibbs(inc, n_keep=4000, burn_in=100, seed=3)
        probs = chain.jump_probs
        assert probs.shape == (inc.n,)
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        se = np.sqrt(np.sum(probs * (1.0 - probs)) / len(chain))
        assert abs(chain.column("n_jumps").mean() - probs.sum()) < 4.0 * se

    def test_pure_diffusion_data_gets_small_lambda(self):
        rng = np.random.default_rng(302)
        n = 1500
        dt = np.full(n, DT)
        d = 0.1 * dt + np.sqrt(0.0324 * dt) * rng.standard_normal(n)
        chain = run_jump_gibbs(IncrementSeries(d=d, dt=dt), n_keep=800, burn_in=200, seed=302)
        assert chain.column("lambda_star").mean() < 0.05

    def test_recovers_generating_parameters(self):
        true = JumpParams(
            theta=0.3, sigma2=0.008, mu_z=-0.003, sigma2_z=0.0003, lambda_star=0.35
        )
        n = 2500
        d = simulate_jump_increments(true, DT, n, rng=np.random.default_rng(1005))
        inc = IncrementSeries(d=d, dt=np.full(n, DT))
        chain = run_jump_gibbs(inc, n_keep=1500, burn_in=300, seed=5)
        for name, target in (
            ("sigma2", true.sigma2),
            ("lambda_star", true.lambda_star),
            ("mu_z", true.mu_z),
            ("sigma2_z", true.sigma2_z),
        ):
            lo, hi = np.quantile(chain.column(name), [0.025, 0.975])
            assert lo <= target <= hi, f"{name}: [{lo:.5g}, {hi:.5g}] misses {target}"

    def test_degenerate_data_rejected(self):
        dt = np.array([0.1, 0.2])
        with pytest.raises(ValueError, match="degenerate"):
            run_jump_gibbs(IncrementSeries(d=3.0 * dt, dt=dt), n_keep=5)

    def test_empty_data_reproduces_each_block_prior(self):
        # a jump prior unlike the diffusion one, so a block fed the wrong
        # prior shows in its marginal
        jump = GbmPrior(theta_mean=0.5, theta_var=0.04, ig_shape=3, ig_scale=0.02)
        empty = IncrementSeries(d=np.array([]), dt=np.array([]))
        chain = run_jump_gibbs(empty, JumpPrior(jump=jump), n_keep=4000, burn_in=10, seed=21)
        for name, law in (
            ("mu_z", stats.norm(0.5, 0.2)),
            ("sigma2_z", stats.invgamma(3.0, scale=0.02)),
            ("theta", stats.norm(0.0, 10.0)),
            ("sigma2", stats.invgamma(2.0, scale=0.001)),
        ):
            ks = stats.kstest(chain.column(name), law.cdf)
            assert ks.pvalue > 0.001, f"{name}: p={ks.pvalue:.2g}"

    def test_extreme_day_raises_no_warning(self):
        rng = np.random.default_rng(50)
        dt = np.full(50, DT)
        sd = np.sqrt(0.0324 * DT)
        d = 0.1 * DT + sd * rng.standard_normal(50)
        d[25] += 50.0 * sd
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = run_jump_gibbs(IncrementSeries(d=d, dt=dt), n_keep=400, burn_in=100, seed=50)
        assert np.all(np.isfinite(chain.draws))
        assert chain.jump_probs[25] == 1.0


# Asymmetric priors, unlike each other, so that a swapped prior or Beta
# exponent changes the target.
SKEWED = JumpPrior(
    GbmPrior(theta_mean=0.1, theta_var=4.0, ig_shape=3.0, ig_scale=0.02),
    GbmPrior(theta_mean=-0.01, theta_var=1e-3, ig_shape=4.0, ig_scale=1e-3),
    lambda_a=2.0,
    lambda_b=5.0,
)


def scipy_log_posterior(inc, p, prior):
    """log p(d | params) + log p(params) from scipy densities, J summed out."""
    sd0 = np.sqrt(p.sigma2 * inc.dt)
    no_jump = np.log1p(-p.lambda_star) + stats.norm.logpdf(inc.d, p.theta * inc.dt, sd0)
    jump = np.log(p.lambda_star) + stats.norm.logpdf(
        inc.d, p.theta * inc.dt + p.mu_z, np.sqrt(sd0**2 + p.sigma2_z)
    )
    dif, jmp = prior.diffusion, prior.jump
    return (
        logsumexp([no_jump, jump], axis=0).sum()
        + stats.norm.logpdf(p.theta, dif.theta_mean, np.sqrt(dif.theta_var))
        + stats.invgamma.logpdf(p.sigma2, dif.ig_shape, scale=dif.ig_scale)
        + stats.norm.logpdf(p.mu_z, jmp.theta_mean, np.sqrt(jmp.theta_var))
        + stats.invgamma.logpdf(p.sigma2_z, jmp.ig_shape, scale=jmp.ig_scale)
        + stats.beta.logpdf(p.lambda_star, prior.lambda_a, prior.lambda_b)
    )


class TestMarginalLogPosterior:
    """marginal_log_posterior is the scipy mixture log posterior up to a constant."""

    @pytest.mark.parametrize("calendar", [False, True], ids=["trading-dt", "calendar-dt"])
    def test_matches_scipy_up_to_a_constant(self, calendar):
        rng = np.random.default_rng(81)
        n = 40
        dt = np.full(n, DT) * np.where(calendar & (np.arange(n) % 5 == 4), 3.0, 1.0)
        d = 0.1 * dt + np.sqrt(0.02 * dt) * rng.standard_normal(n)
        d[[9, 27]] = [0.25, -0.30]  # outliers: log-odds in the hundreds there
        inc = IncrementSeries(d=d, dt=dt)
        points = [
            JumpParams(
                theta=rng.uniform(-1.0, 1.0),
                sigma2=rng.uniform(0.005, 0.03),
                mu_z=rng.uniform(-0.02, 0.02),
                sigma2_z=rng.uniform(1e-4, 1e-3),
                lambda_star=rng.uniform(0.05, 0.95),
            )
            for _ in range(20)
        ]
        # a tight jump law far from every increment: log-odds below -700
        far = JumpParams(theta=0.1, sigma2=0.02, mu_z=1.0, sigma2_z=1e-4, lambda_star=0.3)
        assert np.max(jump_indicator_prob(d, dt, far)) < math.exp(-700.0)
        got = np.array([marginal_log_posterior(inc, p, SKEWED) for p in [*points, far]])
        want = np.array([scipy_log_posterior(inc, p, SKEWED) for p in [*points, far]])
        assert np.all(np.isfinite(got))
        assert np.ptp(got - want) < 1e-9

    def test_lambda_on_the_boundary_rejected(self, train_inc):
        for lam in (0.0, 1.0):
            with pytest.raises(ValueError, match="lambda_star"):
                marginal_log_posterior(train_inc, _with(REF, lambda_star=lam))


def to_x(params):
    lam = params.lambda_star
    return (
        params.theta, math.log(params.sigma2), params.mu_z, math.log(params.sigma2_z),
        math.log(lam) - math.log1p(-lam),
    )


def from_x(x):
    theta, log_s2, mu_z, log_sz2, logit_lam = x.tolist()
    return JumpParams(theta, math.exp(log_s2), mu_z, math.exp(log_sz2), float(expit(logit_lam)))


def public_sweep(inc, params, prior, gen, move=None):
    """One sweep of run_jump_gibbs from the public conditionals, with
    JumpParams rebuilt after every block: first move(x) -> (x, accepted) on
    x = to_x(params) when a move is given, then (J, Z), lambda_star,
    (mu_z, sigma2_z) and (theta, sigma2). Returns the new params, the latent
    draw, whether the move's proposal was taken (None with no move) and the
    params the latent draw conditioned on."""
    accepted = None
    if move is not None:
        x, accepted = move(np.array(to_x(params)))
        if accepted:
            params = from_x(x)
    drawn_at = params
    latent = sample_latent(inc, params, gen)
    params = _with(params, lambda_star=update_lambda(latent.indicators, prior, gen))
    mu_z, sigma2_z = update_jump_moments(latent.active_sizes, params.sigma2_z, prior, gen)
    params = _with(params, mu_z=mu_z, sigma2_z=sigma2_z)
    theta, sigma2 = update_diffusion_block(inc, latent, params.sigma2, prior.diffusion, gen)
    return _with(params, theta=theta, sigma2=sigma2), latent, accepted, drawn_at


# Proper priors for the Geweke (2004) tests, so every checked moment exists.
GEWEKE_PRIOR = JumpPrior(GbmPrior(0, 1, 5, 0.16), GbmPrior(0, 1e-4, 5, 4e-4), 2, 5)
# A fixed t proposal (mode, factor, inverse) for the move in the Geweke
# tests: centred at the prior mean of x, scaled by its prior SDs.
_GEWEKE_SD = np.array([1.0, 0.47, 0.01, 0.47, 0.93])
GEWEKE_PROPOSAL = (
    np.array([0.0, -3.34, 0.0, -9.33, -1.08]), np.diag(_GEWEKE_SD), np.diag(1.0 / _GEWEKE_SD)
)


def geweke_start(gen):
    """Parameters drawn from GEWEKE_PRIOR."""
    dif, jmp = GEWEKE_PRIOR.diffusion, GEWEKE_PRIOR.jump
    return JumpParams(
        theta=gen.normal(dif.theta_mean, math.sqrt(dif.theta_var)),
        sigma2=dif.ig_scale / gen.gamma(dif.ig_shape),
        mu_z=gen.normal(jmp.theta_mean, math.sqrt(jmp.theta_var)),
        sigma2_z=jmp.ig_scale / gen.gamma(jmp.ig_shape),
        lambda_star=gen.beta(GEWEKE_PRIOR.lambda_a, GEWEKE_PRIOR.lambda_b),
    )


def geweke_data(params, dt, gen):
    """d ~ p(d | params) from numpy draws alone."""
    n = len(dt)
    hit = gen.random(n) < params.lambda_star
    d = params.theta * dt + np.sqrt(params.sigma2 * dt) * gen.standard_normal(n)
    return d + hit * (params.mu_z + np.sqrt(params.sigma2_z) * gen.standard_normal(n))


def geweke_z(rows):
    """batch_means_z of each column of rows, (theta, sigma2, mu_z, sigma2_z,
    lambda_star) draws, against its GEWEKE_PRIOR mean, with the variances as
    precisions."""
    dif, jmp = GEWEKE_PRIOR.diffusion, GEWEKE_PRIOR.jump
    lam_a, lam_b = GEWEKE_PRIOR.lambda_a, GEWEKE_PRIOR.lambda_b
    return {
        "theta": batch_means_z(rows[:, 0], dif.theta_mean),
        "1/sigma2": batch_means_z(1.0 / rows[:, 1], dif.ig_shape / dif.ig_scale),
        "mu_z": batch_means_z(rows[:, 2], jmp.theta_mean),
        "1/sigma2_z": batch_means_z(1.0 / rows[:, 3], jmp.ig_shape / jmp.ig_scale),
        "lambda_star": batch_means_z(rows[:, 4], lam_a / (lam_a + lam_b)),
    }


def weekend_steps(inc):
    """inc with every fifth step three times as long."""
    return IncrementSeries(d=inc.d, dt=inc.dt * np.where(np.arange(inc.n) % 5 == 4, 3.0, 1.0))


class TestMetropolisMove:
    def test_geweke_move_alone_keeps_the_prior(self):
        # Geweke (2004) successive-conditional simulator on the move by itself:
        # d ~ p(d | x), then one independence step x | d with a fixed
        # proposal. Its draws of x keep the prior law; the exact Gibbs blocks
        # would mask a wrong target if the whole sweep ran here.
        n, iters = 20, 20_000
        gen = np.random.default_rng(4)
        dt = np.full(n, DT)
        x = np.array(to_x(geweke_start(gen)))
        rows = np.empty((iters, 5))
        for i in range(iters):
            d = geweke_data(from_x(x), dt, gen)
            target = _Marginal(IncrementSeries(d=d, dt=dt), GEWEKE_PRIOR).move_target
            x, _, _ = _independence_step(x, GEWEKE_PROPOSAL, target, gen)
            rows[i] = x
        rows[:, [1, 3]] = np.exp(rows[:, [1, 3]])
        rows[:, 4] = expit(rows[:, 4])
        z = geweke_z(rows)
        assert all(abs(v) < 4.0 for v in z.values()), z

    @pytest.mark.parametrize("calendar", [False, True], ids=["trading-dt", "calendar-dt"])
    def test_gradient_matches_central_differences(self, train_inc, calendar):
        inc = weekend_steps(train_inc) if calendar else train_inc
        marginal = _Marginal(inc, SKEWED)
        rng = np.random.default_rng(6)
        for _ in range(3):
            x = np.array([0.3, -5.0, -0.002, -8.0, -0.5])
            x += rng.normal(0.0, [0.1, 0.2, 1e-3, 0.3, 0.3])
            h = np.diag(1e-6 * np.maximum(np.abs(x), 1.0))
            fd = [(marginal.move_target(x + dx)[0] - marginal.move_target(x - dx)[0])
                  / (2.0 * dx.sum()) for dx in h]
            assert marginal.gradient(x) == pytest.approx(fd, rel=1e-5, abs=1e-3)

    def test_overflowing_variance_rejects(self, train_inc):
        # a t tail or a Newton trial step can reach a variance that exp
        # cannot hold: the target is -inf there, so the step is refused
        marginal = _Marginal(train_inc, JumpPrior())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in ((0.3, -5.0, 0.0, 800.0, 0.0), (0.3, -800.0, 0.0, -8.0, 0.0)):
                assert marginal.move_target(np.array(x)) == (-math.inf, None)

    def test_off_below_250_increments(self, train_inc):
        assert _MOVE_MIN_N == 250
        for n, on in ((249, False), (250, True)):
            inc = IncrementSeries(d=train_inc.d[:n], dt=train_inc.dt[:n])
            rate = run_jump_gibbs(inc, n_keep=100, burn_in=0, seed=3).meta.accept_rate
            assert (rate is not None) == on
            assert rate is None or 0.0 < rate < 1.0

    def test_on_from_sweep_0_at_any_burn_in(self, train_inc):
        # the proposal is fixed before sweep 0, so burn-in only says where
        # recording starts: the kept rows are a tail of a burn-in 0 chain
        whole = run_jump_gibbs(train_inc, n_keep=12, burn_in=0, seed=8)
        assert whole.meta.accept_rate is not None
        for burn_in in (1, 7):
            chain = run_jump_gibbs(train_inc, n_keep=12 - burn_in, burn_in=burn_in, seed=8)
            assert chain.meta.accept_rate == whole.meta.accept_rate
            assert np.array_equal(chain.draws, whole.draws[burn_in:])

    def test_falls_back_to_plain_gibbs_when_minus_hessian_is_not_positive_definite(
        self, train_inc, monkeypatch
    ):
        # a gradient of x makes -H = -I, negative definite: Newton never
        # stops, and at its cap the sampler runs the conjugate blocks alone,
        # as on a short series
        monkeypatch.setattr(jumps._Marginal, "gradient", lambda self, x: x)
        x = np.array(to_x(_initial_params(train_inc, JumpPrior())))
        assert _laplace(_Marginal(train_inc, JumpPrior()), x) is None
        chain = run_jump_gibbs(train_inc, n_keep=10, burn_in=2, seed=9)
        draws, _, rate = reference_chain(train_inc, 10, 2, 9, JumpPrior())
        assert chain.meta.accept_rate is None and rate is None
        assert np.array_equal(chain.draws, draws)


class TestWholeSampler:
    def test_geweke_whole_sweep_keeps_the_prior(self):
        # Geweke (2004) successive-conditional simulator on the whole sweep:
        # d ~ p(d | params), then public_sweep, the loop TestSweepWiring pins
        # to run_jump_gibbs, with the move on a fixed proposal. The draws of
        # params keep the prior law only if every block conditions on the
        # right state under the right prior.
        n, iters = 20, 10_000
        gen = np.random.default_rng(1)
        dt = np.full(n, DT)
        params = geweke_start(gen)
        rows = np.empty((iters, 5))
        for i in range(iters):
            inc = IncrementSeries(d=geweke_data(params, dt, gen), dt=dt)
            target = _Marginal(inc, GEWEKE_PRIOR).move_target

            def move(x):
                x, _, accepted = _independence_step(x, GEWEKE_PROPOSAL, target, gen)
                return x, accepted

            params = public_sweep(inc, params, GEWEKE_PRIOR, gen, move)[0]
            rows[i] = (params.theta, params.sigma2, params.mu_z, params.sigma2_z,
                       params.lambda_star)
        z = geweke_z(rows)
        assert all(abs(v) < 4.0 for v in z.values()), z


def move_target(inc, prior, x):
    """marginal_log_posterior on x plus the Jacobian of x's transforms."""
    params = from_x(x)
    lam = params.lambda_star
    jacobian = x[1] + x[3] + math.log(lam) + math.log1p(-lam)
    return marginal_log_posterior(inc, params, prior) + jacobian


def t_move(inc, prior, proposal, gen):
    """The move(x) -> (x, accepted) of public_sweep that run_jump_gibbs makes,
    from marginal_log_posterior: one independence step with the t proposal
    (mode, factor, inverse), y = mode + factor @ (z*sqrt(5/w)), its density
    from a solve against factor."""
    mode, factor, _ = proposal

    def log_q(v):
        w = np.linalg.solve(factor, v - mode)
        return -0.5 * (_T_DF + 5) * math.log1p(w @ w / _T_DF)

    def move(x):
        current = move_target(inc, prior, x)
        y = mode + factor @ (gen.standard_normal(5) * math.sqrt(_T_DF / gen.chisquare(_T_DF)))
        log_ratio = move_target(inc, prior, y) - current + log_q(x) - log_q(y)
        if gen.random() < math.exp(min(log_ratio, 0.0)):
            return y, True
        return x, False

    return move


def reference_chain(inc, n_keep, burn_in, seed, prior):
    """run_jump_gibbs rebuilt as public_sweep under prior. On a series of at
    least _MOVE_MIN_N increments every sweep from the first starts with
    t_move, fed the proposal that _laplace finds from the chain's start,
    unless it finds none. Returns the draws, the mean over kept sweeps of
    each step's jump probability and the acceptance rate."""
    gen = np.random.default_rng(seed)
    params = _initial_params(inc, prior)
    move = None
    if inc.n >= _MOVE_MIN_N:
        proposal = _laplace(_Marginal(inc, prior), np.array(to_x(params)))
        move = None if proposal is None else t_move(inc, prior, proposal, gen)
    moves, taken = 0, 0
    draws, probs = [], np.zeros(inc.n)
    for sweep in range(burn_in + n_keep):
        params, latent, accepted, drawn_at = public_sweep(inc, params, prior, gen, move)
        if accepted is not None:
            moves += 1
            taken += accepted
        if sweep >= burn_in:
            draws.append((params.theta, params.sigma2, params.mu_z, params.sigma2_z,
                          params.lambda_star, latent.n_jumps))
            probs += jump_indicator_prob(inc.d, inc.dt, drawn_at)
    return np.array(draws), probs / n_keep, taken / moves if moves else None


class TestSweepWiring:
    """The sampler's fused sweep draws exactly what the public conditionals do."""

    @pytest.mark.parametrize(
        "series, kw",
        [
            ("train", dict(seed=42)),
            ("train", dict(seed=7)),
            ("calendar", dict(seed=42)),
            ("empty", dict(seed=42)),
            ("one", dict(seed=42)),
            ("short", dict(seed=42)),
            ("train", dict(seed=42, burn_in=400)),
            ("calendar", dict(seed=7, burn_in=400)),
            ("train", dict(seed=42, prior=SKEWED)),
            ("train", dict(seed=42, burn_in=400, prior=SKEWED)),
            ("calendar", dict(seed=7, burn_in=400, prior=SKEWED)),
            ("calendar", dict(seed=3, burn_in=400, prior=SKEWED)),
        ],
        ids=["seed42", "seed7", "calendar-dt", "empty", "one-increment", "short-series",
             "move-seed42", "move-calendar-dt", "skewed-seed42", "skewed-move-seed42",
             "skewed-move-calendar-dt-seed7", "skewed-move-calendar-dt-seed3"],
    )
    def test_matches_reference_loop(self, train_inc, series, kw):
        inc = {
            "train": train_inc,
            "calendar": weekend_steps(train_inc),
            "empty": IncrementSeries(d=np.array([]), dt=np.array([])),
            "one": IncrementSeries(d=np.array([0.012]), dt=np.array([DT])),
            "short": IncrementSeries(d=train_inc.d[:50], dt=train_inc.dt[:50]),
        }[series]
        kw = {"burn_in": 5, "prior": JumpPrior(), **kw}
        chain = run_jump_gibbs(inc, n_keep=20, **kw)
        draws, probs, rate = reference_chain(inc, 20, kw["burn_in"], kw["seed"], kw["prior"])
        assert (chain.meta.accept_rate is None) == (inc.n < _MOVE_MIN_N)
        assert chain.meta.accept_rate == rate
        assert np.array_equal(chain.draws, draws)
        # the same probabilities, evaluated along another route
        assert chain.jump_probs == pytest.approx(probs, rel=1e-12, abs=1e-15)
