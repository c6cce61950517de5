import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmjump import GbmParams, IncrementSeries, log_likelihood, mle_fit


def series_from(d, dt=None):
    d = np.asarray(d, dtype=float)
    if dt is None:
        dt = np.full(len(d), 1.0 / 252.0)
    return IncrementSeries(d=d, dt=np.asarray(dt, dtype=float))


def random_series(rng, n, theta=0.2, sigma2=0.09):
    dt = rng.uniform(0.5, 2.0, n) / 252.0
    d = theta * dt + np.sqrt(sigma2 * dt) * rng.standard_normal(n)
    return IncrementSeries(d=d, dt=dt)


class TestGbmParams:
    def test_mu_is_theta_plus_half_sigma2(self):
        assert GbmParams(theta=0.1, sigma2=0.04).mu == pytest.approx(0.12)

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ValueError):
            GbmParams(theta=0.0, sigma2=-1e-9)

    def test_degenerate_flag(self):
        assert GbmParams(theta=0.0, sigma2=0.0).degenerate
        assert not GbmParams(theta=0.0, sigma2=1e-12).degenerate


def one_step_logpdf(d, dt, params):
    """log_likelihood of the one-increment series (d, dt): the transition log-density."""
    return log_likelihood(series_from([d], [dt]), params)


class TestTransitionLogpdf:
    # frozen from scipy.stats.norm.logpdf, an independent implementation
    def test_standard_point(self):
        val = one_step_logpdf(0.0, 1.0, GbmParams(theta=0.0, sigma2=1.0))
        assert val == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_off_mean_point(self):
        val = one_step_logpdf(1.0, 1.0, GbmParams(theta=0.0, sigma2=4.0))
        assert val == pytest.approx(-1.737085713764618, abs=1e-12)

    def test_at_the_mean_only_normalizer_remains(self):
        params = GbmParams(theta=0.2, sigma2=0.09)
        step = 1.0 / 252.0
        val = one_step_logpdf(params.theta * step, step, params)
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi * params.sigma2 * step))

    def test_matches_scipy_on_a_grid(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        params = GbmParams(theta=0.13, sigma2=0.033)
        d = np.linspace(-0.2, 0.2, 41)
        step = np.full_like(d, 1.0 / 252.0)
        expected = scipy_stats.norm(
            params.theta * step, np.sqrt(params.sigma2 * step)
        ).logpdf(d)
        got = [one_step_logpdf(di, ti, params) for di, ti in zip(d, step)]
        assert np.allclose(got, expected, atol=1e-12)

    def test_degenerate_params_rejected(self):
        with pytest.raises(ValueError, match="sigma2 == 0"):
            one_step_logpdf(0.0, 1.0, GbmParams(theta=0.0, sigma2=0.0))

    def test_nonpositive_dt_rejected(self):
        # the series refuses dt <= 0, so log_likelihood never sees one
        with pytest.raises(ValueError):
            series_from([0.0], [0.0])


class TestLogLikelihood:
    def test_single_increment_equals_transition(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        params = GbmParams(theta=0.1, sigma2=0.2)
        inc = series_from([0.05], [0.7])
        expected = scipy_stats.norm(params.theta * 0.7, math.sqrt(params.sigma2 * 0.7)).logpdf(0.05)
        assert log_likelihood(inc, params) == pytest.approx(expected, abs=1e-12)

    def test_sum_over_terms(self):
        rng = np.random.default_rng(3)
        inc = random_series(rng, 10)
        params = GbmParams(theta=0.05, sigma2=0.1)
        brute = sum(one_step_logpdf(di, ti, params) for di, ti in zip(inc.d, inc.dt))
        assert log_likelihood(inc, params) == pytest.approx(brute, abs=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(IncrementSeries(d=np.array([]), dt=np.array([])), GbmParams(0.0, 1.0))

    @settings(max_examples=50)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_price_rescaling_leaves_likelihood_unchanged(self, scale):
        # increments are differences of logs, so a global price rescale is a no-op
        rng = np.random.default_rng(11)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 20)))
        d1 = np.diff(np.log(prices))
        d2 = np.diff(np.log(scale * prices))
        inc1 = series_from(d1)
        inc2 = series_from(d2)
        params = GbmParams(theta=0.1, sigma2=0.05)
        assert log_likelihood(inc1, params) == pytest.approx(
            log_likelihood(inc2, params), rel=1e-12, abs=1e-9
        )


class TestMleFit:
    def test_closed_form_on_small_series(self):
        inc = series_from([0.01, -0.02, 0.03], [0.1, 0.2, 0.1])
        fit = mle_fit(inc)
        sd, st_ = np.sum(inc.d), np.sum(inc.dt)
        assert fit.theta == pytest.approx(sd / st_)
        expected_s2 = (np.sum(inc.d**2 / inc.dt) - sd**2 / st_) / 3
        assert fit.sigma2 == pytest.approx(expected_s2)

    def test_deterministic_data_is_degenerate(self):
        # increments exactly proportional to dt: zero sample volatility
        dt = np.array([0.1, 0.2, 0.4])
        inc = IncrementSeries(d=3.0 * dt, dt=dt)
        fit = mle_fit(inc)
        assert fit.theta == pytest.approx(3.0)
        assert fit.sigma2 == 0.0
        assert fit.degenerate

    def test_needs_two_increments(self):
        with pytest.raises(ValueError):
            mle_fit(series_from([0.01]))

    def test_matches_dense_grid_argmax(self):
        rng = np.random.default_rng(7)
        inc = random_series(rng, 60)
        fit = mle_fit(inc)
        thetas = np.linspace(fit.theta - 1.0, fit.theta + 1.0, 121)
        sigmas = np.linspace(fit.sigma2 / 4, fit.sigma2 * 4, 121)
        values = np.array(
            [
                [log_likelihood(inc, GbmParams(t, s)) for s in sigmas]
                for t in thetas
            ]
        )
        i, j = np.unravel_index(np.argmax(values), values.shape)
        assert abs(thetas[i] - fit.theta) <= thetas[1] - thetas[0]
        assert abs(sigmas[j] - fit.sigma2) <= sigmas[1] - sigmas[0]

    def test_gradient_vanishes_at_mle(self):
        rng = np.random.default_rng(17)
        inc = random_series(rng, 80)
        fit = mle_fit(inc)
        scale = abs(log_likelihood(inc, fit))

        def ll(theta, sigma2):
            return log_likelihood(inc, GbmParams(theta, sigma2))

        h = 1e-6
        g_theta = (ll(fit.theta + h, fit.sigma2) - ll(fit.theta - h, fit.sigma2)) / (2 * h)
        g_sigma = (ll(fit.theta, fit.sigma2 + h * fit.sigma2)
                   - ll(fit.theta, fit.sigma2 - h * fit.sigma2)) / (2 * h * fit.sigma2)
        assert abs(g_theta) / scale < 1e-5
        assert abs(g_sigma) / scale < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-0.5, max_value=0.5),
        st.sampled_from([0.5, 0.9, 1.1, 2.0]),
    )
    def test_mle_beats_perturbations(self, seed, dtheta, s2_factor):
        rng = np.random.default_rng(seed)
        inc = random_series(rng, 30)
        fit = mle_fit(inc)
        best = log_likelihood(inc, fit)
        other = GbmParams(fit.theta + dtheta, fit.sigma2 * s2_factor)
        if other.theta == fit.theta and other.sigma2 == fit.sigma2:
            return
        assert best >= log_likelihood(inc, other) - 1e-9

    def test_vendored_series_mle(self, train_inc):
        fit = mle_fit(train_inc)
        assert fit.mu == pytest.approx(0.149, abs=0.002)
        assert fit.sigma == pytest.approx(0.183, abs=0.002)
