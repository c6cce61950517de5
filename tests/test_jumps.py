import math
import warnings
from dataclasses import astuple
from functools import partial

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
    jumps,
    run_jump_gibbs,
    simulate_jump_increments,
)
from gbmjump.gbm import _substreams, _SuffStats
from gbmjump.gibbs import _draw_theta_sigma2
from gbmjump.jumps import (
    _MOVE_MIN_N,
    _MOVES,
    _T_DF,
    _derivatives,
    _independence_step,
    _initial_params,
    _lambda_beta,
    _laplace,
    _logit,
    _Marginal,
    _move_state,
    _NO_DATA,
    _offers,
    _size_sums,
)

from conftest import batch_means_z
from oracle import (
    increment_moments,
    sample_sigma2_given_theta,
    sample_theta_given_sigma2,
    sigma2_conditional,
    theta_conditional,
)

DT = 1.0 / 252.0
REF = JumpParams(theta=0.35, sigma2=0.008, mu_z=-0.002, sigma2_z=0.0003, lambda_star=0.36)


def _with(params: JumpParams, **kw) -> JumpParams:
    vals = {f: getattr(params, f) for f in ("theta", "sigma2", "mu_z", "sigma2_z", "lambda_star")}
    vals.update(kw)
    return JumpParams(**vals)


def trading_steps(inc):
    """inc as it is: on the bundled data, every step of one length."""
    return inc


def weekend_steps(inc):
    """inc with every fifth step three times as long."""
    return IncrementSeries(d=inc.d, dt=inc.dt * np.where(np.arange(inc.n) % 5 == 4, 3.0, 1.0))


def distinct_steps(inc):
    """inc with each step's length scaled by its own uniform(0.8, 1.25) draw,
    so that no two steps share a length."""
    dt = inc.dt * np.random.default_rng(17).uniform(0.8, 1.25, inc.n)
    assert np.unique(dt).size == inc.n
    return IncrementSeries(d=inc.d, dt=dt)


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


def scipy_log_densities(inc, p):
    """Each step's log (1 - lambda)*N(d; theta*dt, sigma2*dt) and
    log lambda*N(d; theta*dt + mu_z, sigma2*dt + sigma2_z), from scipy."""
    sd0 = np.sqrt(p.sigma2 * inc.dt)
    no_jump = np.log1p(-p.lambda_star) + stats.norm.logpdf(inc.d, p.theta * inc.dt, sd0)
    jump = np.log(p.lambda_star) + stats.norm.logpdf(
        inc.d, p.theta * inc.dt + p.mu_z, np.sqrt(sd0**2 + p.sigma2_z)
    )
    return no_jump, jump


def jump_indicator_prob(inc, params):
    """Each step's posterior jump probability, from scipy's log densities."""
    no_jump, jump = scipy_log_densities(inc, params)
    return expit(jump - no_jump)


def odds_e(inc, params):
    """E = exp(-max(L, -700)) of each step's jump log-odds L, the input of
    run_jump_gibbs's indicator draw, from _Marginal.neg_log_odds."""
    *diffusion_and_jump, lam = astuple(params)
    return np.exp(_Marginal(inc, JumpPrior()).neg_log_odds(*diffusion_and_jump, _logit(lam)))


def sweep_jump_prob(inc, params):
    """Each step's jump probability 1/(1 + E) as run_jump_gibbs draws with it."""
    return 1.0 / (1.0 + odds_e(inc, params))


# The oracle's latent block. It calls the private arithmetic that
# run_jump_gibbs's fused sweep calls, so TestSweepWiring can pin the sweep to
# it draw for draw and so check the order of the blocks, the state each
# conditions on, their priors and the random stream; the tests below check
# that arithmetic against the laws it draws from.
def latent_block(inc, params, gen):
    """(J, Z) given params and data, as what the later blocks read of them:
    the indicators, the _SuffStats of the active sizes as unit-length steps
    and the _SuffStats of d_i - J_i*Z_i. J_i = [u_i*(1 + E_i) < 1] from n
    uniforms. The sums of the sizes come from _size_sums, by groups of active
    steps. Equal steps are one group: the k active steps' sums of d^2, d and
    1 from the product with _Marginal's powers, then, for k > 0, two normals
    and, for k > 2, a chi-square with k - 2 degrees of freedom. Unequal
    steps: each active step is a group of one, with one normal, in step
    order."""
    indicators = gen.random(inc.n) * (1.0 + odds_e(inc, params)) < 1.0
    suff = _SuffStats.of(inc.d, inc.dt)
    if inc.n and np.all(inc.dt == inc.dt[0]):
        dt = float(inc.dt[0])
        s2, s1, k = (_Marginal(inc, JumpPrior()).powers @ indicators.astype(float)).tolist()
        k = int(k)
        if k == 0:
            return indicators, _SuffStats(0, 0.0, 0, 0.0), suff
        g1, g2 = gen.standard_normal(2)
        w = gen.chisquare(k - 2) if k > 2 else 0.0
        sums, draws = (s2, s1, k), (g1, g2 if k > 1 else 0.0, w)
    else:
        d, dt = inc.d[indicators], inc.dt[indicators]
        k = d.size
        sums, draws = (d * d, d, 1), (gen.standard_normal(k), 0.0, 0.0)
    total, squares, cross = _size_sums(sums, draws, dt, *astuple(params)[:4])
    total, squares, shift = (float(np.sum(x)) for x in (total, squares, (2.0 * cross - squares) / dt))
    resid = _SuffStats(suff.n, suff.sd - total, suff.st, suff.sdd - shift)
    return indicators, _SuffStats(k, total, k, squares), resid


def draw_jump_moments(sizes, sigma2_z, prior, gen):
    """(mu_z, sigma2_z) drawn from the active sizes as the sweep draws them:
    mu_z | sigma2_z, then sigma2_z | mu_z."""
    sizes = np.asarray(sizes, dtype=float)
    stats = _SuffStats(sizes.size, float(sizes.sum()), sizes.size, float(sizes @ sizes))
    return _draw_theta_sigma2(stats, sigma2_z, prior.jump, gen)


class TestIndicatorProb:
    """The sweep's jump probabilities 1/(1 + E) against scipy's densities."""

    def test_lambda_zero_and_one_shortcut(self):
        inc = IncrementSeries(d=np.array([-0.05, 0.01]), dt=np.full(2, DT))
        p0 = sweep_jump_prob(inc, _with(REF, lambda_star=0.0))
        p1 = sweep_jump_prob(inc, _with(REF, lambda_star=1.0))
        # the floor holds the log-odds at lambda_star 0 to -700
        assert np.all(p0 < 1e-300)
        assert np.array_equal(p1, [1.0, 1.0])

    def test_matches_direct_two_density_formula(self):
        # independent route: scipy normal pdfs combined in probability space,
        # for equal steps and for unequal ones
        d = np.array([-0.05, 0.01, 0.03])
        for dt in (np.full(3, DT), DT * np.array([1.0, 3.0, 1.0])):
            got = sweep_jump_prob(IncrementSeries(d=d, dt=dt), REF)
            num = REF.lambda_star * stats.norm.pdf(
                d, REF.theta * dt + REF.mu_z, np.sqrt(REF.sigma2 * dt + REF.sigma2_z)
            )
            den = num + (1.0 - REF.lambda_star) * stats.norm.pdf(
                d, REF.theta * dt, np.sqrt(REF.sigma2 * dt)
            )
            assert got == pytest.approx(num / den, abs=1e-10)

    def test_far_tail_saturates_not_nan(self):
        p = sweep_jump_prob(IncrementSeries(d=np.array([-5.0, 5.0]), dt=np.full(2, DT)), REF)
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_tails_saturate_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = sweep_jump_prob(IncrementSeries(d=np.array([-5.0, 5.0]), dt=np.full(2, DT)), REF)
            # exp(-log_odds) would overflow here: lambda_star's logit alone is -737
            tiny = sweep_jump_prob(IncrementSeries(d=np.zeros(1), dt=np.full(1, DT)),
                                   _with(REF, lambda_star=1e-320))
        assert np.array_equal(p, [1.0, 1.0])
        assert 0.0 <= tiny[0] < 1e-300

    @settings(max_examples=200)
    @given(
        d=st.floats(min_value=-0.5, max_value=0.5),
        lam_lo=st.floats(min_value=0.05, max_value=0.45),
        lam_hi=st.floats(min_value=0.55, max_value=0.95),
    )
    def test_bounded_and_monotone_in_lambda(self, d, lam_lo, lam_hi):
        inc = IncrementSeries(d=np.array([d]), dt=np.array([DT]))
        p_lo = sweep_jump_prob(inc, _with(REF, lambda_star=lam_lo))[0]
        p_hi = sweep_jump_prob(inc, _with(REF, lambda_star=lam_hi))[0]
        assert 0.0 <= p_lo <= 1.0 and 0.0 <= p_hi <= 1.0
        assert p_hi >= p_lo


def size_conditional(d, dt, params):
    """(m, v) of Z_i | J_i = 1 from the precision-weighted normal formula."""
    base_var = params.sigma2 * dt
    v = 1.0 / (1.0 / params.sigma2_z + 1.0 / base_var)
    return v * (params.mu_z / params.sigma2_z + (d - params.theta * dt) / base_var), v


def sizes_behind(d, dt, draws, params):
    """The sizes Z_i = m_i + sqrt(v_i)*z_i (size_conditional) of one group of
    active steps whose sums _size_sums gives at draws = (g1, g2, W):
    z = g1*e1 + g2*e2 + sqrt(W)*u, with e1 = 1/sqrt(k), e2 along d - mean(d)
    and u a unit vector orthogonal to both."""
    k = d.size
    g1, g2, w = draws
    basis = np.column_stack((np.ones(k), d - d.mean(), np.linspace(-1.0, 1.0, k) ** 2))
    e = np.linalg.qr(basis[:, :min(k, 3)])[0]
    # QR's columns may point either way: e1 along +1 and e2 along d - mean(d)
    e *= np.sign(e.T @ basis[:, :e.shape[1]]).diagonal()
    z = g1 * e[:, 0]
    if k > 1:
        z += g2 * e[:, 1]
    if k > 2:
        z += math.sqrt(w) * e[:, 2]
    m, v = size_conditional(d, dt, params)
    return m + np.sqrt(v) * z


class TestSampleLatent:
    """The latent block's draws: the indicators, then the sums of the sizes
    from _Marginal.jump_stats, by groups of active steps (_size_sums)."""

    def test_active_sizes_match_precision_weighted_normal(self):
        # identical increments, each a group of one, as unequal steps are:
        # every Z_i | J_i = 1 shares the same conditional Normal(m, v), and
        # each group's sum Z^2 and sum d*Z are Z_i^2 and d_i*Z_i
        n = 100_000
        d = np.full(n, -0.04)
        z = np.random.default_rng(31).standard_normal(n)
        sizes, squares, cross = _size_sums((d * d, d, 1), (z, 0.0, 0.0), np.full(n, DT),
                                           *astuple(REF)[:4])
        m, v = size_conditional(d[0], DT, REF)
        ks = stats.kstest(sizes, stats.norm(m, np.sqrt(v)).cdf)
        assert ks.statistic < 0.006
        assert squares == pytest.approx(sizes * sizes, rel=1e-12)
        assert cross == pytest.approx(d * sizes, rel=1e-12)

    def test_inactive_sizes_zero_after_n_uniforms_then_k_normals(self, train_inc):
        # unequal steps: no size is drawn or held for an inactive step
        inc = weekend_steps(train_inc)
        gen = np.random.default_rng(32)
        indicators, sizes, _ = latent_block(inc, REF, gen)
        k = int(np.count_nonzero(indicators))
        assert 0 < k < inc.n
        assert sizes.n == k
        twin = np.random.default_rng(32)
        twin.random(inc.n)
        twin.standard_normal(k)
        assert gen.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 50])
    def test_equal_steps_draw_two_normals_then_a_chi_square(self, train_inc, k):
        # equal steps: no size is drawn; k = 0 draws nothing, k > 0 two
        # normals and k > 2 then a chi-square with k - 2 degrees of freedom
        active = np.zeros(train_inc.n)
        active[:k] = 1.0
        gen = np.random.default_rng(32)
        (count, *_), _ = _Marginal(train_inc, JumpPrior()).jump_stats(
            active, *astuple(REF)[:4], gen)
        assert count == k
        twin = np.random.default_rng(32)
        if k > 0:
            twin.standard_normal(2)
        if k > 2:
            twin.chisquare(k - 2)
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_indicator_frequency_tracks_probability(self):
        n = 100_000
        inc = IncrementSeries(d=np.full(n, -0.02), dt=np.full(n, DT))
        indicators, *_ = latent_block(inc, REF, np.random.default_rng(33))
        p = jump_indicator_prob(inc, REF)[0]
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(indicators.mean() - p) < 4 * se


class TestDiffusionBlock:
    """The (theta, sigma2) draw on the statistics of d - J*Z that
    _Marginal.jump_stats returns."""

    def test_no_jumps_reduces_to_plain_conditionals(self, train_inc):
        # with no active step, on equal steps and on unequal ones
        for inc in (train_inc, weekend_steps(train_inc)):
            _, suff = _Marginal(inc, JumpPrior()).jump_stats(
                np.zeros(inc.n), *astuple(REF)[:4], np.random.default_rng(54))
            theta, sigma2 = _draw_theta_sigma2(suff, 0.03, GbmPrior(), np.random.default_rng(55))
            gen = np.random.default_rng(55)
            mean, var = theta_conditional(inc, 0.03)
            theta_ref = mean + np.sqrt(var) * gen.standard_normal()
            shape, scale = sigma2_conditional(inc, theta_ref)
            sigma2_ref = scale / gen.gamma(shape)
            assert theta == pytest.approx(theta_ref, rel=1e-12)
            assert sigma2 == pytest.approx(sigma2_ref, rel=1e-12)

    def test_active_jumps_shift_residuals(self, train_inc):
        # the statistics jump_stats returns are those of the sizes its draws
        # stand for (sizes_behind) and of d - J*Z, for equal steps (one
        # group) and for unequal ones (a group per active step), at k = 1, 2,
        # 3 and 451 active steps
        rng = np.random.default_rng(56)
        for inc in (train_inc, weekend_steps(train_inc)):
            equal = bool(np.all(inc.dt == inc.dt[0]))
            marginal = _Marginal(inc, JumpPrior())
            for k in (1, 2, 3, 451):
                on = np.zeros(inc.n, dtype=bool)
                on[rng.choice(inc.n, k, replace=False)] = True
                gen = np.random.default_rng(57)
                sizes, resid = marginal.jump_stats(on.astype(float), *astuple(REF)[:4], gen)
                twin = np.random.default_rng(57)
                d, dt = inc.d[on], inc.dt[on]
                if equal:
                    g1, g2 = twin.standard_normal(2)
                    z = sizes_behind(d, dt, (g1, g2, twin.chisquare(k - 2) if k > 2 else 0.0), REF)
                else:
                    z = np.array([sizes_behind(d[i:i + 1], dt[i], (g, 0.0, 0.0), REF)[0]
                                  for i, g in enumerate(twin.standard_normal(k))])
                assert gen.bit_generator.state == twin.bit_generator.state
                shifted = inc.d.copy()
                shifted[on] -= z
                assert sizes == pytest.approx((k, z.sum(), k, z @ z), rel=1e-12)
                assert resid == pytest.approx(_SuffStats.of(shifted, inc.dt), rel=1e-12)


class TestSizeSums:
    """_Marginal.jump_stats draws the sums the conjugate blocks read, by
    groups of active steps: one group on equal steps, a group per active step
    on unequal ones. Their law given J is that of the sums of per-step sizes."""

    @pytest.mark.parametrize("k", [1, 2, 3, 50, "equal-d", "weekend", "distinct"])
    def test_matches_per_step_sizes(self, train_inc, k):
        inc = IncrementSeries(d=train_inc.d[:60], dt=train_inc.dt[:60])
        if k == "equal-d":  # every active d the same: sum d*z has one direction
            inc, k = IncrementSeries(d=np.full(60, -0.03), dt=np.full(60, DT)), 5
        elif k in ("weekend", "distinct"):  # unequal steps: 50 groups of one
            inc, k = {"weekend": weekend_steps, "distinct": distinct_steps}[k](inc), 50
        active = np.zeros(inc.n)
        active[:k] = 1.0
        marginal, gen, reps = _Marginal(inc, JumpPrior()), np.random.default_rng(61), 20_000
        # plain tuples in _SuffStats' field order (n, sd, st, sdd)
        got = np.array([
            (sizes_sd, sizes_sdd, resid_sd, resid_sdd)
            for (_, sizes_sd, _, sizes_sdd), (_, resid_sd, _, resid_sdd) in (
                marginal.jump_stats(active, *astuple(REF)[:4], gen) for _ in range(reps))
        ])
        # brute force: one size per active step from its conditional normal
        d, dt = inc.d[:k], inc.dt[:k]
        m, v = size_conditional(d, dt, REF)
        z = m + np.sqrt(v) * gen.standard_normal((reps, k))
        suff = marginal.stats
        want = np.column_stack((
            z.sum(axis=1), (z * z).sum(axis=1),
            suff.sd - z.sum(axis=1), suff.sdd - ((2.0 * d - z) * z / dt).sum(axis=1),
        ))
        for name, a, b in zip(("sum Z", "sum Z^2", "sd", "sdd"), got.T, want.T):
            p_value = stats.ks_2samp(a, b).pvalue
            assert p_value > 1e-3, f"{name}: p={p_value:.2g}"

    def test_no_active_step_leaves_the_statistics(self, train_inc):
        marginal = _Marginal(train_inc, JumpPrior())
        sizes, resid = marginal.jump_stats(
            np.zeros(train_inc.n), *astuple(REF)[:4], np.random.default_rng(62))
        assert sizes == _NO_DATA
        assert resid == marginal.stats


class TestLambdaConditional:
    """(a, b) of the Beta conditional of lambda_star given k jumps in n steps,
    as the sweep draws it."""

    def test_worked_example(self):
        a, b = _lambda_beta(544, 1511, JumpPrior())
        assert (a, b) == (545.0, 968.0)
        assert a / (a + b) == pytest.approx(0.3602115003304693, abs=1e-15)

    def test_no_jumps_returns_prior_plus_n(self):
        assert _lambda_beta(0, 10, JumpPrior()) == (1.0, 11.0)

    def test_empty_returns_prior(self):
        assert _lambda_beta(0, 0, JumpPrior(lambda_a=2.0, lambda_b=5.0)) == (2.0, 5.0)


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
        # the sweep draws mu_z then sigma2_z as the diffusion conditionals
        # do on the sizes as unit steps, draw for draw
        z = np.random.default_rng(13).normal(-0.003, 0.02, 300)
        prior = JumpPrior(jump=GbmPrior(theta_mean=0.5, theta_var=0.04, ig_shape=3, ig_scale=0.02))
        got = draw_jump_moments(z, 0.0004, prior, np.random.default_rng(14))
        gen = np.random.default_rng(14)
        mu_z = sample_theta_given_sigma2(unit_steps(z), 0.0004, prior.jump, rng=gen)
        sigma2_z = sample_sigma2_given_theta(unit_steps(z), mu_z, prior.jump, rng=gen)
        assert got == pytest.approx((mu_z, sigma2_z), rel=1e-12)

    def test_update_with_no_active_reduces_to_prior(self):
        rng = np.random.default_rng(40)
        draws = np.array(
            [draw_jump_moments([], 0.01, JumpPrior(), rng) for _ in range(20000)]
        )
        mu_draws, s2_draws = draws[:, 0], draws[:, 1]
        assert abs(mu_draws.mean()) < 4 * 10.0 / np.sqrt(len(mu_draws))
        assert mu_draws.std(ddof=1) == pytest.approx(10.0, rel=0.05)
        ks = stats.kstest(s2_draws, stats.invgamma(2.0, scale=0.001).cdf)
        assert ks.statistic < 0.012


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

    @pytest.mark.parametrize("lam", [1.0, 0.3, 0.0])
    def test_simulator_draws_three_substreams_in_order(self, lam):
        # diffusion noise, hits and sizes (at hits only) from substreams 0, 1
        # and 2 of rng's generator, in time order
        p = JumpParams(theta=0.1, sigma2=0.04, mu_z=-0.1, sigma2_z=4e-4, lambda_star=lam)
        steps = np.linspace(1.0, 3.0, 40) / 252
        substream = _substreams(np.random.default_rng(5))
        want = substream(0).standard_normal(40) * np.sqrt(steps) * np.sqrt(p.sigma2) + p.theta * steps
        hit = substream(1).random(40) < lam
        want[hit] += substream(2).standard_normal(np.count_nonzero(hit)) * np.sqrt(p.sigma2_z) + p.mu_z
        assert hit.any() == (lam > 0.0) and hit.all() == (lam == 1.0)
        got = simulate_jump_increments(p, steps, 40, rng=5)
        assert got.tobytes() == want.tobytes()

    def test_simulator_input_validation(self):
        with pytest.raises(ValueError):
            simulate_jump_increments(REF, DT, 0)
        for dt in (-DT, -1.0, 0.0, math.nan, math.inf, [DT, math.nan, DT]):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                simulate_jump_increments(REF, dt, 3)

    def test_simulator_names_a_dt_of_the_wrong_shape(self):
        # 2 steps for 5 increments, no steps, and steps as a column: each used
        # to fail inside numpy's broadcasting
        for dt in ([DT, DT], [], np.full((5, 1), DT)):
            with pytest.raises(ValueError) as info:
                simulate_jump_increments(REF, dt, 5)
            assert str(info.value) == ("dt must be a scalar or a 1-d array of n = 5 steps, "
                                       f"got an array of shape {np.shape(dt)}")


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

    def test_jump_variance_starts_at_the_variance_of_d_on_equal_steps(self, train_inc):
        # on equal steps the MLE's diffusion share is the whole variance of
        # d, so the excess over it would leave sigma2_z at its 1e-6 floor
        start = _initial_params(train_inc, JumpPrior())
        assert start.sigma2_z == float(np.var(train_inc.d)) > 1e-6

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
    no_jump, jump = scipy_log_densities(inc, p)
    dif, jmp = prior.diffusion, prior.jump
    return (
        logsumexp([no_jump, jump], axis=0).sum()
        + stats.norm.logpdf(p.theta, dif.theta_mean, np.sqrt(dif.theta_var))
        + stats.invgamma.logpdf(p.sigma2, dif.ig_shape, scale=dif.ig_scale)
        + stats.norm.logpdf(p.mu_z, jmp.theta_mean, np.sqrt(jmp.theta_var))
        + stats.invgamma.logpdf(p.sigma2_z, jmp.ig_shape, scale=jmp.ig_scale)
        + stats.beta.logpdf(p.lambda_star, prior.lambda_a, prior.lambda_b)
    )


class TestMoveTarget:
    """_Marginal.move_target less the Jacobian of x's transforms is the scipy
    mixture log posterior up to a constant, at one point and at k points."""

    @pytest.mark.parametrize("steps", [trading_steps, weekend_steps, distinct_steps],
                             ids=["trading-dt", "calendar-dt", "distinct-dt"])
    def test_matches_scipy_up_to_a_constant(self, steps):
        rng = np.random.default_rng(81)
        n = 40
        dt = steps(IncrementSeries(d=np.zeros(n), dt=np.full(n, DT))).dt
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
        no_jump, jump = scipy_log_densities(inc, far)
        assert np.max(jump - no_jump) < -700.0
        params = [*points, far]
        want = np.array([scipy_log_posterior(inc, p, SKEWED) for p in params])
        xs = np.array([to_x(p) for p in params])
        lam = np.array([p.lambda_star for p in params])
        jacobian = xs[:, 1] + xs[:, 3] + np.log(lam) + np.log1p(-lam)
        # a variance of exp(-700), on the edge where the target refuses it
        bad = np.array(to_x(REF))
        bad[1] = -700.0
        marginal = _Marginal(inc, SKEWED)
        one = np.array([marginal.move_target(x)[0] for x in xs])
        block = marginal.move_target(np.vstack((xs, bad)))[0]
        for got in (one, block[:-1]):
            assert np.all(np.isfinite(got))
            assert np.ptp(got - jacobian - want) < 1e-9
        assert block[-1] == -math.inf
        assert marginal.move_target(bad) == (-math.inf, None)


def to_x(params):
    lam = params.lambda_star
    return (
        params.theta, math.log(params.sigma2), params.mu_z, math.log(params.sigma2_z),
        math.log(lam) - math.log1p(-lam),
    )


def from_x(x):
    theta, log_s2, mu_z, log_sz2, logit_lam = x.tolist()
    return JumpParams(theta, math.exp(log_s2), mu_z, math.exp(log_sz2), float(expit(logit_lam)))


def reference_sweep(inc, params, prior, gen, move=None):
    """One sweep of run_jump_gibbs from the oracle's blocks and the sweep's
    lambda_star and jump-moment draws, with JumpParams rebuilt after every
    block: first move(x) -> (x, accepted) on x = to_x(params) when a move is
    given, then (J, Z), lambda_star, (mu_z, sigma2_z) and (theta, sigma2).
    Returns the new params, the indicators, whether the move's proposal was
    taken (None with no move) and the params the latent draw conditioned on."""
    accepted = None
    if move is not None:
        x, accepted = move(np.array(to_x(params)))
        if accepted:
            params = from_x(x)
    drawn_at = params
    indicators, sizes, resid = latent_block(inc, params, gen)
    k = int(np.count_nonzero(indicators))
    params = _with(params, lambda_star=float(gen.beta(*_lambda_beta(k, indicators.size, prior))))
    mu_z, sigma2_z = _draw_theta_sigma2(sizes, params.sigma2_z, prior.jump, gen)
    params = _with(params, mu_z=mu_z, sigma2_z=sigma2_z)
    theta, sigma2 = _draw_theta_sigma2(resid, params.sigma2, prior.diffusion, gen)
    return _with(params, theta=theta, sigma2=sigma2), indicators, accepted, drawn_at


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


def geweke_step(inc, x, streams):
    """(x, taken) after one independence step of the sampler on inc's data
    under GEWEKE_PRIOR with GEWEKE_PROPOSAL, its offer drawn from streams."""
    marginal = _Marginal(inc, GEWEKE_PRIOR)
    state = _move_state(marginal, GEWEKE_PROPOSAL, x, np.empty(inc.n))
    state, taken = _independence_step(state, next(_offers(marginal, GEWEKE_PROPOSAL, streams, 1)))
    return state[0], taken


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


class TestMetropolisMove:
    def test_geweke_move_alone_keeps_the_prior(self, monkeypatch):
        # Geweke (2004) successive-conditional simulator on the move by itself:
        # d ~ p(d | x), then one independence step x | d with a fixed
        # proposal. Its draws of x keep the prior law; the exact Gibbs blocks
        # would mask a wrong target if the whole sweep ran here. The data
        # change on every iteration, so each offer is a block of one.
        monkeypatch.setattr(jumps, "_BLOCK", 1)
        n, iters = 20, 20_000
        gen = np.random.default_rng(4)
        streams = proposal_streams(gen)
        dt = np.full(n, DT)
        x = np.array(to_x(geweke_start(gen)))
        rows = np.empty((iters, 5))
        for i in range(iters):
            d = geweke_data(from_x(x), dt, gen)
            x, _ = geweke_step(IncrementSeries(d=d, dt=dt), x, streams)
            rows[i] = x
        rows[:, [1, 3]] = np.exp(rows[:, [1, 3]])
        rows[:, 4] = expit(rows[:, 4])
        z = geweke_z(rows)
        assert all(abs(v) < 4.0 for v in z.values()), z

    def test_stencil_recovers_a_quadratic(self, train_inc, monkeypatch):
        # on a quadratic target, central and forward differences are exact
        # but for rounding: the stencil gives its value, gradient and
        # Hessian, here with curvatures from 1.5e2 to 2.5e6, as at the
        # bundled data's mode, and every pair of coordinates correlated
        x0 = np.array([0.3, -5.0, -0.002, -8.0, -0.5])
        grad = np.array([2.0, -30.0, 500.0, 4.0, -1.5])
        sd = np.array([0.05, 0.07, 7e-4, 0.07, 0.09])
        minus_h = np.linalg.inv(np.outer(sd, sd) * (0.3 + 0.7 * np.eye(5)))

        def quadratic(self, x, out=None):
            dx = x - x0
            return 7.0 + dx @ grad - 0.5 * ((dx @ minus_h) * dx).sum(axis=-1), None

        monkeypatch.setattr(jumps._Marginal, "move_target", quadratic)
        value, g, h = _derivatives(_Marginal(train_inc, JumpPrior()), x0)
        assert value == 7.0
        assert g == pytest.approx(grad, rel=1e-8)
        assert h == pytest.approx(minus_h, rel=1e-6, abs=1e-9 * np.abs(minus_h).max())

    @pytest.mark.parametrize("calendar", [False, True], ids=["trading-dt", "calendar-dt"])
    def test_gradient_vanishes_at_the_laplace_mode(self, train_inc, calendar):
        # one-point central differences at a tenth of the stencil's step,
        # independent of the stencil, find no slope at the mode: in units of
        # the proposal's scale, factor.T @ g, it is at most 6e-6 here, and
        # about 1 one scale away from the mode
        inc = weekend_steps(train_inc) if calendar else train_inc
        marginal = _Marginal(inc, SKEWED)
        mode, factor, _ = _laplace(marginal, np.array(to_x(_initial_params(inc, SKEWED))))
        h = np.diag(1e-6 * np.maximum(np.abs(mode), 1.0))
        g = np.array([(marginal.move_target(mode + dx)[0] - marginal.move_target(mode - dx)[0])
                      / (2.0 * dx.sum()) for dx in h])
        assert np.abs(factor.T @ g).max() < 1e-4

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

    @pytest.mark.parametrize("n", [50, 249])
    def test_short_chains_do_not_depend_on_the_cycle_length(self, train_inc, monkeypatch, n):
        # below _MOVE_MIN_N the move is off and every sweep is a whole one, so
        # a short series' chain keeps its bytes at any cycle length
        inc = IncrementSeries(d=train_inc.d[:n], dt=train_inc.dt[:n])
        chains = []
        for moves in (1, 2, 3, 5):
            monkeypatch.setattr(jumps, "_MOVES", moves)
            chains.append(run_jump_gibbs(inc, n_keep=40, burn_in=7, seed=5))
        for chain in chains:
            assert chain.meta.accept_rate is None
            assert np.array_equal(chain.draws, chains[0].draws)
            assert np.array_equal(chain.jump_probs, chains[0].jump_probs)

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
        # a target of |x|^2/2 has -H = -I, negative definite: Newton never
        # stops, and at its cap the sampler runs the conjugate blocks alone,
        # as on a short series
        monkeypatch.setattr(jumps._Marginal, "move_target",
                            lambda self, x, out=None: (0.5 * (x * x).sum(axis=-1), None))
        x = np.array(to_x(_initial_params(train_inc, JumpPrior())))
        assert _laplace(_Marginal(train_inc, JumpPrior()), x) is None
        chain = run_jump_gibbs(train_inc, n_keep=10, burn_in=2, seed=9)
        draws, _, rate = reference_chain(train_inc, 10, 2, 9, JumpPrior())
        assert chain.meta.accept_rate is None and rate is None
        assert np.array_equal(chain.draws, draws)


class TestOfferBlocks:
    """The move's offers, drawn and evaluated _BLOCK at a time."""

    @pytest.mark.parametrize("steps", [trading_steps, weekend_steps, distinct_steps],
                             ids=["trading-dt", "calendar-dt", "distinct-dt"])
    def test_block_matches_one_point_evaluations(self, train_inc, steps):
        # equal steps take one product for the block, unequal steps go row by
        # row; a row whose sigma2 overflows is -inf in either. Each row of P,
        # at one point and in the block, is every step's jump probability
        # from the oracle's scipy densities.
        inc = steps(train_inc)
        marginal = _Marginal(inc, SKEWED)
        xs = np.array([0.3, -5.0, -0.002, -8.0, -0.5]) + np.random.default_rng(12).normal(
            0.0, [0.1, 0.2, 1e-3, 0.3, 0.3], (8, 5))
        xs[5, 1] = 800.0
        probs = np.full((8, inc.n), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, rows = marginal.move_target(xs, probs)
        assert rows is probs and values.shape == (8,)
        for i, x in enumerate(xs):
            value, row = marginal.move_target(x, np.empty(inc.n))
            if i == 5:
                assert value == values[i] == -math.inf and row is None
            else:
                want = jump_indicator_prob(inc, from_x(x))
                assert values[i] == pytest.approx(value, rel=1e-12, abs=0.0)
                assert row == pytest.approx(want, rel=1e-12, abs=0.0)
                assert probs[i] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_chain_never_takes_an_overflowing_offer(self, train_inc, monkeypatch):
        # every other offer's sigma2 overflows: its target is -inf, and were
        # it taken the chain would hold exp(800), which math.exp cannot make.
        # Every offer block is edited, the capped last one too, but not the
        # Laplace fit's stencil of 1 + 2*5 + 10 = 21 points.
        target = jumps._Marginal.move_target
        blocks = []

        def overflowing(self, x, out=None):
            if x.ndim == 2 and len(x) != 21:
                x[::2, 1] = 800.0
                blocks.append(len(x))
            return target(self, x, out)

        monkeypatch.setattr(jumps._Marginal, "move_target", overflowing)
        chain = run_jump_gibbs(train_inc, n_keep=200, burn_in=0, seed=5)
        assert sum(blocks) == 200 and blocks[-1] < jumps._BLOCK
        assert np.all(chain.column("sigma2") < 1.0)
        assert 0.0 < chain.meta.accept_rate <= 0.5

    @pytest.mark.parametrize("seed", [42, 7])
    def test_block_length_leaves_the_chain(self, train_inc, monkeypatch, seed):
        chains = {}
        for block in (1, 7, jumps._BLOCK):
            monkeypatch.setattr(jumps, "_BLOCK", block)
            chains[block] = run_jump_gibbs(train_inc, n_keep=60, burn_in=5, seed=seed)
        *others, default = chains.values()
        assert default.meta.accept_rate is not None
        for chain in others:
            assert np.array_equal(chain.draws, default.draws)
            assert chain.meta.accept_rate == default.meta.accept_rate
            assert np.max(np.abs(chain.jump_probs - default.jump_probs)) <= 1e-12


class TestWholeSampler:
    def test_geweke_whole_sweep_keeps_the_prior(self, monkeypatch):
        # Geweke (2004) successive-conditional simulator on the whole sweep:
        # d ~ p(d | params), then reference_sweep, the loop TestSweepWiring pins
        # to run_jump_gibbs, with the move on a fixed proposal. The draws of
        # params keep the prior law only if every block conditions on the
        # right state under the right prior. The data change on every
        # iteration, so each offer is a block of one.
        monkeypatch.setattr(jumps, "_BLOCK", 1)
        n, iters = 20, 10_000
        gen = np.random.default_rng(1)
        streams = proposal_streams(gen)
        dt = np.full(n, DT)
        params = geweke_start(gen)
        rows = np.empty((iters, 5))
        for i in range(iters):
            inc = IncrementSeries(d=geweke_data(params, dt, gen), dt=dt)
            move = partial(geweke_step, inc, streams=streams)
            params = reference_sweep(inc, params, GEWEKE_PRIOR, gen, move)[0]
            rows[i] = (params.theta, params.sigma2, params.mu_z, params.sigma2_z,
                       params.lambda_star)
        z = geweke_z(rows)
        assert all(abs(v) < 4.0 for v in z.values()), z


def proposal_streams(gen):
    """The generators of the move's normals, chi-squares and uniforms that
    run_jump_gibbs splits off gen: children 0, 1 and 2 of a SeedSequence
    whose entropy is four 32-bit words drawn from gen."""
    entropy = gen.integers(2**32, size=4)
    return [np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(k,)))
            for k in range(3)]


def t_move(inc, prior, proposal, streams):
    """The move(x) -> (x, accepted) of reference_sweep that run_jump_gibbs makes,
    from _Marginal.move_target, one point per call: one independence step
    with the t proposal (mode, factor, inverse), y = mode + factor @ z for
    z = g*sqrt(_T_DF/w), drawn one at a time: 5 normals g, a chi-square w and
    the uniform of the test each from its generator in streams
    (proposal_streams). factor @ z is summed elementwise in column order, as
    the sampler does; the proposal's density comes from a solve against
    factor."""
    mode, factor, _ = proposal
    normals, chisquares, uniforms = streams
    marginal = _Marginal(inc, prior)

    def log_q(v):
        w = np.linalg.solve(factor, v - mode)
        return -0.5 * (_T_DF + 5) * math.log1p(w @ w / _T_DF)

    def move(x):
        current = marginal.move_target(x)[0]
        z = normals.standard_normal(5) * math.sqrt(_T_DF / chisquares.chisquare(_T_DF))
        y = mode + (z * factor).sum(axis=1)
        log_ratio = marginal.move_target(y)[0] - current + log_q(x) - log_q(y)
        if uniforms.random() < math.exp(min(log_ratio, 0.0)):
            return y, True
        return x, False

    return move


def reference_chain(inc, n_keep, burn_in, seed, prior):
    """run_jump_gibbs rebuilt from t_move and reference_sweep under prior. On a
    series of at least _MOVE_MIN_N increments, t_move is fed the proposal that
    _laplace finds from the chain's start, unless it finds none, the chain
    then starts at the proposal's mode, and t_move's streams split off the
    chain's generator after that search; the sweeps run in cycles of _MOVES
    from the first: t_move alone in the first _MOVES - 1, its row counting n
    indicators drawn at its parameters, and the whole reference_sweep in the
    last. Without the move every sweep is a reference_sweep. Returns the
    draws, the mean over kept sweeps of each step's jump probability at the
    parameters its indicators were drawn at, and the acceptance rate."""
    gen = np.random.default_rng(seed)
    params = _initial_params(inc, prior)
    move = None
    if inc.n >= _MOVE_MIN_N:
        proposal = _laplace(_Marginal(inc, prior), np.array(to_x(params)))
        if proposal is not None:
            params = from_x(proposal[0])
            move = t_move(inc, prior, proposal, proposal_streams(gen))
    moves, taken = 0, 0
    draws, probs = [], np.zeros(inc.n)
    for sweep in range(burn_in + n_keep):
        if move is not None and sweep % _MOVES < _MOVES - 1:
            x, accepted = move(np.array(to_x(params)))
            params = from_x(x) if accepted else params
            indicators = gen.random(inc.n) < jump_indicator_prob(inc, params)
            drawn_at = params
        else:
            params, indicators, accepted, drawn_at = reference_sweep(inc, params, prior, gen, move)
        if accepted is not None:
            moves += 1
            taken += accepted
        if sweep >= burn_in:
            draws.append((params.theta, params.sigma2, params.mu_z, params.sigma2_z,
                          params.lambda_star, np.count_nonzero(indicators)))
            probs += jump_indicator_prob(inc, drawn_at)
    return np.array(draws), probs / n_keep, taken / moves if moves else None


class TestSweepWiring:
    """The sampler's fused sweep draws exactly what the test-local oracle does."""

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
            ("train", dict(seed=11, burn_in=3 * _MOVES + 1)),
            ("distinct", dict(seed=42)),
            ("distinct", dict(seed=7, burn_in=400, prior=SKEWED)),
        ],
        ids=["seed42", "seed7", "calendar-dt", "empty", "one-increment", "short-series",
             "move-seed42", "move-calendar-dt", "skewed-seed42", "skewed-move-seed42",
             "skewed-move-calendar-dt-seed7", "skewed-move-calendar-dt-seed3",
             "move-burn-in-off-cycle", "distinct-dt", "skewed-move-distinct-dt-seed7"],
    )
    def test_matches_reference_loop(self, train_inc, series, kw):
        inc = {
            "train": train_inc,
            "calendar": weekend_steps(train_inc),
            "distinct": distinct_steps(train_inc),
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

    @pytest.mark.parametrize("seed", [1, 42, 7])
    def test_advance_skips_exactly_the_uniforms(self, seed):
        # a move-only sweep of burn-in advances the chain's generator past the
        # n uniforms its indicators would take: after the move's substreams
        # are split off, every draw a sweep makes comes out as if they had
        # been drawn
        n = 1510
        skipped, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        for gen in (skipped, drawn):
            _substreams(gen)
        skipped.bit_generator.advance(n)
        drawn.random(n)
        for _ in range(3):
            for draw in (lambda g: g.standard_normal(2), lambda g: g.chisquare(57.0),
                         lambda g: g.beta(3.0, 9.0), lambda g: g.gamma(4.0),
                         lambda g: g.random(n)):
                assert np.array_equal(draw(skipped), draw(drawn))
        # both end at one position with the same 32-bit buffer flag; the
        # stale word that advance zeroes is read only while that flag is set
        for key in ("state", "has_uint32"):
            assert skipped.bit_generator.state[key] == drawn.bit_generator.state[key]

    def test_burn_in_draws_indicators_only_in_whole_sweeps(self, train_inc, monkeypatch):
        # with the move on, every kept sweep draws indicators, and of the 10
        # burn-in sweeps only the whole ones, the last of each cycle: 20 + 3
        calls = []
        indicators = jumps._Marginal.indicators

        def counted(self, *args):
            calls.append(1)
            return indicators(self, *args)

        monkeypatch.setattr(jumps._Marginal, "indicators", counted)
        chain = run_jump_gibbs(train_inc, n_keep=20, burn_in=10, seed=42)
        assert train_inc.n == 1510 and chain.meta.accept_rate is not None
        assert len(calls) == 20 + len(range(_MOVES - 1, 10, _MOVES)) == 23
