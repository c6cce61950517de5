import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gbmjump import (
    GbmPrior,
    IncrementSeries,
    mle_fit,
    read_chain_csv,
    run_gibbs,
    run_jump_gibbs,
    sample_sigma2_given_theta,
    sample_theta_given_sigma2,
    sigma2_conditional,
    theta_conditional,
    write_chain_csv,
)

EMPTY = IncrementSeries(d=np.array([]), dt=np.array([]))
ONE = IncrementSeries(d=np.array([1.0]), dt=np.array([1.0]))


class TestThetaConditional:
    def test_no_data_returns_prior(self):
        mean, var = theta_conditional(EMPTY, sigma2=2.0)
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(100.0)

    def test_single_unit_increment(self):
        # default prior: mean = 1/(0.01*1 + 1), variance = 1/(0.01*1 + 1)
        mean, var = theta_conditional(ONE, sigma2=1.0)
        assert mean == pytest.approx(0.9900990099009901, abs=1e-15)
        assert var == pytest.approx(0.9900990099009901, abs=1e-15)

    def test_flat_prior_recovers_mle_drift(self):
        rng = np.random.default_rng(8)
        dt = np.full(200, 1.0 / 252.0)
        d = 0.12 * dt + np.sqrt(0.04 * dt) * rng.standard_normal(200)
        inc = IncrementSeries(d=d, dt=dt)
        fit = mle_fit(inc)
        mean, _ = theta_conditional(
            inc, sigma2=fit.sigma2, prior=GbmPrior(theta_var=1e12)
        )
        assert mean == pytest.approx(fit.theta, rel=1e-6)

    def test_informative_prior_shrinks_towards_prior_mean(self):
        prior = GbmPrior(theta_mean=5.0, theta_var=1e-6)
        mean, _ = theta_conditional(ONE, sigma2=1.0, prior=prior)
        assert mean == pytest.approx(5.0, abs=1e-3)

    def test_nonpositive_sigma2_rejected(self):
        with pytest.raises(ValueError):
            theta_conditional(ONE, sigma2=0.0)


class TestSigma2Conditional:
    def test_no_data_returns_prior(self):
        shape, scale = sigma2_conditional(EMPTY, theta=0.3)
        assert (shape, scale) == (2.0, 0.001)

    def test_worked_example(self):
        # one increment d=2, dt=1, theta=0: scale = 0.001 + (2^2)/2
        inc = IncrementSeries(d=np.array([2.0]), dt=np.array([1.0]))
        shape, scale = sigma2_conditional(inc, theta=0.0)
        assert shape == pytest.approx(2.5)
        assert scale == pytest.approx(2.001)

    def test_zero_residuals_leave_prior_scale(self):
        dt = np.array([0.4, 0.6])
        inc = IncrementSeries(d=1.5 * dt, dt=dt)
        shape, scale = sigma2_conditional(inc, theta=1.5)
        assert shape == pytest.approx(3.0)
        assert scale == pytest.approx(0.001, abs=1e-15)

    def test_scale_matches_residual_sum_oracle(self):
        rng = np.random.default_rng(21)
        dt = rng.uniform(0.001, 0.02, 50)
        d = rng.normal(0.0, 0.05, 50)
        inc = IncrementSeries(d=d, dt=dt)
        theta = 0.37
        _, scale = sigma2_conditional(inc, theta=theta)
        brute = 0.001 + 0.5 * float(np.sum((d - theta * dt) ** 2 / dt))
        assert scale == pytest.approx(brute, rel=1e-12)


class TestConditionalSamplers:
    def test_theta_draws_match_analytic_distribution(self):
        rng = np.random.default_rng(5)
        draws = np.array(
            [sample_theta_given_sigma2(ONE, 1.0, rng=rng) for _ in range(20000)]
        )
        mean, var = theta_conditional(ONE, 1.0)
        ks = stats.kstest(draws, stats.norm(mean, np.sqrt(var)).cdf)
        assert ks.statistic < 0.012

    def test_sigma2_draws_match_inverse_gamma(self):
        rng = np.random.default_rng(6)
        draws = np.array(
            [sample_sigma2_given_theta(ONE, 0.0, rng=rng) for _ in range(20000)]
        )
        shape, scale = sigma2_conditional(ONE, 0.0)
        ks = stats.kstest(draws, stats.invgamma(shape, scale=scale).cdf)
        assert ks.statistic < 0.012

    def test_prior_only_sigma2_mean(self):
        # IG(2, 0.001) has mean 0.001; the reciprocal is Gamma with finite moments
        rng = np.random.default_rng(7)
        draws = np.array(
            [sample_sigma2_given_theta(EMPTY, 0.0, rng=rng) for _ in range(20000)]
        )
        recip = 1.0 / draws
        se = recip.std(ddof=1) / np.sqrt(len(recip))
        assert abs(recip.mean() - 2.0 / 0.001) < 4 * se


class TestRunGibbs:
    def test_row_count_and_positivity(self, train_inc):
        chain = run_gibbs(train_inc, n_keep=200, burn_in=50, seed=1)
        assert len(chain) == 200
        assert np.all(chain.column("sigma2") > 0.0)

    def test_same_seed_is_bit_identical(self, train_inc):
        a = run_gibbs(train_inc, n_keep=100, burn_in=10, seed=123)
        b = run_gibbs(train_inc, n_keep=100, burn_in=10, seed=123)
        assert np.array_equal(a.draws, b.draws)

    def test_different_seeds_differ(self, train_inc):
        a = run_gibbs(train_inc, n_keep=100, burn_in=10, seed=1)
        b = run_gibbs(train_inc, n_keep=100, burn_in=10, seed=2)
        assert not np.array_equal(a.draws, b.draws)

    def test_posterior_concentrates_near_truth(self):
        rng = np.random.default_rng(13)
        n = 3000
        dt = np.full(n, 1.0 / 252.0)
        true_sigma2 = 0.0324
        d = 0.1 * dt + np.sqrt(true_sigma2 * dt) * rng.standard_normal(n)
        chain = run_gibbs(IncrementSeries(d=d, dt=dt), n_keep=2000, burn_in=200, seed=3)
        lo, hi = np.quantile(chain.column("sigma2"), [0.025, 0.975])
        assert lo <= true_sigma2 <= hi

    def test_empty_data_reproduces_prior(self):
        chain = run_gibbs(EMPTY, n_keep=20000, burn_in=10, seed=9)
        theta = chain.column("theta")
        se = 10.0 / np.sqrt(len(theta))
        assert abs(theta.mean()) < 4 * se
        assert theta.std(ddof=1) == pytest.approx(10.0, rel=0.05)

    def test_degenerate_data_rejected(self):
        dt = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="degenerate"):
            run_gibbs(IncrementSeries(d=2.0 * dt, dt=dt), n_keep=10, burn_in=0)

    def test_bad_run_lengths_rejected(self, train_inc):
        with pytest.raises(ValueError):
            run_gibbs(train_inc, n_keep=0)
        with pytest.raises(ValueError):
            run_gibbs(train_inc, n_keep=10, burn_in=-1)


class TestDriftDiffusion:
    def test_exact_mapping(self):
        chain = run_gibbs(EMPTY, n_keep=1, burn_in=0, seed=0)
        chain.draws[0] = (0.0, 4.0)
        assert chain.column("mu")[0] == pytest.approx(2.0)
        assert chain.column("sigma")[0] == pytest.approx(2.0)

    def test_matches_columns(self, gbm_chain):
        theta, sigma2 = gbm_chain.column("theta"), gbm_chain.column("sigma2")
        assert np.allclose(gbm_chain.column("mu"), theta + 0.5 * sigma2)
        assert np.allclose(gbm_chain.column("sigma"), np.sqrt(sigma2))

    @settings(max_examples=50)
    @given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=1e-6, max_value=4.0))
    def test_mu_exceeds_theta(self, theta, sigma2):
        chain = run_gibbs(EMPTY, n_keep=1, burn_in=0, seed=0)
        chain.draws[0] = (theta, sigma2)
        assert chain.column("mu")[0] > theta


class TestChainCsv:
    def test_round_trip(self, tmp_path, train_inc):
        chain = run_gibbs(train_inc, n_keep=25, burn_in=5, seed=77)
        path = tmp_path / "chain.csv"
        write_chain_csv(chain, path)
        back = read_chain_csv(path)
        assert back.meta.model == "gbm"
        assert back.meta.seed == 77
        assert back.meta.burn_in == 5
        assert np.array_equal(back.column("theta"), chain.column("theta"))
        assert np.array_equal(back.column("sigma2"), chain.column("sigma2"))

    def test_jump_exports_read_back_exactly(self, tmp_path, train_inc):
        chain = run_jump_gibbs(train_inc, n_keep=200, burn_in=0, seed=5)
        path = tmp_path / "chain.csv"
        write_chain_csv(chain, path)
        back = read_chain_csv(path)
        body = np.loadtxt(path, delimiter=",", skiprows=5)
        header = path.read_text().splitlines()[4].split(",")
        assert len(header) == 8
        for i, name in enumerate(header):
            assert np.array_equal(body[:, i], back.column(name)), name
            assert np.array_equal(body[:, i], chain.column(name)), name

    def test_jump_export_resaved_with_15_digits_reads_back(self, tmp_path, train_inc):
        chain = run_jump_gibbs(train_inc, n_keep=200, burn_in=0, seed=5)
        path = tmp_path / "chain.csv"
        write_chain_csv(chain, path)
        lines = path.read_text().splitlines()
        body = [",".join(f"{float(v):.15g}" for v in line.split(",")) for line in lines[5:]]
        path.write_text("\n".join([*lines[:5], *body]) + "\n")
        back = read_chain_csv(path)
        for name in lines[4].split(","):
            assert np.allclose(back.column(name), chain.column(name), rtol=1e-14, atol=0), name

    def test_header_block_present(self, tmp_path, train_inc):
        chain = run_gibbs(train_inc, n_keep=3, burn_in=0, seed=1)
        path = tmp_path / "chain.csv"
        write_chain_csv(chain, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# model: gbm"
        assert lines[4] == "theta,sigma2,mu,sigma"
        assert len(lines) == 5 + 3


def drop_last_column(lines):
    return [line if line.startswith("#") else line.rsplit(",", 1)[0] for line in lines]


def drop_last_value(lines):
    return lines[:5] + [line.rsplit(",", 1)[0] for line in lines[5:]]


class TestChainCsvValidation:
    """read_chain_csv rejects malformed files with a message naming the file."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (drop_last_column, "missing chain column.*sigma"),
            (lambda lines: lines[:-3], "7 draws, header says n_keep 10"),
            (lambda lines: lines[:5], "no draws"),
            (lambda lines: ["# model: garch", *lines[1:]], "unknown model 'garch'"),
            (drop_last_value, "3 values per row, 4 column names"),
        ],
        ids=["missing-column", "short", "no-rows", "unknown-model", "ragged"],
    )
    def test_rejected(self, tmp_path, train_inc, edit, message):
        path = tmp_path / "chain.csv"
        write_chain_csv(run_gibbs(train_inc, n_keep=10, burn_in=0, seed=4), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "# n_keep: 10" and lines[4] == "theta,sigma2,mu,sigma"
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError, match=message) as err:
            read_chain_csv(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "key, value", [("n_keep", "5e3"), ("burn_in", "x"), ("seed", "1.5")]
    )
    def test_malformed_header_integer_names_file_and_key(self, tmp_path, train_inc, key, value):
        path = tmp_path / "chain.csv"
        write_chain_csv(run_gibbs(train_inc, n_keep=10, burn_in=0, seed=4), path)
        lines = [
            f"# {key}: {value}" if line.startswith(f"# {key}:") else line
            for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: header {key} must be an integer, got '{value}'"
        with pytest.raises(ValueError) as err:
            read_chain_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "column, edit, message",
        [
            ("theta", lambda v: "nan", "non-finite theta draw"),
            ("sigma_z", lambda v: "0.0", "non-positive sigma2_z draw"),
            ("lambda_star", lambda v: "1.5", r"lambda_star draw outside \[0, 1\]"),
            ("sigma_z", lambda v: repr(-float(v)), "column sigma_z disagrees"),
            ("sigma", lambda v: repr(2.0 * float(v)), "column sigma disagrees"),
            ("mu", lambda v: repr(float(v) + 1.0), "column mu disagrees"),
        ],
        ids=["nan-theta", "zero-sigma_z", "lambda-above-one",
             "negated-sigma_z", "doubled-sigma", "shifted-mu"],
    )
    def test_bad_jump_draw_rejected(self, tmp_path, train_inc, column, edit, message):
        """edit rewrites the column's value in the first row only."""
        path = tmp_path / "chain.csv"
        write_chain_csv(run_jump_gibbs(train_inc, n_keep=10, burn_in=0, seed=4), path)
        lines = path.read_text().splitlines()
        row = lines[5].split(",")
        at = lines[4].split(",").index(column)
        row[at] = edit(row[at])
        path.write_text("\n".join([*lines[:5], ",".join(row), *lines[6:]]) + "\n")
        with pytest.raises(ValueError, match=message) as err:
            read_chain_csv(path)
        assert str(path) in str(err.value)
