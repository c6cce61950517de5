import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from gbmjump import (
    ChainMeta,
    DataError,
    GbmParams,
    GbmPrior,
    IncrementSeries,
    PosteriorChain,
    gibbs,
    jumps,
    mle_fit,
    read_chain_csv,
    run_gibbs,
    run_jump_gibbs,
    write_chain_csv,
)
from gbmjump.gibbs import CHAIN_COLUMNS

from conftest import FUZZ, batch_means_z, edits_of, loads_or_names_file
from oracle import (
    sample_sigma2_given_theta,
    sample_theta_given_sigma2,
    sigma2_conditional,
    theta_conditional,
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


def public_sweep(inc, theta, sigma2, prior, gen):
    """One sweep of run_gibbs from the oracle's conditionals."""
    theta = sample_theta_given_sigma2(inc, sigma2, prior, gen)
    return theta, sample_sigma2_given_theta(inc, theta, prior, gen)


class TestWholeSampler:
    @pytest.mark.parametrize("series", ["train", "calendar", "empty", "one"])
    def test_public_sweep_matches_run_gibbs(self, train_inc, series):
        inc = {
            "train": train_inc,
            "calendar": IncrementSeries(
                d=np.array([0.01, -0.02, 0.015]), dt=np.array([0.1, 0.3, 0.1])
            ),
            "empty": EMPTY,
            "one": ONE,
        }[series]
        prior = GbmPrior(theta_mean=0.2, theta_var=2.0, ig_shape=3.0, ig_scale=0.05)
        chain = run_gibbs(inc, prior, n_keep=20, burn_in=5, seed=42)
        gen = np.random.default_rng(42)
        start = mle_fit(inc) if inc.n >= 2 else GbmParams(prior.theta_mean, prior.sigma2_center())
        theta, sigma2 = start.theta, start.sigma2
        draws = []
        for _ in range(25):
            theta, sigma2 = public_sweep(inc, theta, sigma2, prior, gen)
            draws.append((theta, sigma2))
        assert np.array_equal(chain.draws, draws[5:])

    def test_geweke_whole_sweep_keeps_the_prior(self):
        # Geweke (2004) successive-conditional simulator: d ~ p(d | theta,
        # sigma2), then one public_sweep, the loop pinned to run_gibbs above.
        # Its draws keep the prior law only if both blocks are right.
        prior = GbmPrior(theta_mean=0.0, theta_var=1.0, ig_shape=5.0, ig_scale=0.16)
        n, iters = 20, 10_000
        gen = np.random.default_rng(1)
        dt = np.full(n, 1.0 / 252.0)
        theta, sigma2 = gen.normal(0.0, 1.0), 0.16 / gen.gamma(5.0)
        rows = np.empty((iters, 2))
        for i in range(iters):
            d = theta * dt + np.sqrt(sigma2 * dt) * gen.standard_normal(n)
            theta, sigma2 = public_sweep(IncrementSeries(d=d, dt=dt), theta, sigma2, prior, gen)
            rows[i] = (theta, 1.0 / sigma2)
        z = {
            "theta": batch_means_z(rows[:, 0], prior.theta_mean),
            "1/sigma2": batch_means_z(rows[:, 1], prior.ig_shape / prior.ig_scale),
        }
        assert all(abs(v) < 4.0 for v in z.values()), z


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


JUMP_ROW = [0.1, 0.04, -0.01, 1e-4, 0.3, 1.0]


class TestChainModel:
    """A chain's columns come from its model: draws of another width, or a
    model without columns, are rejected with a message naming the model. An
    n_jumps draw must be a whole number >= 0."""

    @pytest.mark.parametrize(
        "model, row, message",
        [
            ("gbm-jump", JUMP_ROW[:2], "gbm-jump draws must be rows of "
                                       r"\(theta, sigma2, mu_z, sigma2_z, lambda_star, n_jumps\)"),
            ("gbm", JUMP_ROW, r"gbm draws must be rows of \(theta, sigma2\)"),
            ("garch", JUMP_ROW[:2], "model must be one of gbm, gbm-jump, got 'garch'"),
            ("gbm-jump", [*JUMP_ROW[:5], -2.5], "n_jumps draw not a whole number >= 0"),
            ("gbm-jump", [*JUMP_ROW[:5], -1.0], "n_jumps draw not a whole number >= 0"),
            ("gbm-jump", [*JUMP_ROW[:5], 1.5], "n_jumps draw not a whole number >= 0"),
        ],
        ids=["two-column-jump", "six-column-gbm", "unknown-model", "n_jumps-negative-fraction",
             "n_jumps-negative", "n_jumps-fraction"],
    )
    def test_rejected(self, model, row, message):
        with pytest.raises(ValueError, match=message):
            PosteriorChain(
                draws=[row, row], meta=ChainMeta(model=model, burn_in=0, seed=None, data="0" * 8)
            )

    @pytest.mark.parametrize(
        "model, probs, message",
        [
            ("gbm", [0.5, 0.5], "a gbm chain has no jump_probs"),
            ("gbm", [5.0, -1.0, math.nan], "a gbm chain has no jump_probs"),
            ("gbm-jump", [5.0, -1.0, math.nan], r"jump_probs must be 1-D with every value in \[0, 1\]"),
            ("gbm-jump", [0.5, math.nan], r"jump_probs must be 1-D with every value in \[0, 1\]"),
            ("gbm-jump", [[0.5, 0.5]], r"jump_probs must be 1-D with every value in \[0, 1\]"),
        ],
        ids=["gbm-chain", "gbm-chain-bad-values", "outside-unit-interval", "nan", "two-d"],
    )
    def test_jump_probs_rejected(self, model, probs, message):
        row = JUMP_ROW if model == "gbm-jump" else JUMP_ROW[:2]
        meta = ChainMeta(model=model, burn_in=0, seed=None, data="0" * 8)
        with pytest.raises(ValueError, match=message):
            PosteriorChain(draws=[row, row], meta=meta, jump_probs=probs)

    def test_frozen(self):
        """The checks run at construction, so a field is not reassigned: a
        jump chain relabelled gbm would write its (theta, sigma2) columns as a
        valid GBM chain file. replace builds a new chain and checks it again."""
        meta = ChainMeta(model="gbm-jump", burn_in=0, seed=None, data="0" * 8)
        chain = PosteriorChain(draws=[JUMP_ROW, JUMP_ROW], meta=meta)
        with pytest.raises(FrozenInstanceError):
            chain.meta = replace(meta, model="gbm")
        with pytest.raises(ValueError, match=r"gbm draws must be rows of \(theta, sigma2\)"):
            replace(chain, meta=replace(meta, model="gbm"))


VALID_META = dict(model="gbm", burn_in=0, seed=None, data="0123abcd")


class TestChainMeta:
    """ChainMeta holds every rule a chain file's header must meet, so a meta
    that exists can be written and read back; a field that breaks one is an
    error at construction naming the field and its value."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("burn_in", -5, "burn_in must be an integer >= 0, got -5$"),
            ("burn_in", 2.0, "burn_in must be an integer >= 0, got 2.0$"),
            ("seed", -3, "seed must be an integer >= 0, got -3$"),
            ("seed", np.random.SeedSequence(3), r"seed must be an integer >= 0, got SeedSequence\("),
            ("seed", True, "seed must be an integer >= 0, got True$"),
            ("data", "XYZ", "data must be 8 lowercase hex digits, got 'XYZ'$"),
            ("data", "0123ABCD", "data must be 8 lowercase hex digits, got '0123ABCD'$"),
            ("accept_rate", 1.5, r"accept_rate must be a number in \[0, 1\], got 1.5$"),
            ("accept_rate", math.nan, r"accept_rate must be a number in \[0, 1\], got nan$"),
            ("accept_rate", "0.5", r"accept_rate must be a number in \[0, 1\], got '0.5'$"),
        ],
        ids=["negative-burn_in", "float-burn_in", "negative-seed", "seed-sequence", "bool-seed",
             "short-data", "upper-case-data", "accept_rate-above-one", "nan-accept_rate",
             "text-accept_rate"],
    )
    def test_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ChainMeta(**{**VALID_META, field: value})

    @pytest.mark.parametrize("sampler", [run_gibbs, run_jump_gibbs], ids=["gbm", "gbm-jump"])
    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(seed=-1), "seed must be an integer >= 0, got -1$"),
            (dict(seed=np.random.SeedSequence(3)), r"seed must be an integer >= 0, got SeedSequence"),
            (dict(burn_in=-1), "burn_in must be an integer >= 0, got -1$"),
        ],
        ids=["negative-seed", "seed-sequence", "negative-burn_in"],
    )
    def test_samplers_refuse_before_any_sweep(self, monkeypatch, train_inc, sampler, kw, message):
        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(gibbs, "_draw_theta_sigma2", no_sweep)
        monkeypatch.setattr(jumps, "_draw_theta_sigma2", no_sweep)
        with pytest.raises(ValueError, match=message):
            sampler(train_inc, n_keep=10, **{"burn_in": 0, "seed": 1, **kw})


@st.composite
def chains(draw):
    """A PosteriorChain of one to four draws whose meta and draws the types
    accept: every variance within 1e-300..1e300, so that squaring sigma_z
    neither underflows nor overflows."""
    model = draw(st.sampled_from(sorted(CHAIN_COLUMNS)))
    meta = ChainMeta(
        model=model,
        burn_in=draw(st.integers(min_value=0)),
        seed=draw(st.none() | st.integers(min_value=0) | st.integers(0, 2**63 - 1).map(np.int64)),
        data=draw(st.text("0123456789abcdef", min_size=8, max_size=8)),
        accept_rate=draw(st.none() | st.floats(0.0, 1.0) | st.sampled_from([0, 1])),
    )
    real, positive = st.floats(-1e300, 1e300), st.floats(1e-300, 1e300)
    column = {
        "theta": real, "sigma2": positive, "mu_z": real, "sigma2_z": positive,
        "lambda_star": st.floats(0.0, 1.0), "n_jumps": st.integers(0, 2**53).map(float),
    }
    row = st.tuples(*[column[c] for c in CHAIN_COLUMNS[model].stored])
    return PosteriorChain(draws=draw(st.lists(row, min_size=1, max_size=4)), meta=meta)


class TestChainCsv:
    @FUZZ
    @given(chains())
    def test_every_chain_the_types_accept_round_trips(self, tmp_path, chain):
        # the file holds sigma_z, so sigma2_z comes back as its square: the
        # exported columns read back exactly, the stored ones to rounding
        path = tmp_path / "chain.csv"
        write_chain_csv(chain, path)
        back = read_chain_csv(path)
        assert back.meta == chain.meta
        for name in CHAIN_COLUMNS[chain.meta.model].exported:
            assert np.array_equal(back.column(name), chain.column(name)), name
        assert np.allclose(back.draws, chain.draws, rtol=1e-15, atol=0.0)

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
        assert back.meta == chain.meta  # accept_rate included
        body = np.loadtxt(path, delimiter=",", skiprows=7)
        header = path.read_text().splitlines()[6].split(",")
        assert len(header) == 8
        for i, name in enumerate(header):
            assert np.array_equal(body[:, i], back.column(name)), name
            assert np.array_equal(body[:, i], chain.column(name)), name

    def test_jump_export_resaved_with_15_digits_reads_back(self, tmp_path, train_inc):
        chain = run_jump_gibbs(train_inc, n_keep=200, burn_in=0, seed=5)
        path = tmp_path / "chain.csv"
        write_chain_csv(chain, path)
        lines = path.read_text().splitlines()
        body = [",".join(f"{float(v):.15g}" for v in line.split(",")) for line in lines[7:]]
        path.write_text("\n".join([*lines[:7], *body]) + "\n")
        back = read_chain_csv(path)
        for name in lines[6].split(","):
            assert np.allclose(back.column(name), chain.column(name), rtol=1e-14, atol=0), name

    def test_accept_rate_written_only_when_set_and_read_back(self, tmp_path, train_inc):
        short = IncrementSeries(d=train_inc.d[:50], dt=train_inc.dt[:50])  # too short for the move
        chain = run_jump_gibbs(short, n_keep=10, burn_in=0, seed=4)
        assert chain.meta.accept_rate is None
        path = tmp_path / "chain.csv"
        write_chain_csv(chain, path)
        assert "accept_rate" not in path.read_text()
        assert read_chain_csv(path).meta.accept_rate is None
        chain = replace(chain, meta=replace(chain.meta, accept_rate=0.2875))
        write_chain_csv(chain, path)
        assert path.read_text().splitlines()[5] == "# accept_rate: 0.2875"
        assert read_chain_csv(path).meta == chain.meta

    def test_header_block_present(self, tmp_path, train_inc):
        chain = run_gibbs(train_inc, n_keep=3, burn_in=0, seed=1)
        path = tmp_path / "chain.csv"
        write_chain_csv(chain, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# model: gbm"
        assert lines[4] == f"# data: {train_inc.digest()}"
        assert lines[5] == "theta,sigma2,mu,sigma"
        assert len(lines) == 6 + 3


def drop_last_column(lines):
    return [line if line.startswith("#") else line.rsplit(",", 1)[0] for line in lines]


def drop_last_value(lines):
    return lines[:6] + [line.rsplit(",", 1)[0] for line in lines[6:]]


def drop_header(key):
    return lambda lines: [line for line in lines if not line.startswith(f"# {key}:")]


def set_header(key, value):
    return lambda lines: [f"# {key}: {value}" if line.startswith(f"# {key}:") else line
                          for line in lines]


def repeat_first_column(lines):
    return [*lines[:5], *(line.split(",", 1)[0] + "," + line for line in lines[5:])]


def swap_mu_sigma(lines):
    """The mu and sigma columns swapped, names and values together."""
    def swap(line):
        theta, sigma2, mu, sigma = line.split(",")
        return ",".join((theta, sigma2, sigma, mu))

    return [*lines[:5], *map(swap, lines[5:])]


def other_keys(found):
    return f"header keys are {found}; write_chain_csv writes model, n_keep, burn_in, seed, data$"


def other_columns(found):
    return f"gbm chain columns are {found}; write_chain_csv writes theta, sigma2, mu, sigma$"


class TestChainCsvValidation:
    """read_chain_csv refuses a file whose header keys or columns differ from
    what write_chain_csv writes, or whose values are malformed, with a
    DataError naming the file."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (drop_last_column, other_columns("theta, sigma2, mu")),
            (lambda lines: lines[:-3], "7 draws, header says n_keep 10"),
            (lambda lines: lines[:6], "no draws"),
            (lambda lines: ["# model: garch", *lines[1:]],
             "header model must be one of gbm, gbm-jump, got 'garch'$"),
            (drop_last_value, "3 values per row, 4 column names"),
            (lambda lines: [*lines[:6], "abc" + lines[6][lines[6].index(","):], *lines[7:]],
             "could not convert string 'abc'"),
            (lambda lines: [*lines[:-1], lines[-1].rsplit(",", 1)[0]],
             "number of columns changed from 4 to 3"),
            (drop_header("model"), other_keys("n_keep, burn_in, seed, data")),
            (drop_header("n_keep"), other_keys("model, burn_in, seed, data")),
            (drop_header("burn_in"), other_keys("model, n_keep, seed, data")),
            (drop_header("seed"), other_keys("model, n_keep, burn_in, data")),
            (drop_header("data"), other_keys("model, n_keep, burn_in, seed")),
            (repeat_first_column, other_columns("theta, theta, sigma2, mu, sigma")),
            (lambda lines: [*lines[:4], "# seed: 5", *lines[4:]],
             other_keys("model, n_keep, burn_in, seed, seed, data")),
            (set_header("burn_in", -5), "header burn_in must be an integer >= 0, got -5$"),
            (set_header("seed", -3), "header seed must be an integer >= 0, got -3$"),
            (set_header("data", "40bb005"), "header data must be 8 lowercase hex .* '40bb005'$"),
            (set_header("data", "40BB0051"), "header data must be 8 lowercase hex .* '40BB0051'$"),
            (set_header("data", "0x40bb00"), "header data must be 8 lowercase hex .* '0x40bb00'$"),
            (lambda lines: [*lines[:5], "# note: x", *lines[5:]],
             other_keys("model, n_keep, burn_in, seed, data, note")),
            (lambda lines: [*lines[:2], lines[3], lines[2], *lines[4:]],
             other_keys("model, n_keep, seed, burn_in, data")),
            (swap_mu_sigma, other_columns("theta, sigma2, sigma, mu")),
            (lambda lines: [*lines[:6], "# note"], "could not convert string '# note'"),
        ],
        ids=["missing-column", "short", "no-rows", "unknown-model", "ragged",
             "non-numeric-cell", "short-last-row", "no-model", "no-n_keep", "no-burn_in",
             "no-seed", "no-data", "repeated-column", "repeated-key", "negative-burn_in",
             "negative-seed", "short-data", "upper-case-data", "prefixed-data", "unknown-key",
             "swapped-keys", "swapped-columns", "comment-body"],
    )
    def test_rejected(self, tmp_path, train_inc, edit, message):
        path = tmp_path / "chain.csv"
        write_chain_csv(run_gibbs(train_inc, n_keep=10, burn_in=0, seed=4), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "# n_keep: 10" and lines[5] == "theta,sigma2,mu,sigma"
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(DataError, match=message) as err:
            read_chain_csv(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_jump_chain_without_model_line_rejected(self, tmp_path, train_inc):
        """A jump chain without its model line is not read as a GBM chain of
        the jump fit's diffusion draws."""
        path = tmp_path / "chain.csv"
        write_chain_csv(run_jump_gibbs(train_inc, n_keep=10, burn_in=0, seed=4), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# model: gbm-jump"
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(DataError) as err:
            read_chain_csv(path)
        assert str(err.value) == (
            f"{path}: header keys are n_keep, burn_in, seed, data, accept_rate; "
            "write_chain_csv writes model, n_keep, burn_in, seed, data, accept_rate"
        )

    @pytest.mark.parametrize(
        "key, value",
        [("n_keep", "5e3"), ("burn_in", "x"), ("seed", "1.5"),
         ("n_keep", "010"), ("burn_in", "+1_000"), ("seed", "4_2")],
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
        with pytest.raises(DataError) as err:
            read_chain_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "value, shown",
        [("x", "'x'"), ("1.5", "1.5"), ("nan", "nan"), ("", "''"), ("0.8_3", "'0.8_3'")],
        ids=["x", "1.5", "nan", "", "0.8_3"],
    )
    def test_malformed_accept_rate_names_file_and_key(self, tmp_path, train_inc, value, shown):
        """A value that is not a number is quoted as read; a number outside
        [0, 1] as parsed."""
        path = tmp_path / "chain.csv"
        chain = run_jump_gibbs(train_inc, n_keep=10, burn_in=0, seed=4)
        write_chain_csv(chain, path)
        lines = path.read_text().splitlines()
        assert lines[5].startswith("# accept_rate: ")
        lines[5] = f"# accept_rate: {value}"
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: header accept_rate must be a number in [0, 1], got {shown}"
        with pytest.raises(DataError) as err:
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
            ("n_jumps", lambda v: "-2.5", "n_jumps draw not a whole number >= 0"),
            ("n_jumps", lambda v: repr(float(v) + 0.5), "n_jumps draw not a whole number >= 0"),
        ],
        ids=["nan-theta", "zero-sigma_z", "lambda-above-one",
             "negated-sigma_z", "doubled-sigma", "shifted-mu", "negative-n_jumps",
             "fractional-n_jumps"],
    )
    def test_bad_jump_draw_rejected(self, tmp_path, train_inc, column, edit, message):
        """edit rewrites the column's value in the first row only."""
        path = tmp_path / "chain.csv"
        write_chain_csv(run_jump_gibbs(train_inc, n_keep=10, burn_in=0, seed=4), path)
        lines = path.read_text().splitlines()
        row = lines[7].split(",")
        at = lines[6].split(",").index(column)
        row[at] = edit(row[at])
        path.write_text("\n".join([*lines[:7], ",".join(row), *lines[8:]]) + "\n")
        with pytest.raises(DataError, match=message) as err:
            read_chain_csv(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"sigma_z": "1e200"}, "non-finite sigma2_z draw"),
            ({"theta": "1.5e308", "sigma2": "1.6e308"}, "column mu disagrees"),
            ({"theta": "1e308", "mu": "-1e308"}, "column mu disagrees"),
        ],
        ids=["sigma_z-1e200", "theta-1.5e308", "mu-minus-1e308"],
    )
    def test_extreme_finite_draw_rejected_before_any_warning(
        self, tmp_path, train_inc, values, message
    ):
        # squaring sigma_z, deriving mu and comparing mu overflow here; under
        # the suite's warnings-as-errors a RuntimeWarning would come first
        path = tmp_path / "chain.csv"
        write_chain_csv(run_jump_gibbs(train_inc, n_keep=10, burn_in=0, seed=4), path)
        lines = path.read_text().splitlines()
        columns, row = lines[6].split(","), lines[7].split(",")
        for column, value in values.items():
            row[columns.index(column)] = value
        path.write_text("\n".join([*lines[:7], ",".join(row), *lines[8:]]) + "\n")
        with pytest.raises(DataError, match=message) as err:
            read_chain_csv(path)
        assert str(err.value).startswith(f"{path}: ")


VALID_CHAIN = b"""# model: gbm-jump
# n_keep: 2
# burn_in: 0
# seed: 4
# data: 0123abcd
# accept_rate: 0.25
theta,sigma2,mu,sigma,mu_z,sigma_z,lambda_star,n_jumps
0.1,0.04,0.12,0.2,-0.01,0.02,0.3,4.0
0.2,0.09,0.245,0.3,0.01,0.05,0.4,6.0
"""


class TestChainCsvFuzz:
    """Whatever the bytes, read_chain_csv reads them or raises a ValueError
    whose message starts with the path."""

    @FUZZ
    @given(st.binary(max_size=120))
    @example(VALID_CHAIN.replace(b"0.3,4.0", b"0." + b"3" * 131_073 + b",4.0"))
    @example(VALID_CHAIN.replace(b"# seed: 4", b"# seed: 4\xff"))
    @example(b"\n#")  # a body of comment rows alone: no draws, not an empty read
    def test_arbitrary_bytes(self, tmp_path, data):
        loads_or_names_file(read_chain_csv, tmp_path / "chain.csv", data)

    @FUZZ
    @given(edits_of(VALID_CHAIN))
    def test_edits_of_a_valid_file(self, tmp_path, data):
        loads_or_names_file(read_chain_csv, tmp_path / "chain.csv", data)
