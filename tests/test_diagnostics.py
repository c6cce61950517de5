import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbmjump import pacf, summarize
from gbmjump.diagnostics import (
    quantiles,
    summarize_draws,
    summary_to_dict,
    write_summary_csv,
    write_summary_json,
)


class TestSummarizeDraws:
    def test_worked_example(self):
        s = summarize_draws([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == pytest.approx(3.0)
        assert s.sd == pytest.approx(1.5811388300841898, abs=1e-15)
        assert s.q2_5 == pytest.approx(1.1)
        assert s.q50 == pytest.approx(3.0)
        assert s.q97_5 == pytest.approx(4.9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            summarize_draws([1.0])
        with pytest.raises(ValueError):
            summarize_draws(np.ones((3, 3)))

    @settings(max_examples=100)
    @given(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=50
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, values, shuffler):
        base = summarize_draws(values)
        shuffler.shuffle(values)
        again = summarize_draws(values)
        # mean/sd accumulate in array order, so match to rounding error only
        for field in ("mean", "sd", "q2_5", "q50", "q97_5"):
            assert getattr(again, field) == pytest.approx(
                getattr(base, field), rel=1e-9, abs=1e-9
            )

    def test_quantiles_ordered(self):
        rng = np.random.default_rng(4)
        s = summarize_draws(rng.standard_normal(500))
        assert s.q2_5 <= s.q50 <= s.q97_5

    def test_matches_numpy_bit_for_bit_and_leaves_draws_unsorted(self):
        draws = np.random.default_rng(5).standard_normal(5001)
        before = draws.copy()
        s = summarize_draws(draws)
        q = np.quantile(draws, [0.025, 0.5, 0.975])
        assert (s.mean, s.sd, s.q2_5, s.q50, s.q97_5) == (
            draws.mean(), draws.std(ddof=1), q[0], q[1], q[2]
        )
        assert draws.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draws_rejected(self, bad):
        with pytest.raises(ValueError, match="draws must be finite"):
            summarize_draws([1.0, bad, 3.0])


def tie_rows(seed: int, shape: tuple, kind: str) -> np.ndarray:
    """Finite rows: distinct values, values from a pool of 3 (ties), or one value."""
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
    if kind == "ties":
        return rng.choice([-1.5, 0.0, 2.25], size=shape)
    return np.full(shape, rng.standard_normal())


class TestQuantiles:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 3000),
        rows=st.sampled_from([None, 1, 3]),
        levels=st.just((0.025, 0.5, 0.975))
        | st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=4),
        kind=st.sampled_from(["distinct", "ties", "equal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, rows=None, levels=(0.025, 0.5, 0.975), kind="distinct", seed=0)
    @example(n=3, rows=3, levels=[0.5], kind="ties", seed=1)
    @example(n=3000, rows=None, levels=[0.05, 0.95], kind="distinct", seed=2)
    @example(n=2999, rows=3, levels=[0.05, 0.95], kind="equal", seed=3)
    def test_equals_numpy_quantile_bit_for_bit(self, n, rows, levels, kind, seed):
        x = tie_rows(seed, (n,) if rows is None else (rows, n), kind)
        want = np.quantile(x, levels, axis=-1)
        got = quantiles(x, levels)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.all(np.diff(x, axis=-1) >= 0.0)  # sorted in place


class TestSummarize:
    def test_gbm_default_parameters(self, gbm_chain):
        summary = summarize(gbm_chain)
        assert tuple(summary) == ("mu", "sigma")
        assert summary["sigma"].mean == pytest.approx(
            np.sqrt(gbm_chain.column("sigma2")).mean()
        )

    def test_jump_default_parameters(self, jump_chain):
        summary = summarize(jump_chain)
        assert tuple(summary) == ("mu", "sigma", "mu_z", "sigma_z", "lambda_star")


class TestPacf:
    def test_ar1_recovers_coefficient(self):
        rng = np.random.default_rng(11)
        n, phi = 20_000, 0.5
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for i in range(1, n):
            x[i] = phi * x[i - 1] + rng.standard_normal()
        got = pacf(x, max_lag=5)
        assert got[0] == pytest.approx(phi, abs=0.05)
        assert np.all(np.abs(got[1:]) < 3.0 / np.sqrt(n))

    def test_white_noise_within_bounds(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(5000)
        got = pacf(x, max_lag=10)
        assert np.all(np.abs(got) < 3.0 / np.sqrt(x.size))

    def test_lag_one_equals_autocorrelation(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(400)
        c = x - x.mean()
        rho1 = np.dot(c[:-1], c[1:]) / np.dot(c, c)
        assert pacf(x, max_lag=1)[0] == pytest.approx(rho1, abs=1e-12)

    def test_matches_yule_walker_solve(self):
        # independent route: phi_kk is the last coefficient of the dense
        # Toeplitz Yule-Walker system at each order
        rng = np.random.default_rng(14)
        x = np.cumsum(rng.standard_normal(500)) + rng.standard_normal(500)
        max_lag = 12
        got = pacf(x, max_lag=max_lag)
        n = x.size
        c = x - x.mean()
        acov = np.array([np.dot(c[: n - k], c[k:]) / n for k in range(max_lag + 1)])
        rho = acov / acov[0]
        for k in range(1, max_lag + 1):
            toeplitz = np.array([[rho[abs(i - j)] for j in range(k)] for i in range(k)])
            phi = np.linalg.solve(toeplitz, rho[1 : k + 1])
            assert got[k - 1] == pytest.approx(phi[-1], abs=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_rejected(self, bad):
        with pytest.raises(ValueError, match="series must be finite"):
            pacf([1.0, bad, 3.0, 4.0, 5.0], max_lag=1)

    def test_length_and_variance_validation(self):
        with pytest.raises(ValueError):
            pacf(np.arange(5.0), max_lag=4)
        with pytest.raises(ValueError):
            pacf(np.ones(50), max_lag=3)
        with pytest.raises(ValueError):
            pacf(np.arange(50.0), max_lag=0)


class TestSummaryExports:
    def test_dict_round_trip(self, gbm_chain):
        summary = summarize(gbm_chain)
        data = summary_to_dict(summary)
        assert set(data) == {"mu", "sigma"}
        assert data["mu"]["mean"] == summary["mu"].mean

    def test_csv_export(self, tmp_path, gbm_chain):
        summary = summarize(gbm_chain)
        path = tmp_path / "summary.csv"
        write_summary_csv(summary, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "parameter,mean,sd,q2_5,q50,q97_5"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == "mu"
        assert float(cells[1]) == pytest.approx(summary["mu"].mean)

    def test_json_export(self, tmp_path, jump_chain):
        summary = summarize(jump_chain)
        path = tmp_path / "summary.json"
        write_summary_json(summary, path)
        data = json.loads(path.read_text())
        assert set(data) == {"mu", "sigma", "mu_z", "sigma_z", "lambda_star"}
        assert data["lambda_star"]["sd"] == pytest.approx(summary["lambda_star"].sd)
