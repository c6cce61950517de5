import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gbmjump import (
    Band,
    ChainMeta,
    IncrementSeries,
    JumpParams,
    PosteriorChain,
    fitted_band,
    predictive_band,
    read_chain_csv,
    run_gibbs,
    simulate_jump_increments,
    write_band_csv,
    write_chain_csv,
)
from gbmjump import predict
from gbmjump.gbm import _substreams

DT = 1.0 / 252.0


def constant_chain(theta: float, sigma2: float, n: int) -> PosteriorChain:
    meta = ChainMeta(model="gbm", burn_in=0, seed=None, data="0" * 8)
    return PosteriorChain(draws=np.tile([theta, sigma2], (n, 1)), meta=meta)


class TestEnsembles:
    def test_forecast_grid_excludes_origin(self, gbm_chain):
        band = predictive_band(gbm_chain, 100.0, np.full(5, DT), rng=np.random.default_rng(1))
        assert band.grid[0] == pytest.approx(DT)
        assert len(band.grid) == 5
        assert band.grid[-1] == pytest.approx(5 * DT)

    def test_fitted_grid_starts_at_origin(self, gbm_chain, train_inc):
        band = fitted_band(gbm_chain, train_inc, x0=50.0, rng=np.random.default_rng(1))
        assert band.grid[0] == 0.0
        assert len(band.grid) == train_inc.n + 1
        assert band.lower[0] == band.mean[0] == band.upper[0] == 50.0

    def test_vanishing_volatility_gives_exponential_drift(self):
        chain = constant_chain(theta=0.1, sigma2=1e-12, n=2)
        band = predictive_band(chain, 100.0, np.full(40, DT), rng=np.random.default_rng(2))
        expect = 100.0 * np.exp(0.1 * band.grid)
        for row in (band.lower, band.mean, band.upper):
            assert np.allclose(row, expect, rtol=1e-4)

    def test_same_rng_is_reproducible(self, jump_chain, train_inc):
        steps = np.full(10, DT)
        a = predictive_band(jump_chain, 100.0, steps, rng=np.random.default_rng(9))
        b = predictive_band(jump_chain, 100.0, steps, rng=np.random.default_rng(9))
        assert band_bytes(a) == band_bytes(b)
        fa = fitted_band(jump_chain, train_inc, 100.0, rng=np.random.default_rng(9))
        fb = fitted_band(jump_chain, train_inc, 100.0, rng=np.random.default_rng(9))
        assert band_bytes(fa) == band_bytes(fb)

    def test_paths_scale_exactly_with_start_price(self, gbm_chain):
        steps = np.full(8, DT)
        a = predictive_band(gbm_chain, 100.0, steps, rng=np.random.default_rng(3))
        b = predictive_band(gbm_chain, 200.0, steps, rng=np.random.default_rng(3))
        for name in ("lower", "mean", "upper"):
            assert np.allclose(getattr(b, name), 2.0 * getattr(a, name), rtol=1e-12)

    def test_max_draws_subsamples_evenly(self, monkeypatch, gbm_chain):
        steps = np.full(3, DT)
        rows = (np.arange(10) * len(gbm_chain)) // 10
        strided = PosteriorChain(draws=gbm_chain.draws[rows], meta=gbm_chain.meta)
        expect = predictive_band(strided, 100.0, steps, rng=np.random.default_rng(4))
        monkeypatch.setattr(predict, "_MAX_DRAWS", 10)
        sub = predictive_band(gbm_chain, 100.0, steps, rng=np.random.default_rng(4))
        assert band_bytes(sub) == band_bytes(expect)
        monkeypatch.setattr(predict, "_MAX_DRAWS", len(gbm_chain))
        every = predictive_band(gbm_chain, 100.0, steps, rng=np.random.default_rng(4))
        monkeypatch.setattr(predict, "_MAX_DRAWS", 10**6)
        more = predictive_band(gbm_chain, 100.0, steps, rng=np.random.default_rng(4))
        assert band_bytes(more) == band_bytes(every)

    def test_paths_stay_positive(self, jump_chain, train_inc):
        band = fitted_band(jump_chain, train_inc, x0=931.80, rng=np.random.default_rng(5))
        assert np.all(band.lower > 0.0)

    def test_input_validation(self, gbm_chain, train_inc):
        with pytest.raises(ValueError):
            predictive_band(gbm_chain, 100.0, np.zeros(5))
        with pytest.raises(ValueError):
            fitted_band(gbm_chain, train_inc, x0=-5.0)
        empty = IncrementSeries(d=np.array([]), dt=np.array([]))
        with pytest.raises(ValueError, match="increment"):
            fitted_band(gbm_chain, empty, x0=100.0)

    def test_band_shape_validation(self):
        with pytest.raises(ValueError, match="one length"):
            Band(grid=[1.0, 2.0], lower=[1.0], mean=[1.0, 2.0], upper=[1.0, 2.0], level=0.9)
        with pytest.raises(ValueError, match="lower envelope"):
            Band(grid=[1.0], lower=[2.0], mean=[1.5], upper=[1.0], level=0.9)


class TestCredibleBand:
    def test_identical_paths_collapse_band(self):
        # doubling per unit step with volatility 1e-15: every path is 10, 20, 40, 80
        chain = constant_chain(theta=np.log(2.0), sigma2=1e-30, n=50)
        band = predictive_band(chain, 10.0, np.ones(3), 0.90, rng=np.random.default_rng(1))
        assert np.allclose(band.width, 0.0)
        assert np.allclose(band.mean, [20.0, 40.0, 80.0])
        assert np.allclose(band.lower, band.upper)

    def test_level_validation(self, gbm_chain):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                predictive_band(gbm_chain, 100.0, np.full(2, DT), level=bad,
                                rng=np.random.default_rng(1))

    def test_two_paths_minimum(self):
        with pytest.raises(ValueError, match="two draws"):
            predictive_band(constant_chain(0.0, 0.04, n=1), 5.0, np.full(1, DT))

    def test_one_step_unit_lognormal_quantiles(self, monkeypatch):
        # theta = 0, sigma2 = 1 over one unit step: terminal value is standard
        # lognormal with 5% / 95% points 0.19304082 and 5.1802516
        n = 50_000
        chain = constant_chain(theta=0.0, sigma2=1.0, n=n)
        monkeypatch.setattr(predict, "_MAX_DRAWS", n)
        band = predictive_band(chain, 1.0, np.ones(1), level=0.90, rng=np.random.default_rng(5))
        assert band.lower[0] == pytest.approx(0.19304082, rel=0.02)
        assert band.upper[0] == pytest.approx(5.1802516, rel=0.02)

    def test_width_grows_with_horizon(self, gbm_chain):
        band = predictive_band(gbm_chain, 2058.90, np.full(40, DT), 0.90,
                               rng=np.random.default_rng(6))
        assert band.width[-1] > 3.0 * band.width[0]

    def test_wider_level_is_wider_band(self, gbm_chain):
        # the same rng draws the same paths at either level
        steps = np.full(10, DT)
        narrow = predictive_band(gbm_chain, 100.0, steps, 0.50, rng=np.random.default_rng(7))
        wide = predictive_band(gbm_chain, 100.0, steps, 0.95, rng=np.random.default_rng(7))
        assert np.all(wide.width >= narrow.width)

    def test_fitted_band_covers_training_prices(self, gbm_chain, train_series, train_inc):
        prices = np.asarray(train_series.prices)
        band = fitted_band(
            gbm_chain, train_inc, x0=float(prices[0]), level=0.90, rng=np.random.default_rng(7)
        )
        covered = np.mean((prices >= band.lower) & (prices <= band.upper))
        assert covered >= 0.80

    def test_one_step_predictive_calibration(self):
        # simulate fresh data, fit, forecast one step, check the 90% band covers
        # the held-out next increment near its nominal rate
        hits = 0
        n_rep = 500
        for rep in range(n_rep):
            rng = np.random.default_rng(10_000 + rep)
            m = 300
            dt = np.full(m, DT)
            shocks = rng.standard_normal(m + 1)
            d = 0.12 * dt + np.sqrt(0.04 * dt) * shocks[:m]
            nxt = 0.12 * DT + np.sqrt(0.04 * DT) * shocks[m]
            chain = run_gibbs(IncrementSeries(d=d, dt=dt), n_keep=300, burn_in=100, seed=rep)
            band = predictive_band(chain, 100.0, np.full(1, DT), 0.90,
                                   rng=np.random.default_rng(rep + 1))
            target = 100.0 * np.exp(nxt)
            hits += band.lower[0] <= target <= band.upper[0]
        assert 0.84 <= hits / n_rep <= 0.96

    def test_jump_band_not_systematically_narrower(self, gbm_chain, jump_chain, train_inc):
        # Both chains explain the same increments, so total predictive variance
        # matches and band widths agree up to Monte Carlo noise;
        # the jump fit does NOT yield a visibly tighter fitted band. Kept as a
        # strict "<" check so the outcome is visible in the test report.
        ratios = []
        for stream in (11, 13, 17):
            gen_g = np.random.default_rng(stream)
            gen_j = np.random.default_rng(stream)
            bg = fitted_band(gbm_chain, train_inc, 931.80, 0.90, rng=gen_g)
            bj = fitted_band(jump_chain, train_inc, 931.80, 0.90, rng=gen_j)
            ratios.append(float(np.mean(bj.width[1:]) / np.mean(bg.width[1:])))
        mean_ratio = float(np.mean(ratios))
        assert mean_ratio < 1.0, (
            f"jump/gbm fitted band width ratio {mean_ratio:.4f} "
            f"(per-rng {[f'{r:.4f}' for r in ratios]}); bands from "
            f"either fit have equal total variance, so the jump band is not narrower"
        )


class TestBandCsv:
    def test_rows_and_header(self, tmp_path, gbm_chain):
        band = predictive_band(gbm_chain, 100.0, np.full(3, DT), 0.90, rng=np.random.default_rng(8))
        path = tmp_path / "band.csv"
        write_band_csv(band, path, [None] * 3)
        lines = path.read_text().splitlines()
        assert lines[0] == "# level: 0.9"
        assert lines[1] == "time,date,lower,mean,upper"
        assert len(lines) == 2 + 3
        cells = lines[2].split(",")
        assert float(cells[0]) == pytest.approx(DT)
        assert cells[1] == ""
        assert float(cells[2]) <= float(cells[3]) <= float(cells[4])

    def test_dates_written_and_validated(self, tmp_path, gbm_chain, holdout_series):
        band = predictive_band(gbm_chain, 100.0, np.full(3, DT), 0.90, rng=np.random.default_rng(8))
        path = tmp_path / "band.csv"
        write_band_csv(band, path, dates=holdout_series.dates[:3])
        lines = path.read_text().splitlines()
        assert lines[2].split(",")[1] == holdout_series.dates[0].isoformat()
        with pytest.raises(ValueError):
            write_band_csv(band, path, dates=holdout_series.dates[:2])


class TestSimulatorAgreement:
    def test_one_draw_band_matches_simulated_increments_in_law(self, monkeypatch):
        # in law: a band's draws at a step, from one parameter draw, against the
        # cumulative sums of simulate_jump_increments paths over the same steps
        stats = pytest.importorskip("scipy.stats")
        params = JumpParams(theta=0.2, sigma2=0.01, mu_z=-0.01, sigma2_z=4e-4, lambda_star=0.3)
        draws, dt = 4000, weekend_steps(25)
        meta = ChainMeta(model="gbm-jump", burn_in=0, seed=None, data="0" * 8)
        row = [params.theta, params.sigma2, params.mu_z, params.sigma2_z, params.lambda_star, 0.0]
        chain = PosteriorChain(draws=np.tile(row, (draws, 1)), meta=meta)
        monkeypatch.setattr(predict, "_MAX_DRAWS", draws)
        for seed in (12, 13):
            blocks = predict._price_blocks(chain, 80.0, dt, np.random.default_rng(seed))
            band = np.log(np.concatenate(list(blocks)) / 80.0)
            d = simulate_jump_increments(params, np.tile(dt, draws), len(dt) * draws, rng=seed + 100)
            paths = np.cumsum(d.reshape(draws, len(dt)), axis=1).T
            for step in (0, 4, 12, 24):
                assert stats.ks_2samp(band[step], paths[step]).pvalue > 0.01, (seed, step)


def band_bytes(band):
    return [getattr(band, a).tobytes() for a in ("grid", "lower", "mean", "upper")]


def ensemble_band_rows(monkeypatch, chain, start, dt, rng, level=0.90):
    """Lower, mean and upper of the whole draws x steps path matrix, drawn as
    one block and reduced in one call: the credible band of the ensemble."""
    monkeypatch.setattr(predict, "_BLOCK", len(dt))
    (prices,) = predict._price_blocks(chain, start, dt, rng)
    tail = predict._tail(level)
    lower, upper = np.quantile(prices, [tail, 1.0 - tail], axis=1)
    return lower, prices.mean(axis=1), upper


def one_block_reference(chain, start, dt, rng):
    """_price_blocks' prices as one (steps, draws) array, by brute force: each
    draw's Z (substream 0), its running jump count N from every hit drawn at
    once (substream 1), and exp(log start + theta*T + mu_z*N + sqrt(sigma2*T
    + sigma_z^2*N)*Z) at elapsed times T. A GBM chain's jump terms are 0."""
    rows = predict._subsample_rows(len(chain), predict._MAX_DRAWS)
    theta, sigma2 = (chain.column(c)[rows] for c in ("theta", "sigma2"))
    mu_z, sigma_z, lam = (
        (chain.column(c)[rows] for c in ("mu_z", "sigma_z", "lambda_star"))
        if "lambda_star" in chain.columns else (0.0, 0.0, None))
    substream = _substreams(np.random.default_rng(rng))
    z = substream(0).standard_normal(len(rows))
    n = 0 if lam is None else np.cumsum(substream(1).random((len(dt), len(rows))) < lam, axis=0)
    t = np.cumsum(dt)[:, None]
    return np.exp(np.log(start) + theta * t + mu_z * n + np.sqrt(sigma2 * t + sigma_z**2 * n) * z)


def weekend_steps(n):
    """Unequal steps: every fifth step spans a weekend."""
    return np.where(np.arange(n) % 5 == 4, 3.0, 1.0) / 252


@pytest.fixture(params=["gbm", "gbm-jump"])
def chain(request, gbm_chain, jump_chain):
    return gbm_chain if request.param == "gbm" else jump_chain


class TestStreamedBands:
    def test_bytes_do_not_depend_on_block_length(self, monkeypatch, chain, train_inc):
        dt = weekend_steps(train_inc.n)
        assert len(np.unique(dt)) > 1
        monkeypatch.setattr(predict, "_MAX_DRAWS", 300)
        bands = []
        for block in (1, 7, 64, len(dt)):
            monkeypatch.setattr(predict, "_BLOCK", block)
            band = predictive_band(chain, 931.80, dt, rng=np.random.default_rng(21))
            bands.append(band_bytes(band))
        assert all(b == bands[0] for b in bands[1:])

    @pytest.mark.parametrize("block", [1, 7, predict._BLOCK, None], ids=str)
    def test_prefetched_blocks_match_a_serial_loop(self, monkeypatch, chain, train_inc, block):
        # every block is its rows of one_block_reference, bit for bit
        dt = weekend_steps(train_inc.n)
        block = block or len(dt)
        monkeypatch.setattr(predict, "_MAX_DRAWS", 300)
        monkeypatch.setattr(predict, "_BLOCK", block)
        got = predict._price_blocks(chain, 931.80, dt, np.random.default_rng(21))
        want = one_block_reference(chain, 931.80, dt, np.random.default_rng(21))
        assert [b.tobytes() for b in got] == [want[lo:lo + block].tobytes()
                                              for lo in range(0, len(dt), block)]

    def test_a_jump_chain_read_back_from_its_file_gives_the_same_band(
            self, tmp_path, jump_chain, train_inc):
        # the file holds sigma_z, and sqrt(sigma2_z) survives the round trip
        # where sigma2_z does not
        write_chain_csv(jump_chain, tmp_path / "chain.csv")
        back = read_chain_csv(tmp_path / "chain.csv")
        assert back.draws.tobytes() != jump_chain.draws.tobytes()
        bands = [fitted_band(c, train_inc, 931.80, rng=np.random.default_rng(8))
                 for c in (jump_chain, back)]
        assert band_bytes(bands[0]) == band_bytes(bands[1])

    def test_forecast_band_is_credible_band_of_the_ensemble(self, monkeypatch, chain):
        steps = np.full(40, DT)
        band = predictive_band(chain, 2058.90, steps, rng=np.random.default_rng(4))
        rows = ensemble_band_rows(monkeypatch, chain, 2058.90, steps, np.random.default_rng(4))
        assert band_bytes(band) == [np.cumsum(steps).tobytes(), *(r.tobytes() for r in rows)]

    def test_fitted_band_is_credible_band_of_the_ensemble(self, monkeypatch, chain, train_inc):
        band = fitted_band(chain, train_inc, 931.80, rng=np.random.default_rng(6))
        rows = ensemble_band_rows(monkeypatch, chain, 931.80, train_inc.dt, np.random.default_rng(6))
        grid = np.concatenate(([0.0], np.cumsum(train_inc.dt)))
        assert band.grid.tobytes() == grid.tobytes()
        for name, row in zip(("lower", "mean", "upper"), rows):
            assert getattr(band, name)[1:].tobytes() == row.tobytes()

    def test_fitted_band_anchor_row_is_exactly_x0(self, jump_chain, train_inc):
        band = fitted_band(jump_chain, train_inc, 931.80, rng=np.random.default_rng(6))
        assert band.grid[0] == 0.0
        assert band.lower[0] == band.mean[0] == band.upper[0] == 931.80

    def test_underflow_in_a_later_block_is_rejected(self):
        # log-price falls by 1000/252 per step and underflows exp near step 188
        chain = constant_chain(theta=-1000.0, sigma2=1e-6, n=4)
        steps = np.full(300, DT)
        assert 188 > predict._BLOCK
        predictive_band(chain, 1.0, steps[: predict._BLOCK], rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="band prices must stay positive"):
            predictive_band(chain, 1.0, steps, rng=np.random.default_rng(1))

    def test_overflow_in_a_later_block_is_rejected(self):
        # log-price rises by 1000/252 per step and overflows exp near step 179
        chain = constant_chain(theta=1000.0, sigma2=1e-6, n=4)
        assert 179 > predict._BLOCK
        # no RuntimeWarning either: the suite turns warnings into errors
        with pytest.raises(ValueError, match="band prices must stay positive and finite"):
            predictive_band(chain, 1.0, np.full(300, DT), rng=np.random.default_rng(1))

    def test_concurrent_bands_match_serial_bands(self, monkeypatch, jump_chain):
        # four callers on two CPUs with a short switch interval: bands share no state
        monkeypatch.setattr(predict, "_MAX_DRAWS", 200)
        monkeypatch.setattr(predict, "_BLOCK", 7)
        steps = np.full(100, DT)

        def band(seed):
            return band_bytes(predictive_band(jump_chain, 100.0, steps, rng=np.random.default_rng(seed)))

        want, got = [band(seed) for seed in range(4)], [None] * 4
        callers = [threading.Thread(target=lambda s=s: got.__setitem__(s, band(s))) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == want

    def test_memory_stays_below_the_path_matrix(self, jump_chain, train_inc):
        # 2000 x 1510 prices would take 23 MiB; two blocks of 16 steps, one
        # drawn while the other is reduced, take 0.5 MiB (1.4 MiB peak measured)
        tracemalloc.start()
        try:
            predictive_band(jump_chain, 931.80, train_inc.dt, rng=np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak / 2**20

    def test_input_validation(self, gbm_chain, train_inc):
        steps = np.full(3, DT)
        for kwargs in (
            {"start": 0.0},
            {"dt": []},
            {"dt": [DT, -DT]},
            {"dt": np.full((2, 2), DT)},
            {"level": 1.0},
        ):
            args = {"start": 100.0, "dt": steps, **kwargs}
            with pytest.raises(ValueError):
                predictive_band(gbm_chain, **args)
        with pytest.raises(ValueError, match="two draws"):
            predictive_band(constant_chain(0.1, 0.04, n=1), 100.0, steps)
        # non-finite inputs fail before any path is drawn, naming the argument
        for name, bad in (
            ("start", np.inf), ("start", np.nan), ("dt", [DT, np.nan]), ("dt", [DT, np.inf]),
        ):
            args = {"start": 100.0, "dt": steps, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be"):
                predictive_band(gbm_chain, **args)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^x0 must be"):
                fitted_band(gbm_chain, train_inc, bad)
