import datetime as dt
import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbmjump import DataError, IncrementSeries, PriceSeries, load_price_series, to_increments
from gbmjump.series import write_csv as write_table
from gbmjump.series import write_json

from conftest import FUZZ, edits_of, loads_or_names_file


def make_series(prices, start=dt.date(2020, 1, 1)):
    dates = [start + dt.timedelta(days=i) for i in range(len(prices))]
    return PriceSeries(tuple(dates), np.asarray(prices, dtype=float))


def write_csv(path, rows, header="date,close"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestLoadPriceSeries:
    def test_two_row_file(self, tmp_path):
        p = write_csv(tmp_path / "ok.csv", ["2020-01-01,100.0", "2020-01-02,101.5"])
        series = load_price_series(p)
        assert len(series) == 2
        assert series.dates[0] == dt.date(2020, 1, 1)
        assert series.prices[1] == pytest.approx(101.5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_price_series(tmp_path / "absent.csv")

    def test_bad_price_reports_line_number(self, tmp_path):
        p = write_csv(
            tmp_path / "bad.csv",
            ["2020-01-01,100.0", "2020-01-02,oops", "2020-01-03,101.0"],
        )
        with pytest.raises(DataError, match=r"bad\.csv:3"):
            load_price_series(p)

    def test_zero_price_rejected(self, tmp_path):
        p = write_csv(tmp_path / "zero.csv", ["2020-01-01,100.0", "2020-01-02,0.0"])
        with pytest.raises(DataError, match="non-positive"):
            load_price_series(p)

    def test_bad_date_reports_line_number(self, tmp_path):
        p = write_csv(tmp_path / "date.csv", ["2020-01-01,100.0", "not-a-date,101.0"])
        with pytest.raises(DataError, match=r"date\.csv:3.*bad date"):
            load_price_series(p)

    def test_non_increasing_dates_rejected(self, tmp_path):
        p = write_csv(tmp_path / "order.csv", ["2020-01-02,100.0", "2020-01-01,101.0"])
        with pytest.raises(DataError, match="increasing"):
            load_price_series(p)

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "cols.csv", ["2020-01-01,100.0"], header="date,price")
        with pytest.raises(DataError, match="close"):
            load_price_series(p)

    def test_single_row_rejected(self, tmp_path):
        p = write_csv(tmp_path / "one.csv", ["2020-01-01,100.0"])
        with pytest.raises(DataError, match="two rows"):
            load_price_series(p)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"date,close\n2014-12-30,2,050.10\n2014-12-31,2,058.90\n",
             ":2: 3 values, 2 column names$"),
            (b"date,close\n2014-12-30\n2014-12-31,2058.90\n", ":2: 1 values, 2 column names$"),
            (b"date,close,close\n2014-12-30,1.0,2.0\n2014-12-31,1.0,2.0\n",
             ": 2 columns named 'close', need one$"),
            (b"date,close\n2014-12-30," + b"1" * 131_073 + b"\n2014-12-31,2058.90\n",
             r":2: field larger than field limit \(131072\)$"),
            (b"date,close\n2014-12-30,2050.10\n2014-12-31,2058.90\xff\n",
             r": not UTF-8 text \(byte 0xff\)$"),
            (b"date,close\n2014-12-31,2058.90\n2014-12-30,2050.10\n",
             ": dates not strictly increasing at 2014-12-30$"),
        ],
        ids=["thousands-separator", "short-row", "repeated-close", "over-long-field",
             "not-utf8", "dates-out-of-order"],
    )
    def test_malformed_file_names_it(self, tmp_path, data, message):
        path = tmp_path / "prices.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match=message) as err:
            load_price_series(path)
        assert str(err.value).startswith(f"{path}:")

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # as Excel's "CSV UTF-8" writes it
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(VALID_PRICES)
        marked.write_bytes(b"\xef\xbb\xbf" + VALID_PRICES)
        want, got = load_price_series(plain), load_price_series(marked)
        assert got.dates == want.dates
        assert got.prices.tobytes() == want.prices.tobytes()

    def test_vendored_dataset_row_counts(self, train_series, holdout_series):
        assert len(train_series) == 1511
        assert train_series.dates[0] == dt.date(2009, 1, 2)
        assert train_series.dates[-1] == dt.date(2014, 12, 31)
        assert len(holdout_series) == 39
        assert holdout_series.dates[0] == dt.date(2015, 1, 2)
        assert holdout_series.dates[-1] == dt.date(2015, 2, 27)


VALID_PRICES = b"date,close\n2014-12-29,2090.57\n2014-12-30,2080.35\n2014-12-31,2058.90\n"


class TestLoadPriceSeriesFuzz:
    """Whatever the bytes, load_price_series loads them or raises a
    ValueError whose message starts with the path."""

    @FUZZ
    @given(st.binary(max_size=120))
    @example(b"date,close\n2014-12-31," + b"1" * 131_073 + b"\n")
    @example(b"date,close\n2014-12-31,2058.90\xff\n")
    def test_arbitrary_bytes(self, tmp_path, data):
        loads_or_names_file(load_price_series, tmp_path / "prices.csv", data)

    @FUZZ
    @given(edits_of(VALID_PRICES))
    def test_edits_of_a_valid_file(self, tmp_path, data):
        loads_or_names_file(load_price_series, tmp_path / "prices.csv", data)


class TestToIncrements:
    def test_flat_prices_give_zero_increment(self):
        inc = to_increments(make_series([100.0, 100.0]))
        assert inc.d[0] == 0.0
        assert inc.dt[0] == pytest.approx(1.0 / 252.0)

    def test_exponential_prices(self):
        inc = to_increments(make_series([math.e**2, math.e**4, math.e**8]))
        assert inc.d == pytest.approx([2.0, 4.0], abs=1e-12)

    def test_unit_step_is_one_trading_day(self):
        inc = to_increments(make_series([100.0, 100.0 * math.e]))
        assert inc.d[0] == pytest.approx(1.0, abs=1e-12)
        assert inc.dt.sum() == pytest.approx(1.0 / 252.0)

    def test_total_time_counts_steps_not_calendar(self):
        # Friday -> Monday is still one trading step by default
        series = PriceSeries(
            (dt.date(2020, 1, 3), dt.date(2020, 1, 6), dt.date(2020, 1, 7)),
            np.array([100.0, 101.0, 102.0]),
        )
        inc = to_increments(series)
        assert inc.dt.sum() == pytest.approx(2.0 / 252.0)

    def test_days_per_year_validation(self):
        with pytest.raises(ValueError):
            to_increments(make_series([1.0, 2.0]), days_per_year=0)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=40,
        )
    )
    def test_round_trip_recovers_prices(self, prices):
        series = make_series(prices)
        inc = to_increments(series)
        y0 = np.log(series.prices[0])
        rebuilt = np.exp(y0 + np.concatenate(([0.0], np.cumsum(inc.d))))
        assert np.allclose(rebuilt, series.prices, rtol=1e-9)

    @given(st.integers(min_value=1, max_value=300))
    def test_total_time_is_steps_over_days_per_year(self, n):
        series = make_series(np.linspace(50.0, 60.0, n + 1))
        assert to_increments(series).dt.sum() == pytest.approx(n / 252.0)


class TestIncrementSeries:
    def test_digest_is_crc32_of_d_then_dt(self, train_inc):
        little_endian = [a.astype("<f8").tobytes() for a in (train_inc.d, train_inc.dt)]
        want = zlib.crc32(b"".join(little_endian))
        assert train_inc.digest() == f"{want:08x}" == "40bb0051"  # chain files record it

    def test_digest_names_values_count_and_step(self, train_series, train_inc):
        others = [
            IncrementSeries(d=train_inc.d[:-1], dt=train_inc.dt[:-1]),
            IncrementSeries(d=train_inc.d + 1e-15, dt=train_inc.dt),
            to_increments(train_series, days_per_year=12),
        ]
        assert len({train_inc.digest(), *(inc.digest() for inc in others)}) == 4

    def test_empty_series_allowed(self):
        inc = IncrementSeries(d=np.array([]), dt=np.array([]))
        assert inc.n == 0

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(DataError):
            IncrementSeries(d=np.array([0.1]), dt=np.array([0.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            IncrementSeries(d=np.array([0.1, 0.2]), dt=np.array([0.5]))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            IncrementSeries(d=np.array([np.nan]), dt=np.array([1.0]))


class TestPriceSeries:
    def test_negative_price_rejected(self):
        with pytest.raises(DataError):
            make_series([100.0, -1.0])

    def test_duplicate_dates_rejected(self):
        day = dt.date(2020, 1, 1)
        with pytest.raises(DataError):
            PriceSeries((day, day), np.array([1.0, 2.0]))


class TestTableWriters:
    def test_csv_exact_text_for_mixed_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(
            path,
            {
                "x": [0.1, 1e-300, np.float64(-2.5)],
                "y": np.array([1 / 3, 7.0, 2.0**0.5]),
                "k": np.arange(3),
                "flag": [True, False, np.bool_(True)],
                "name": ["a", "b", None],
                "day": [dt.date(2020, 1, 2), None, dt.date(2021, 12, 31)],
            },
            meta={"model": "gbm", "level": np.float64(0.9), "seed": None},
        )
        assert path.read_text() == (
            "# model: gbm\n"
            "# level: 0.9\n"
            "# seed: None\n"
            "x,y,k,flag,name,day\n"
            "0.1,0.3333333333333333,0,True,a,2020-01-02\n"
            "1e-300,7.0,1,False,b,\n"
            "-2.5,1.4142135623730951,2,True,,2021-12-31\n"
        )

    def test_csv_without_meta_and_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(2500) * 10.0 ** rng.integers(-300, 300, 2500)
        path = tmp_path / "t.csv"
        write_table(path, {"i": range(len(values)), "v": values})
        lines = path.read_text().splitlines()
        assert lines[0] == "i,v"
        assert [float(line.split(",")[1]) for line in lines[1:]] == values.tolist()
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(len(values)))

    def test_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", {"a": [1, 2], "b": [1]})

    def test_json_sorted_indented_with_newline(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 0.1, "a": [1, None]})
        assert path.read_text() == '{\n  "a": [\n    1,\n    null\n  ],\n  "b": 0.1\n}\n'
