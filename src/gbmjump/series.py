"""Price series loading, conversion to log-increments, and table output.

The observation model downstream works on d_i = y_i - y_{i-1} (log closes) with
per-step durations dt_i expressed in years. to_increments counts every
consecutive pair of rows as one trading step of 1/days_per_year years, so
weekends and holidays carry no extra time; a caller that wants unequal steps
builds IncrementSeries(d, dt) directly.

write_csv and write_json write every file the package produces.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import zlib
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Raised for unusable input data (bad rows, bad ordering, bad values)."""


@dataclass(frozen=True)
class PriceSeries:
    """Daily closes: strictly increasing dates, strictly positive prices."""

    dates: tuple[dt.date, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(prices):
            raise DataError(
                f"{len(self.dates)} dates but {len(prices)} prices"
            )
        if len(prices) < 2:
            raise DataError(f"need at least two rows, got {len(prices)}")
        if not np.all(np.isfinite(prices)):
            raise DataError("non-finite price")
        if np.any(prices <= 0.0):
            i = int(np.argmax(prices <= 0.0))
            raise DataError(f"non-positive price {prices[i]} at {self.dates[i]}")
        for a, b in zip(self.dates, self.dates[1:]):
            if b <= a:
                raise DataError(f"dates not strictly increasing at {b}")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class IncrementSeries:
    """Log-increments d with per-step durations dt (years).

    Empty series (n = 0) are allowed so samplers can be run against the bare
    prior; series derived from price data always have n >= 1.
    """

    d: np.ndarray
    dt: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        step = np.asarray(self.dt, dtype=float)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "dt", step)
        if d.shape != step.shape or d.ndim != 1:
            raise DataError("d and dt must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(step))):
            raise DataError("non-finite increment or duration")
        if np.any(step <= 0.0):
            raise DataError("durations must be positive")

    @property
    def n(self) -> int:
        return len(self.d)

    def digest(self) -> str:
        """CRC-32 of the little-endian float64 bytes of d followed by those of
        dt, as 8 lowercase hex digits: a chain records it to name the data it
        was fitted to. dt carries the step length, so the days per year count
        too. zlib, not hashlib, which would load OpenSSL on import."""
        d, step = (a.astype("<f8").tobytes() for a in (self.d, self.dt))
        return f"{zlib.crc32(step, zlib.crc32(d)):08x}"


def load_price_series(path) -> PriceSeries:
    """Read a UTF-8 CSV file with header columns date and close into a
    PriceSeries, skipping blank lines and a leading byte-order mark.

    Every error names the file, and an error in a row its 1-based line number:
    a byte that is not UTF-8, a field over csv's size limit, no column or two
    columns named date or close, a row with more or fewer values than column
    names, a bad date or price, fewer than two rows, or dates that do not
    increase.
    """
    dates: list[dt.date] = []
    prices: list[float] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader, None)
            if names is None:
                raise DataError(f"{path}: empty file")
            for col in ("date", "close"):
                if names.count(col) != 1:
                    raise DataError(f"{path}: {names.count(col)} columns named {col!r}, need one")
            at_date, at_price = names.index("date"), names.index("close")
            for row in filter(None, reader):
                line = reader.line_num
                if len(row) != len(names):
                    raise DataError(f"{path}:{line}: {len(row)} values, {len(names)} column names")
                raw_date, raw_price = row[at_date], row[at_price]
                try:
                    dates.append(dt.date.fromisoformat(raw_date.strip()))
                except ValueError as exc:
                    raise DataError(f"{path}:{line}: bad date {raw_date!r}") from exc
                try:
                    price = float(raw_price)
                except ValueError as exc:
                    raise DataError(f"{path}:{line}: bad price {raw_price!r}") from exc
                if not math.isfinite(price) or price <= 0.0:
                    raise DataError(f"{path}:{line}: non-positive price {raw_price!r}")
                prices.append(price)
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x})") from None
    try:
        return PriceSeries(tuple(dates), np.array(prices))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def to_increments(series: PriceSeries, days_per_year: int = 252) -> IncrementSeries:
    """Convert closes to log-increments with durations in years: each
    consecutive pair is one trading step, dt_i = 1/days_per_year."""
    if days_per_year <= 0:
        raise ValueError("days_per_year must be positive")
    d = np.diff(np.log(series.prices))
    return IncrementSeries(d=d, dt=np.full(len(d), 1.0 / days_per_year))


# Rows taken out of numpy at a time. Cells are formatted one row at a time:
# holding a block of formatted cells raised a 5000-draw fit's peak RSS by 1 MB.
_BLOCK_ROWS = 1024


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 included; float() drops its numpy repr
        return repr(float(value))
    if isinstance(value, dt.date):
        return value.isoformat()
    return str(value)


def _cells(block):
    """The cells of one column block: a float64 array by repr in one pass
    over its Python floats (what _cell gives each), anything else by _cell."""
    if not isinstance(block, np.ndarray):
        return map(_cell, block)
    return map(repr if block.dtype == np.float64 else _cell, block.tolist())


def write_csv(path, columns: dict, meta: dict | None = None) -> None:
    """Write equal-length columns as CSV rows under a header of their names.

    Each meta item becomes a leading '# key: value' line. Floats are written
    by repr, so every cell reads back exactly through float(); dates are
    written in ISO form, None as an empty cell, anything else by str().
    """
    values = list(columns.values())
    n = len(values[0]) if values else 0
    if any(len(v) != n for v in values):
        raise ValueError("columns must have equal length")
    with open(path, "w", newline="") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(columns) + "\n")
        # each block's zip, and with it the block's floats, is dropped once
        # exhausted, before the next block is taken out of numpy
        fh.writelines(",".join(row) + "\n" for start in range(0, n, _BLOCK_ROWS)
                      for row in zip(*[_cells(v[start : start + _BLOCK_ROWS]) for v in values]))


def write_json(path, data) -> None:
    """Write data as indented JSON with sorted keys and a final newline."""
    import json  # here, not at module level: only json output needs it

    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
