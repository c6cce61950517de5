"""Command-line interface: mle, fit, forecast and study subcommands.

Option precedence is flags > GBMJUMP_* environment variables > --config JSON
file > built-in defaults. Each subcommand has a flag for every option it reads
and takes only those options from the environment and the config file.
Identical configuration plus identical seed yields byte-identical output files.
"""

from __future__ import annotations

import argparse
import datetime as dt
import importlib
import os
import sys
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .gbm import mle_fit
from .gibbs import read_chain_csv, write_chain_csv
from .series import load_price_series, to_increments, write_csv, write_json

ENV_PREFIX = "GBMJUMP_"
# model name -> the package's name of its sampler; both take (inc, prior,
# n_keep, burn_in, seed)
SAMPLERS = {"gbm": "run_gibbs", "gbm-jump": "run_jump_gibbs"}
MODELS = tuple(SAMPLERS)
FORMATS = ("csv", "json")
# below this share of taken proposals the jump move barely moves the chain,
# which then mixes through its conjugate sweeps alone: one in jumps._MOVES
LOW_ACCEPTANCE = 0.1


@dataclass
class RunConfig:
    input: str | None = None
    model: str = "gbm"
    iters: int = 5000
    burnin: int = 1000
    seed: int | None = None
    days_per_year: int = 252
    horizon: int = 40
    level: float = 0.90
    out: str | None = None
    format: str = "csv"
    chain: str | None = None
    fitted_band: bool = False
    holdout: str | None = None

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}, expected one of {FORMATS}")
        if self.iters < 2:  # a posterior summary needs two draws
            raise ValueError("iters must be >= 2")
        if self.burnin < 0:
            raise ValueError("burnin must be >= 0")
        if self.seed is not None and self.seed < 0:  # numpy seeds are non-negative
            raise ValueError("seed must be >= 0")
        if self.days_per_year < 1:
            raise ValueError("days-per-year must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie strictly in (0, 1)")


# RunConfig field -> (the subcommands that read it, add_argument keywords of
# its flag --name, with - for _), in --help order after --config. The flag's
# type comes from the field's annotation through _KINDS.
OPTIONS = {
    "input": ("mle fit forecast study", {"help": "price CSV with date and close columns"}),
    "days_per_year": ("mle fit forecast study", {}),
    "out": ("mle fit forecast study", {"help": "output directory"}),
    "format": ("mle fit study", {"choices": FORMATS}),
    "iters": ("fit study", {"help": "retained draws (at least 2)"}),
    "burnin": ("fit study", {"help": "discarded initial sweeps"}),
    "seed": ("fit forecast study", {}),
    "model": ("fit forecast", {"choices": MODELS}),
    "holdout": ("study", {"help": "price CSV of the closes after --input's"}),
    "level": ("forecast study", {"help": "credible level in (0, 1)"}),
    "horizon": ("forecast", {"help": "forecast steps"}),
    "chain": ("forecast", {"help": "chain CSV written by fit or study"}),
    "fitted_band": ("forecast", {"help": "also write the fitted-window band"}),
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# declared field type -> (string parser, exact types accepted, name in errors,
# add_argument keywords of its flag)
_KINDS = {
    "int": (int, (int,), "an integer", {"type": int}),
    "float": (float, (int, float), "a number", {"type": float}),
    "bool": (lambda s: _BOOL_WORDS[s.strip().lower()], (bool,), "a boolean",
             {"action": "store_const", "const": True}),
    "str": (str, (str,), "a string", {}),
}


def _coerce(name: str, raw, source: str):
    """raw as a value of field name, parsing strings; a value of a type the
    field does not take (bool is not int, so True is no number and 1 no
    boolean; 7 is no path) raises a ValueError naming the key and its source
    (the config file or the environment variable)."""
    declared = _FIELD_TYPES[name]
    if raw is None and declared.endswith(" | None"):
        return raw
    parse, accepts, what, _ = _KINDS[declared.removesuffix(" | None")]
    value = raw
    if isinstance(raw, str):
        try:
            value = parse(raw)
        except (KeyError, ValueError):
            pass
    if type(value) not in accepts:
        raise ValueError(f"{source}: {name} must be {what}, got {raw!r}")
    return value


def _load_config_file(path: str) -> dict:
    import json  # here, not at module level: a run without --config skips it

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return data


def build_config(flag_values: dict, config_path: str | None, env=None) -> RunConfig:
    """Layer defaults < config file < environment < explicit flags over the keys
    of flag_values, the dests of a subcommand's flags: the keys it reads. Other
    keys keep their defaults, so validate passes them whatever the file or the
    environment holds."""
    env = os.environ if env is None else env
    cfg = RunConfig()
    if config_path is not None:
        for key, value in _load_config_file(config_path).items():
            if key in flag_values:
                setattr(cfg, key, _coerce(key, value, config_path))
    for name in flag_values:
        var = ENV_PREFIX + name.upper()
        if env.get(var) is not None:
            setattr(cfg, name, _coerce(name, env[var], var))
    for name, value in flag_values.items():
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


def _load_increments(cfg: RunConfig):
    if cfg.input is None:
        raise ValueError("--input is required")
    series = load_price_series(cfg.input)
    return series, to_increments(series, days_per_year=cfg.days_per_year)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out if cfg.out is not None else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_fit(inc, cfg: RunConfig, model: str):
    sampler = getattr(importlib.import_module(__package__), SAMPLERS[model])
    return sampler(inc, n_keep=cfg.iters, burn_in=cfg.burnin, seed=cfg.seed)


def cmd_mle(cfg: RunConfig) -> int:
    _, inc = _load_increments(cfg)
    params = mle_fit(inc)
    if params.degenerate:
        print("warning: degenerate fit, sample volatility is zero", file=sys.stderr)
    values = {"theta_hat": params.theta, "sigma2_hat": params.sigma2, "mu_hat": params.mu,
              "sigma_hat": params.sigma, "degenerate": params.degenerate}
    print(" ".join(f"{key}={value:.6f}" for key, value in list(values.items())[:4]))
    if cfg.out is not None:
        out = _out_dir(cfg)
        if cfg.format == "json":
            write_json(out / "mle.json", values)
        else:
            table = {"quantity": list(values), "value": list(values.values())}
            write_csv(out / "mle.csv", table)
    return 0


def _report(chain, out: Path, fmt: str):
    """Print the posterior summary table of chain, then the Metropolis
    acceptance rate when the chain has one, with a warning on stderr when
    that rate is below LOW_ACCEPTANCE. Write chain_<tag>.csv,
    summary_<tag>.<fmt>, pacf_<tag>.csv of the drift draws when the chain is
    long enough and, for a jump chain, jump_probs_<tag>.csv with one row per
    increment. Return the summary and the PACF or None."""
    from .diagnostics import ParamSummary, pacf, summarize, write_summary_csv, write_summary_json

    summary = summarize(chain)
    columns = (f.name.replace("_", ".") for f in fields(ParamSummary))  # q2_5 as q2.5
    print(f"{'parameter':<12}" + "".join(f"{column:>12}" for column in columns))
    for name, row in summary.items():
        print(f"{name:<12}" + "".join(f"{value:>12.4f}" for value in astuple(row)))
    rate = chain.meta.accept_rate
    if rate is not None:
        print(f"metropolis acceptance rate {rate:.3f}")
        if rate < LOW_ACCEPTANCE:
            print(f"warning: metropolis acceptance rate {rate:.3f} is below {LOW_ACCEPTANCE}: "
                  "the jump move is rarely taken", file=sys.stderr)
    tag = chain.meta.model.replace("-", "_")
    write_chain_csv(chain, out / f"chain_{tag}.csv")
    if fmt == "json":
        write_summary_json(summary, out / f"summary_{tag}.json")
    else:
        write_summary_csv(summary, out / f"summary_{tag}.csv")
    probs = chain.jump_probs
    if probs is not None:
        table = {"index": range(len(probs)), "probability": probs}
        write_csv(out / f"jump_probs_{tag}.csv", table)
    max_lag = min(30, len(chain) - 2)
    if max_lag < 1:
        return summary, None
    lags = pacf(chain.column("mu"), max_lag=max_lag)
    write_csv(out / f"pacf_{tag}.csv", {"lag": range(1, max_lag + 1), "pacf": lags})
    return summary, lags


def cmd_fit(cfg: RunConfig) -> int:
    _, inc = _load_increments(cfg)
    _report(_run_fit(inc, cfg, cfg.model), _out_dir(cfg), cfg.format)
    return 0


def _next_weekdays(start: dt.date, count: int) -> list[dt.date]:
    """Trading-style date stamps for forecast rows: weekdays after start."""
    return np.busday_offset(start, np.arange(1, count + 1), roll="backward").tolist()


def write_bands(chain, series, inc, out: Path, steps, dates, level: float, seed, fitted: bool):
    """Write forecast_band_<tag>.csv, the band over steps (in years, one row
    per date of dates) from the last close of series, and, when fitted,
    fitted_band_<tag>.csv over inc from its first close, one row per date of
    series; return (forecast band, fitted band or None). Both bands are drawn
    before out is made and either is written, so a band that fails leaves no
    file. They draw from streams 1 and 2 derived from seed (OS entropy when
    seed is None), so they leave the chain's stream alone.
    """
    from .predict import fitted_band, predictive_band, write_band_csv

    tag = chain.meta.model.replace("-", "_")

    def stream(k: int) -> np.random.Generator:
        return np.random.default_rng(None if seed is None else np.random.SeedSequence([seed, k]))

    forecast = predictive_band(
        chain, start=float(series.prices[-1]), dt=steps, level=level, rng=stream(1),
    )
    band = None
    if fitted:
        band = fitted_band(chain, inc, x0=float(series.prices[0]), level=level, rng=stream(2))
    out.mkdir(parents=True, exist_ok=True)
    write_band_csv(forecast, out / f"forecast_band_{tag}.csv", dates=dates)
    if band is not None:
        write_band_csv(band, out / f"fitted_band_{tag}.csv", dates=series.dates)
    return forecast, band


def cmd_forecast(cfg: RunConfig) -> int:
    """Band the chain of --chain over --input's dates: a chain of another
    model than --model, or fitted to other increments, is an error."""
    if cfg.chain is None:
        raise ValueError("--chain is required")
    series, inc = _load_increments(cfg)
    chain = read_chain_csv(cfg.chain)
    if chain.meta.model != cfg.model:
        raise ValueError(
            f"{cfg.chain}: chain file holds model {chain.meta.model!r}, requested {cfg.model!r}"
        )
    if chain.meta.data != inc.digest():
        raise ValueError(
            f"{cfg.chain}: chain fitted to data {chain.meta.data}, --input gives "
            f"{inc.digest()}; refit with gbmjump fit"
        )
    band, _ = write_bands(
        chain, series, inc, Path(cfg.out or "."),
        steps=[1.0 / cfg.days_per_year] * cfg.horizon,
        dates=_next_weekdays(series.dates[-1], cfg.horizon),
        level=cfg.level, seed=cfg.seed, fitted=cfg.fitted_band,
    )
    print(
        f"forecast written: {cfg.horizon} steps, level {cfg.level}, "
        f"final mean {band.mean[-1]:.2f}"
    )
    return 0


def _coverage(band, series) -> float:
    """Share of the closes of series inside the band, row by row."""
    return float(np.mean((series.prices >= band.lower) & (series.prices <= band.upper)))


def cmd_study(cfg: RunConfig) -> int:
    """Fit every model to --input, report and write each fit as fit does,
    band each chain over --input and over --holdout's dates as forecast
    --fitted-band does, print the bands' coverage and write study.json."""
    from .diagnostics import summary_to_dict

    if cfg.holdout is None:
        raise ValueError("--holdout is required")
    train, inc = _load_increments(cfg)
    holdout = load_price_series(cfg.holdout)
    if holdout.dates[0] <= train.dates[-1]:
        raise ValueError(
            f"{cfg.holdout}: holdout starts {holdout.dates[0]}, "
            f"not after the last close of --input ({train.dates[-1]})"
        )
    out = _out_dir(cfg)
    print(f"training window: {len(train)} closes {train.dates[0]} .. {train.dates[-1]}")
    mle = mle_fit(inc)
    print(
        f"closed-form MLE: mu_hat {mle.mu:.4f}  sigma_hat {mle.sigma:.4f} "
        f"(theta_hat {mle.theta:.4f}, sigma2_hat {mle.sigma2:.6f})"
    )
    report = {"seed": cfg.seed, "mle": {"mu": mle.mu, "sigma": mle.sigma}, "models": {}}
    horizon = len(holdout)
    for model in SAMPLERS:
        start = time.perf_counter()
        chain = _run_fit(inc, cfg, model)
        seconds = time.perf_counter() - start
        print(f"{model} fit took {seconds:.1f}s", file=sys.stderr)
        print(f"\n{model} posterior")
        summary, lags = _report(chain, out, cfg.format)
        if chain.jump_probs is not None:
            flagged = int(np.sum(chain.jump_probs > 0.5))
            print(f"increments with posterior jump probability > 0.5: {flagged}")
        forecast, fitted = write_bands(
            chain, train, inc, out, steps=[1.0 / cfg.days_per_year] * horizon,
            dates=holdout.dates, level=cfg.level, seed=cfg.seed, fitted=True,
        )
        fitted_cov = _coverage(fitted, train)
        holdout_cov = _coverage(forecast, holdout)
        print(
            f"{model}: {cfg.level:.0%} band coverage, fitted {fitted_cov:.3f}, "
            f"{horizon}-day holdout {holdout_cov:.3f}"
        )
        report["models"][model] = {
            "seconds": seconds,
            "summary": summary_to_dict(summary),
            "pacf_lag1": None if lags is None else float(lags[0]),
            "fitted_coverage": fitted_cov,
            "holdout_coverage": holdout_cov,
        }
    write_json(out / "study.json", report)
    print(f"\nartifacts written to {out}/")
    return 0


# subcommand -> (handler, help)
COMMANDS = {
    "mle": (cmd_mle, "closed-form maximum likelihood"),
    "fit": (cmd_fit, "Gibbs posterior sampling"),
    "forecast": (cmd_forecast, "posterior predictive band"),
    "study": (cmd_study, "fit every model, band it over a holdout, report coverage"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmjump",
        description="Fit GBM or GBM-with-jumps to daily closes and forecast.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file of option defaults")
        for name, (readers, keywords) in OPTIONS.items():
            if command in readers.split():
                *_, typed = _KINDS[_FIELD_TYPES[name].removesuffix(" | None")]
                p.add_argument("--" + name.replace("_", "-"), **typed, **keywords)
    return parser


def main(argv=None) -> int:
    flag_values = vars(_build_parser().parse_args(argv))
    handler, _ = COMMANDS[flag_values.pop("command")]
    config_path = flag_values.pop("config")
    try:
        return handler(build_config(flag_values, config_path))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
