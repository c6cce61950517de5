import datetime as dt
import json
import re
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from gbmjump import (
    ChainMeta, DataError, PosteriorChain, load_price_series, read_chain_csv, run_gibbs,
    to_increments, write_chain_csv,
)
from gbmjump import cli, jumps
from gbmjump.cli import (
    COMMANDS, OPTIONS, RunConfig, _build_parser, _next_weekdays, build_config, main,
)

from conftest import DATA_DIR, HOLDOUT_CSV, SCRIPTS, TRAIN_CSV, load_script


def run_cli(capsys, *args):
    rc = main([str(a) for a in args])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def flat_csv(tmp_path):
    path = tmp_path / "flat.csv"
    rows = ["date,close"] + [f"2020-01-{d:02d},50.0" for d in range(6, 11)]
    path.write_text("\n".join(rows) + "\n")
    return path


def read_by(command, **values):
    """The flag values main passes build_config for command: every key the
    subcommand reads, None where its flag is unset, values where given."""
    args = vars(_build_parser().parse_args([command]))
    del args["command"], args["config"]
    return {**args, **values}


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config({}, None, env={})
        assert cfg == RunConfig()

    def test_every_field_has_an_option_row_read_by_subcommands(self):
        assert set(OPTIONS) == {f.name for f in fields(RunConfig)}
        for readers, _ in OPTIONS.values():
            assert readers.split() and set(readers.split()) <= set(COMMANDS)

    def test_config_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"horizon": 12, "model": "gbm-jump", "seed": None, "level": 0.5, "fitted_band": True}
        ))
        cfg = build_config(read_by("forecast"), str(path), env={})
        assert cfg.horizon == 12
        assert cfg.model == "gbm-jump"
        assert cfg.days_per_year == 252
        assert (cfg.seed, cfg.level, cfg.fitted_band) == (None, 0.5, True)

    def test_env_overrides_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"iters": 123}))
        cfg = build_config(read_by("fit"), str(path), env={"GBMJUMP_ITERS": "55"})
        assert cfg.iters == 55

    def test_flags_override_env(self):
        cfg = build_config(read_by("fit", iters=7), None, env={"GBMJUMP_ITERS": "55"})
        assert cfg.iters == 7

    def test_env_coercion(self):
        cfg = build_config(
            read_by("forecast"), None,
            env={
                "GBMJUMP_LEVEL": "0.5",
                "GBMJUMP_SEED": "9",
                "GBMJUMP_FITTED_BAND": "true",
            },
        )
        assert cfg.level == 0.5
        assert cfg.seed == 9
        assert cfg.fitted_band is True

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError):
            build_config(read_by("forecast"), None, env={"GBMJUMP_FITTED_BAND": "maybe"})

    @pytest.mark.parametrize(
        "command, values, message",
        [
            ("fit", {"iters": 2.5}, "iters must be an integer, got 2.5"),
            ("fit", {"iters": True}, "iters must be an integer, got True"),
            ("fit", {"seed": 1.5}, "seed must be an integer, got 1.5"),
            ("forecast", {"level": True}, "level must be a number, got True"),
            ("forecast", {"fitted_band": 1}, "fitted_band must be a boolean, got 1"),
            ("mle", {"input": 7}, "input must be a string, got 7"),
            ("mle", {"input": 0}, "input must be a string, got 0"),
            ("mle", {"out": ["results"]}, r"out must be a string, got \['results'\]"),
            ("forecast", {"chain": 9}, "chain must be a string, got 9"),
            ("fit", {"model": None}, "model must be a string, got None"),
            ("mle", {"format": False}, "format must be a string, got False"),
            ("study", {"holdout": 7}, "holdout must be a string, got 7"),
        ],
        ids=["float-iters", "bool-iters", "float-seed", "bool-level", "int-flag",
             "int-input", "fd0-input", "list-out", "int-chain", "null-model", "bool-format",
             "int-holdout"],
    )
    def test_config_file_wrong_type_names_key_and_file(self, tmp_path, command, values, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        with pytest.raises(ValueError, match=message) as err:
            build_config(read_by(command), str(path), env={})
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "command, var, raw, message",
        [
            ("fit", "GBMJUMP_ITERS", "abc", "iters must be an integer, got 'abc'"),
            ("fit", "GBMJUMP_SEED", "1.5", "seed must be an integer, got '1.5'"),
            ("forecast", "GBMJUMP_LEVEL", "wide", "level must be a number, got 'wide'"),
            ("forecast", "GBMJUMP_FITTED_BAND", "maybe",
             "fitted_band must be a boolean, got 'maybe'"),
        ],
        ids=["iters", "seed", "level", "fitted_band"],
    )
    def test_env_wrong_type_names_key_and_variable(self, command, var, raw, message):
        with pytest.raises(ValueError, match=f"^{var}: {message}$"):
            build_config(read_by(command), None, env={var: raw})

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"itres": 5}))
        for command in ("mle", "fit", "forecast", "study"):
            with pytest.raises(ValueError, match="itres"):
                build_config(read_by(command), str(path), env={})

    def test_validation_failures(self):
        for command, bad, message in (
            ("fit", {"model": "garch"}, "unknown model 'garch'"),
            ("mle", {"format": "yaml"}, "unknown format 'yaml'"),
            ("fit", {"iters": 0}, "iters must be >= 2"),
            ("fit", {"burnin": -1}, "burnin must be >= 0"),
            ("fit", {"seed": -1}, "seed must be >= 0"),
            ("forecast", {"seed": -2}, "seed must be >= 0"),
            ("study", {"seed": -3}, "seed must be >= 0"),
            ("forecast", {"level": 1.0}, "level must lie strictly in"),
            ("forecast", {"horizon": 0}, "horizon must be >= 1"),
            ("mle", {"days_per_year": 0}, "days-per-year must be >= 1"),
        ):
            with pytest.raises(ValueError, match=message):
                build_config(read_by(command, **bad), None, env={})

    def test_keys_the_command_does_not_read_are_ignored(self, tmp_path):
        # even values of the wrong type: mle reads no iters, model or level
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": 3, "iters": 50}))
        env = {"GBMJUMP_ITERS": "abc", "GBMJUMP_LEVEL": "2"}
        assert build_config(read_by("mle"), str(path), env=env) == RunConfig()


class TestScopedOptions:
    """Each subcommand takes the flags of the options it reads, and only those
    options from the environment and the config file."""

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("mle", {"--input", "--config", "--days-per-year", "--out", "--format"}),
            ("fit", {"--input", "--config", "--days-per-year", "--out", "--format",
                     "--iters", "--burnin", "--seed", "--model"}),
            ("forecast", {"--input", "--config", "--days-per-year", "--out", "--seed",
                          "--model", "--level", "--horizon", "--chain", "--fitted-band"}),
            ("study", {"--input", "--config", "--days-per-year", "--out", "--format",
                       "--iters", "--burnin", "--seed", "--holdout", "--level"}),
        ],
    )
    def test_help_lists_the_flags_read(self, capsys, command, flags):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        listed = set(re.findall(r"(--[a-z-]+)", capsys.readouterr().out)) - {"--help"}
        assert listed == flags

    @pytest.mark.parametrize(
        "args, flag",
        [(["mle", "--seed", "3"], "--seed 3"), (["forecast", "--format", "json"], "--format json"),
         (["forecast", "--iters", "5"], "--iters 5")],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, args, flag):
        with pytest.raises(SystemExit) as stop:
            main([*args, "--input", str(TRAIN_CSV)])
        assert stop.value.code == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_study_ignores_model_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GBMJUMP_MODEL", "garch")
        rc, _, err = run_cli(
            capsys, "study", "--input", TRAIN_CSV, "--holdout", HOLDOUT_CSV, "--iters", 2,
            "--burnin", 1, "--seed", 1, "--out", tmp_path,
        )
        # stderr holds the fits' run times and nothing else
        assert rc == 0 and re.fullmatch(r"(\S+ fit took \d+\.\ds\n)+", err), err

    def test_fit_ignores_horizon_env_and_file(self, capsys, tmp_path, monkeypatch):
        settings = ("fit", "--input", TRAIN_CSV, "--iters", 2, "--burnin", 1, "--seed", 1)
        monkeypatch.setenv("GBMJUMP_HORIZON", "0")
        rc, _, err = run_cli(capsys, *settings, "--out", tmp_path / "env")
        assert (rc, err) == (0, "")
        monkeypatch.delenv("GBMJUMP_HORIZON")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"horizon": 0}))
        rc, _, err = run_cli(capsys, *settings, "--config", path, "--out", tmp_path / "file")
        assert (rc, err) == (0, "")

    def test_mle_ignores_level_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GBMJUMP_LEVEL", "2")
        rc, out, err = run_cli(capsys, "mle", "--input", TRAIN_CSV)
        assert (rc, err) == (0, "")
        assert "mu_hat=0.149" in out

    @pytest.mark.parametrize("command", ["fit", "forecast", "study"])
    def test_one_draw_is_refused_before_sampling(self, capsys, tmp_path, train_inc, command):
        args, message = ("--iters", 1), "iters must be >= 2"
        if command == "study":
            args += ("--holdout", HOLDOUT_CSV)
        if command == "forecast":  # fit writes no one-draw chain; the library does
            chain = tmp_path / "chain_gbm.csv"
            write_chain_csv(run_gibbs(train_inc, n_keep=1, burn_in=0, seed=1), chain)
            args = ("--chain", chain)
            message = "need at least two paths for a band (chain rows >= 2)"
        rc, _, err = run_cli(
            capsys, command, "--input", TRAIN_CSV, *args, "--out", tmp_path / "out"
        )
        assert (rc, err) == (1, f"error: {message}\n")
        assert not (tmp_path / "out").exists()


class TestReadmeCommandTable:
    """README's "Command line" table lists each subcommand's flags in the
    order of its --help."""

    TABLE = dict(re.findall(
        r"^\| `(\w+)` \| `([^`]+)` \|$", (DATA_DIR.parent / "README.md").read_text(), re.M,
    ))

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_flags_match_the_parser(self, capsys, command):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert self.TABLE[command].split() == re.findall(r"\[(--[a-z-]+)", usage)

    def test_every_subcommand_has_a_row(self):
        assert list(self.TABLE) == list(COMMANDS)


class TestMleCommand:
    def test_reports_annualized_estimates(self, capsys):
        rc, out, err = run_cli(capsys, "mle", "--input", TRAIN_CSV)
        assert rc == 0
        assert err == ""
        assert "mu_hat=0.149" in out
        assert "sigma_hat=0.183" in out

    def test_degenerate_series_warns_but_succeeds(self, capsys, flat_csv):
        rc, out, err = run_cli(capsys, "mle", "--input", flat_csv)
        assert rc == 0
        assert "degenerate" in err
        assert "sigma_hat=0.000000" in out

    def test_writes_csv_report(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        rc, _, _ = run_cli(capsys, "mle", "--input", TRAIN_CSV, "--out", out_dir)
        assert rc == 0
        lines = (out_dir / "mle.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
        got = dict(line.split(",") for line in lines[1:])
        assert float(got["mu_hat"]) == pytest.approx(0.149, abs=0.002)
        assert got["degenerate"] == "False"

    def test_writes_json_report(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        rc, _, _ = run_cli(
            capsys, "mle", "--input", TRAIN_CSV, "--out", out_dir, "--format", "json"
        )
        assert rc == 0
        data = json.loads((out_dir / "mle.json").read_text())
        assert data["sigma_hat"] == pytest.approx(0.183, abs=0.002)


class TestFitCommand:
    def test_writes_chain_summary_and_pacf(self, capsys, tmp_path):
        out_dir = tmp_path / "fit"
        rc, out, _ = run_cli(
            capsys, "fit", "--input", TRAIN_CSV, "--out", out_dir,
            "--iters", 40, "--burnin", 5, "--seed", 3,
        )
        assert rc == 0
        assert "parameter" in out and "mu" in out
        chain_lines = (out_dir / "chain_gbm.csv").read_text().splitlines()
        assert chain_lines[0] == "# model: gbm"
        assert len(chain_lines) == 6 + 40  # 5 header lines and the column names
        assert (out_dir / "summary_gbm.csv").exists()
        pacf_lines = (out_dir / "pacf_gbm.csv").read_text().splitlines()
        assert len(pacf_lines) == 1 + 30
        assert not (out_dir / "jump_probs_gbm.csv").exists()

    def test_pacf_skipped_for_tiny_chains(self, capsys, tmp_path):
        out_dir = tmp_path / "tiny"
        rc, _, _ = run_cli(
            capsys, "fit", "--input", TRAIN_CSV, "--out", out_dir,
            "--iters", 2, "--burnin", 0, "--seed", 3,
        )
        assert rc == 0
        assert (out_dir / "chain_gbm.csv").exists()
        assert not (out_dir / "pacf_gbm.csv").exists()

    def test_jump_fit_writes_jump_products(self, capsys, tmp_path):
        out_dir = tmp_path / "jump"
        rc, _, _ = run_cli(
            capsys, "fit", "--input", TRAIN_CSV, "--out", out_dir,
            "--model", "gbm-jump", "--iters", 20, "--burnin", 2, "--seed", 3,
            "--format", "json",
        )
        assert rc == 0
        summary = json.loads((out_dir / "summary_gbm_jump.json").read_text())
        assert "lambda_star" in summary
        probs = (out_dir / "jump_probs_gbm_jump.csv").read_text().splitlines()
        assert probs[0] == "index,probability"
        assert len(probs) == 1 + 1510  # one row per increment

    def test_jump_fit_reports_acceptance_rate(self, capsys, tmp_path):
        out_dir = tmp_path / "jump"
        rc, out, err = run_cli(
            capsys, "fit", "--input", TRAIN_CSV, "--out", out_dir,
            "--model", "gbm-jump", "--iters", 20, "--burnin", 400, "--seed", 3,
        )
        assert rc == 0
        chain = read_chain_csv(out_dir / "chain_gbm_jump.csv")
        assert cli.LOW_ACCEPTANCE < chain.meta.accept_rate < 1.0
        assert out.splitlines()[-1] == (
            f"metropolis acceptance rate {chain.meta.accept_rate:.3f}"
        )
        assert "warning" not in err

    def test_low_acceptance_warns_on_stderr_only(self, capsys, tmp_path):
        draws = np.random.default_rng(4).uniform(0.01, 0.2, (8, 6))
        draws[:, 5] = np.arange(8)
        meta = ChainMeta("gbm-jump", 0, 4, "0" * 8, accept_rate=0.05)
        cli._report(PosteriorChain(draws=draws, meta=meta), tmp_path, "csv")
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "metropolis acceptance rate 0.050"
        assert err == (
            "warning: metropolis acceptance rate 0.050 is below 0.1: the jump move is rarely taken\n"
        )

    @pytest.mark.parametrize(
        "model, names",
        [
            ("gbm", ["chain_gbm.csv", "summary_gbm.csv", "pacf_gbm.csv"]),
            ("gbm-jump", ["chain_gbm_jump.csv", "summary_gbm_jump.csv", "pacf_gbm_jump.csv",
                          "jump_probs_gbm_jump.csv"]),
        ],
        ids=["gbm", "gbm-jump"],
    )
    def test_same_seed_gives_byte_identical_outputs(self, capsys, tmp_path, model, names):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc, _, _ = run_cli(
                capsys, "fit", "--input", TRAIN_CSV, "--model", model, "--out", d,
                "--iters", 50, "--burnin", 5, "--seed", 11,
            )
            assert rc == 0
        assert sorted(p.name for p in dirs[0].iterdir()) == sorted(names)
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def fit_chain(capsys, out_dir, *args, model="gbm", data=TRAIN_CSV):
    """Run fit on data with args after the model's flag; return the chain file."""
    rc, _, err = run_cli(capsys, "fit", "--input", data, "--model", model, "--out", out_dir, *args)
    assert (rc, err) == (0, "")
    return out_dir / f"chain_{model.replace('-', '_')}.csv"


class TestForecastCommand:
    def test_non_finite_chain_fails(self, capsys, tmp_path):
        fit_dir = tmp_path / "fit"
        run_cli(
            capsys, "fit", "--input", TRAIN_CSV, "--model", "gbm-jump", "--out", fit_dir,
            "--iters", 5, "--burnin", 0, "--seed", 1,
        )
        chain = fit_dir / "chain_gbm_jump.csv"
        lines = chain.read_text().splitlines()
        lines[7] = "nan" + lines[7][lines[7].index(","):]  # the first draw, after 6 header lines
        chain.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "fc"
        rc, _, err = run_cli(
            capsys, "forecast", "--input", TRAIN_CSV, "--model", "gbm-jump",
            "--chain", chain, "--out", out_dir, "--seed", 1,
        )
        assert rc == 1
        assert err.startswith("error:") and "non-finite theta" in err
        assert not (out_dir / "forecast_band_gbm_jump.csv").exists()

    def test_failed_fitted_band_writes_nothing(self, capsys, tmp_path, train_inc):
        # theta = 150 a year stays finite over the 40-day forecast and
        # overflows over the six years of the fitted band
        meta = ChainMeta(model="gbm", burn_in=0, seed=None, data=train_inc.digest())
        chain = tmp_path / "chain_gbm.csv"
        write_chain_csv(PosteriorChain(draws=np.tile([150.0, 1e-6], (4, 1)), meta=meta), chain)
        rc, _, err = run_cli(
            capsys, "forecast", "--input", TRAIN_CSV, "--chain", chain, "--fitted-band",
            "--out", tmp_path / "fc", "--seed", 1,
        )
        assert (rc, err) == (1, "error: price paths must stay positive and finite\n")
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize(
        "key, value", [("n_keep", "5e3"), ("burn_in", "x"), ("seed", "1.5")]
    )
    def test_malformed_chain_header_fails(self, capsys, tmp_path, key, value):
        fit_dir = tmp_path / "fit"
        run_cli(
            capsys, "fit", "--input", TRAIN_CSV, "--out", fit_dir,
            "--iters", 5, "--burnin", 0, "--seed", 1,
        )
        chain = fit_dir / "chain_gbm.csv"
        lines = [
            f"# {key}: {value}" if line.startswith(f"# {key}:") else line
            for line in chain.read_text().splitlines()
        ]
        chain.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "fc"
        rc, _, err = run_cli(
            capsys, "forecast", "--input", TRAIN_CSV, "--chain", chain,
            "--out", out_dir, "--seed", 1,
        )
        assert rc == 1
        assert err == f"error: {chain}: header {key} must be an integer, got '{value}'\n"
        assert not (out_dir / "forecast_band_gbm.csv").exists()

    def test_band_file_shape_and_dates(self, capsys, tmp_path):
        chain = fit_chain(capsys, tmp_path / "fit", "--iters", 30, "--burnin", 5, "--seed", 2)
        out_dir = tmp_path / "fc"
        rc, out, _ = run_cli(
            capsys, "forecast", "--input", TRAIN_CSV, "--out", out_dir,
            "--chain", chain, "--seed", 2, "--horizon", 7,
        )
        assert rc == 0
        assert "forecast written" in out
        lines = (out_dir / "forecast_band_gbm.csv").read_text().splitlines()
        assert lines[1] == "time,date,lower,mean,upper"
        assert len(lines) == 2 + 7
        # bundled series ends Wednesday 2014-12-31; stamps continue by weekday
        assert lines[2].split(",")[1] == "2015-01-01"

    def test_fitted_band_flag(self, capsys, tmp_path):
        chain = fit_chain(capsys, tmp_path / "fit", "--iters", 30, "--burnin", 5, "--seed", 2)
        out_dir = tmp_path / "fb"
        rc, _, _ = run_cli(
            capsys, "forecast", "--input", TRAIN_CSV, "--out", out_dir,
            "--chain", chain, "--seed", 2, "--fitted-band",
        )
        assert rc == 0
        lines = (out_dir / "fitted_band_gbm.csv").read_text().splitlines()
        assert len(lines) == 2 + 1511
        assert lines[2].split(",")[1] == "2009-01-02"

    def test_fitted_band_starts_exactly_at_first_close(self, capsys, tmp_path):
        chain = fit_chain(
            capsys, tmp_path / "fit", "--iters", 30, "--burnin", 5, "--seed", 2, model="gbm-jump"
        )
        out_dir = tmp_path / "fb"
        rc, _, _ = run_cli(
            capsys, "forecast", "--input", TRAIN_CSV, "--out", out_dir, "--model", "gbm-jump",
            "--chain", chain, "--seed", 2, "--fitted-band",
        )
        assert rc == 0
        first_close = TRAIN_CSV.read_text().splitlines()[1].split(",")[1]
        row = (out_dir / "fitted_band_gbm_jump.csv").read_text().splitlines()[2].split(",")
        assert [float(v) for v in row[2:]] == [float(first_close)] * 3

    def test_chain_model_mismatch_fails(self, capsys, tmp_path):
        chain = fit_chain(capsys, tmp_path / "fit", "--iters", 5, "--burnin", 0, "--seed", 1)
        rc, _, err = run_cli(
            capsys, "forecast", "--input", TRAIN_CSV, "--model", "gbm-jump",
            "--chain", chain, "--seed", 1, "--out", tmp_path / "fc",
        )
        assert rc == 1
        assert err == f"error: {chain}: chain file holds model 'gbm', requested 'gbm-jump'\n"
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize(
        "model, fitted_to, days_per_year",
        [
            ("gbm", HOLDOUT_CSV, 252),
            ("gbm-jump", HOLDOUT_CSV, 252),
            ("gbm", TRAIN_CSV, 12),
            ("gbm-jump", TRAIN_CSV, 12),
        ],
        ids=["gbm-holdout", "jump-holdout", "gbm-days-per-year", "jump-days-per-year"],
    )
    def test_chain_of_other_data_fails(self, capsys, tmp_path, model, fitted_to, days_per_year):
        chain = fit_chain(
            capsys, tmp_path / "fit", "--iters", 5, "--burnin", 0, "--seed", 1,
            model=model, data=fitted_to,
        )
        fitted = read_chain_csv(chain).meta.data
        given = to_increments(load_price_series(TRAIN_CSV), days_per_year=days_per_year).digest()
        assert fitted != given
        rc, _, err = run_cli(
            capsys, "forecast", "--input", TRAIN_CSV, "--days-per-year", days_per_year,
            "--model", model, "--chain", chain, "--seed", 1, "--fitted-band",
            "--out", tmp_path / "fc",
        )
        assert rc == 1
        assert err == (
            f"error: {chain}: chain fitted to data {fitted}, --input gives {given}; "
            "refit with gbmjump fit\n"
        )
        assert not (tmp_path / "fc").exists()

    def test_chain_is_required(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "forecast", "--input", TRAIN_CSV, "--out", tmp_path / "fc")
        assert (rc, err) == (1, "error: --chain is required\n")
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("last", ["2020-01-10", "2020-01-11"])  # a Friday, a Saturday
    def test_forecast_dates_skip_the_weekend(self, capsys, tmp_path, last):
        end = dt.date.fromisoformat(last)
        prices = 100.0 * np.exp(np.cumsum(0.01 * np.random.default_rng(0).standard_normal(30)))
        rows = [f"{end - dt.timedelta(days=29 - i)},{p:.4f}" for i, p in enumerate(prices)]
        data = tmp_path / "prices.csv"
        data.write_text("date,close\n" + "\n".join(rows) + "\n")
        chain = fit_chain(capsys, tmp_path / "fit", "--iters", 30, "--seed", 2, data=data)
        rc, _, err = run_cli(
            capsys, "forecast", "--input", data, "--chain", chain, "--seed", 2,
            "--horizon", 6, "--out", tmp_path / "fc",
        )
        assert (rc, err) == (0, "")
        lines = (tmp_path / "fc" / "forecast_band_gbm.csv").read_text().splitlines()[2:]
        assert [line.split(",")[1] for line in lines] == [
            "2020-01-13", "2020-01-14", "2020-01-15", "2020-01-16", "2020-01-17", "2020-01-20",
        ]

    def test_weekday_stamps_match_a_day_by_day_walk(self):
        for start in (dt.date(2020, 1, 6) + dt.timedelta(days=k) for k in range(7)):
            days = (start + dt.timedelta(days=k) for k in range(1, 20))
            assert _next_weekdays(start, 10) == [d for d in days if d.weekday() < 5][:10]


class TestErrorPaths:
    def test_missing_input(self, capsys):
        rc, _, err = run_cli(capsys, "fit")
        assert rc == 1
        assert err.startswith("error:")
        assert "--input" in err

    def test_nonexistent_input(self, capsys):
        rc, _, err = run_cli(capsys, "mle", "--input", "/no/such/file.csv")
        assert rc == 1
        assert err.startswith("error:")

    def test_bad_level(self, capsys):
        rc, _, err = run_cli(capsys, "forecast", "--input", TRAIN_CSV, "--level", "1.5")
        assert rc == 1
        assert "level" in err

    def test_bad_horizon(self, capsys):
        rc, _, err = run_cli(capsys, "forecast", "--input", TRAIN_CSV, "--horizon", "0")
        assert rc == 1
        assert "horizon" in err

    def test_degenerate_fit_fails_cleanly(self, capsys, flat_csv):
        rc, _, err = run_cli(capsys, "fit", "--input", flat_csv, "--iters", 5)
        assert rc == 1
        assert "degenerate" in err

    def test_error_output_is_single_line(self, capsys):
        rc, _, err = run_cli(capsys, "fit")
        assert rc == 1
        assert len(err.strip().splitlines()) == 1


class TestStudyCommand:
    def test_short_chains_complete(self, tmp_path, capsys):
        out_dir = tmp_path / "study"
        rc, _, _ = run_cli(
            capsys, "study", "--input", TRAIN_CSV, "--holdout", HOLDOUT_CSV, "--out", out_dir,
            "--iters", "2", "--burnin", "1", "--seed", "42",
        )
        assert rc == 0
        report = json.loads((out_dir / "study.json").read_text())
        assert report["models"]["gbm"]["pacf_lag1"] is None
        assert not (out_dir / "pacf_gbm.csv").exists()
        for name in ("chain_gbm_jump.csv", "jump_probs_gbm_jump.csv", "forecast_band_gbm.csv"):
            assert (out_dir / name).exists()
        # the study's bands are the ones forecast writes from its chains
        for model in ("gbm", "gbm-jump"):
            cli_dir, tag = tmp_path / model, model.replace("-", "_")
            rc, _, _ = run_cli(
                capsys, "forecast", "--input", TRAIN_CSV, "--model", model,
                "--chain", out_dir / f"chain_{tag}.csv", "--seed", "42", "--fitted-band",
                "--out", cli_dir,
            )
            assert rc == 0
            name = f"fitted_band_{tag}.csv"
            assert (cli_dir / name).read_bytes() == (out_dir / name).read_bytes()

    def test_seeded_runs_print_the_same_stdout(self, tmp_path, capsys, monkeypatch):
        # a clock whose every reading is further on: the two runs' fits take
        # different times, which go to stderr
        ticks = iter(range(100))
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks) ** 2 / 7))
        settings = ("study", "--input", TRAIN_CSV, "--holdout", HOLDOUT_CSV, "--iters", 5,
                    "--burnin", 1, "--seed", 3, "--out", tmp_path)
        (rc1, out1, err1), (rc2, out2, err2) = (run_cli(capsys, *settings) for _ in range(2))
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert err1 != err2

    def test_jump_probs_match_fit(self, tmp_path, capsys):
        settings = ("--input", TRAIN_CSV, "--iters", 20, "--burnin", 2, "--seed", 5)
        rc, _, _ = run_cli(
            capsys, "study", *settings, "--holdout", HOLDOUT_CSV, "--out", tmp_path / "study"
        )
        assert rc == 0
        rc, _, _ = run_cli(capsys, "fit", *settings, "--model", "gbm-jump", "--out", tmp_path / "fit")
        assert rc == 0
        name = "jump_probs_gbm_jump.csv"
        assert (tmp_path / "study" / name).read_bytes() == (tmp_path / "fit" / name).read_bytes()

    def test_missing_holdout(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "study", "--input", TRAIN_CSV, "--iters", 2, "--out", tmp_path / "study"
        )
        assert rc == 1
        assert err == "error: --holdout is required\n"
        assert not (tmp_path / "study").exists()

    def test_holdout_before_training_end_fails(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "study", "--input", TRAIN_CSV, "--holdout", TRAIN_CSV, "--iters", 2,
            "--out", tmp_path / "study",
        )
        assert rc == 1
        assert err == (
            f"error: {TRAIN_CSV}: holdout starts 2009-01-02, "
            "not after the last close of --input (2014-12-31)\n"
        )
        assert not (tmp_path / "study").exists()


class TestMakeDataset:
    def test_regenerates_bundled_data(self, tmp_path):
        rc = load_script("make_dataset").main(["--outdir", str(tmp_path)])
        assert rc == 0
        for name in ("sp500_synthetic.csv", "sp500_synthetic_holdout.csv"):
            assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes()


class TestCodeLines:
    def test_counts_neither_docstrings_nor_comments_nor_blank_lines(self):
        source = (
            '"""Module docstring\n'
            'over two lines."""\n'
            "\n"
            "# a comment line\n"
            "def f(x):  # code with a trailing comment counts\n"
            '    """Docstring."""\n'
            "    return (x +\n"
            "            1)\n"
        )
        assert load_script("code_lines").code_lines(source) == 3


class TestMoveScan:
    def test_cut_scan_stars_one_row_per_table_and_restores_the_constants(
            self, capsys, monkeypatch):
        # for compare_trees; the script's own sys.path edits are undone with this
        monkeypatch.syspath_prepend(str(SCRIPTS))
        scan = load_script("move_scan")
        for name, value in (("SHAPES", scan.SHAPES[:2]), ("SEEDS", 2), ("KEEP", 300),
                            ("BURN_IN", 50)):
            monkeypatch.setattr(scan, name, value)
        proposals = [{"_T_DF": df, "_T_SCALE": s} for df in (5.0, 30.0) for s in (1.0, 1.2)]
        monkeypatch.setitem(scan.GRIDS, "proposal", (scan.min_ess, proposals))
        names = ("_MOVES", "_T_DF", "_T_SCALE")
        today = [getattr(jumps, name) for name in names]
        assert scan.main() == 0
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert [block.split(":")[0] for block in blocks] == ["cycle length", "proposal"]
        for block, (_, points) in zip(blocks, scan.GRIDS.values()):
            synthetic, bundled = block.split("\nbundled data")
            rows = synthetic.splitlines()[2:]
            assert len(rows) == len(points) == len(bundled.splitlines()) - 2
            assert sum(row.startswith("*") for row in rows) == 1
        assert [getattr(jumps, name) for name in names] == today
        # a fit that raises after its point's constants were set
        bad = [(np.array([np.nan]), np.ones(1), 1)]
        with pytest.raises(DataError):
            scan.scan("proposal", scan.min_ess, proposals, bad, (np.zeros(2), np.ones(2)))
        assert [getattr(jumps, name) for name in names] == today
