"""gbmjump benchmark: run one workload for a fixed time, check every output,
and print its metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload jump-fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root; it builds nothing and runs the package from
src/. --trace 0 gives the end-to-end metrics of BENCHMARK.json, measured on
fresh processes as a user runs them. --trace 1 alternates untraced operations
with traced ones (perfbench/traced.py) and gives the per-layer metrics.
--workload all runs every workload and ends with a table, one row each.

Operations run one after another (closed loop, one client). Inputs come from
--seed only: the fit seeds, the chains fitted before timing, and the short
series. The end-to-end times are scaled to a reference machine speed
(perfbench/reference.py): each command's wall time is multiplied by
REFERENCE_S over the reference kernels' time just before and just after it.
A JSON line with the environment, the computed sizes and the unscaled
medians comes just before the result line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ess import ess
from reference import REFERENCE_S, reference_seconds

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
DATA = ROOT / "data" / "sp500_synthetic.csv"
WORK = ROOT / ".perfbench_work"

FIT_ITERS, FIT_BURNIN = 5000, 1000
HORIZON = 40
BAND_DRAWS = 2000  # predict's max_draws: paths per band
BUNDLED_N = 1510  # increments in DATA
PREPARED_FITS = 8  # bundled-data fits before timing on jump-bands and short-series
SHORT_N, SHORT_BATCH, SHORT_ITERS, SHORT_BURNIN = 50, 8, 500, 100
# Jump-model parameters for the short series, near the bundled data's fit.
SHORT_TRUTH = dict(theta=0.3, sigma2=0.089**2, lam=0.36, mu_z=-0.002, sigma_z=0.017)
IMPORT_WARMUP = 3  # imports timed before the first operation
IMPORT_EVERY_S = 2.5  # then one after an operation if this long has passed
FLOAT_RTOL = 1e-12
JUMP_PARAMS = ("lambda_star", "sigma", "mu", "mu_z", "sigma_z")
# Acceptance criterion 2 of tests/test_acceptance.py: (centre, half-width) of
# each posterior mean. Not to be widened.
CRITERION_2 = {
    "sigma": (0.089, 0.012),
    "lambda_star": (0.36, 0.06),
    "mu_z": (-0.002, 0.002),
    "sigma_z": (0.017, 0.003),
    "mu": (0.349, 0.08),
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    **{f"ess_per_s.{p}": "1/s" for p in JUMP_PARAMS},
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "series.load_s": "s",
    "series.increments_s": "s",
    "gbm.mle_s": "s",
    "gibbs.sweep_us": "us",
    "gibbs.chain_write_s": "s",
    "gibbs.chain_write_bytes": "bytes",
    "gibbs.chain_read_s": "s",
    "jumps.sweep_us": "us",
    "jumps.latent_us": "us",
    "jumps.indicator_prob_us": "us",
    "jumps.lambda_us": "us",
    "jumps.moments_us": "us",
    "jumps.diffusion_us": "us",
    "jumps.loop_self_us": "us",
    **{f"jumps.ess_per_sweep.{p}": "ratio" for p in JUMP_PARAMS},
    "jumps.active_ratio": "ratio",
    "predict.fitted_s": "s",
    "predict.forecast_s": "s",
    "predict.band_s": "s",
    "predict.band_write_s": "s",
    "predict.path_bytes": "bytes",
    "diagnostics.summarize_s": "s",
    "diagnostics.pacf_s": "s",
    "trace.overhead_s": "s",
}
# Self time of a span under run_jump_gibbs goes to the block of its nearest
# ancestor-or-self listed here; the mle_fit start is not part of a sweep.
JUMP_BLOCKS = {
    "jumps.run_jump_gibbs": "loop_self",
    "jumps.sample_latent": "latent",
    "jumps.jump_indicator_prob": "indicator_prob",
    "jumps.update_lambda": "lambda",
    "jumps.lambda_conditional": "lambda",
    "jumps.update_jump_moments": "moments",
    "jumps.update_diffusion_block": "diffusion",
    "gbm.mle_fit": "start",
}


def derive_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    ok: bool
    scale: float  # REFERENCE_S over the reference time around the command

    @property
    def seconds(self) -> float:
        """Wall time scaled to the reference machine speed."""
        return self.wall_s * self.scale


class Launcher:
    """The perfbench/spawn.py process that starts every command of a run from
    the repository root, with src on PYTHONPATH, and measures it. The
    reference kernels run here between commands, so every command is timed
    between two reference timings."""

    def __init__(self) -> None:
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        reference_seconds()  # touches the kernels' buffers
        self.references = [reference_seconds()]

    def run(self, argv: list[str], log: Path) -> Proc:
        self.proc.stdin.write(json.dumps({"argv": argv, "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench/spawn.py exited")
        result = json.loads(reply)
        if result["code"] != 0:
            print(f"{' '.join(argv[:4])}... exited {result['code']}: "
                  f"{log.read_text()[-400:]}", file=sys.stderr)
        self.references.append(reference_seconds())
        around = 0.5 * (self.references[-2] + self.references[-1])
        return Proc(wall_s=result["wall_s"], rss_mb=result["rss_mb"],
                    ok=result["code"] == 0, scale=REFERENCE_S / around)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "gbmjump.cli", *args]


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV written by the package: '#' lines, a header, numbers."""
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        names = line.strip().split(",")
        rows = list(csv.reader(fh))
    columns = {}
    for i, name in enumerate(names):
        cells = [row[i] for row in rows]
        try:
            columns[name] = np.array(cells, dtype=float)
        except ValueError:
            columns[name] = np.array(cells)
    return columns


@dataclass
class Fits:
    """Jump fits pooled for ESS: per-parameter ESS sums, kept draws, the
    scaled seconds of each fit, and the mean share of increments flagged as
    jumps."""

    ess: dict[str, float] = field(default_factory=lambda: dict.fromkeys(JUMP_PARAMS, 0.0))
    kept: int = 0
    seconds: list[float] = field(default_factory=list)
    active: list[float] = field(default_factory=list)

    def add(self, columns: dict[str, np.ndarray], seconds: float, active: float) -> None:
        for p in JUMP_PARAMS:
            self.ess[p] += ess(columns[p])
        self.kept += len(columns["lambda_star"])
        self.seconds.append(seconds)
        self.active.append(active)

    def ess_per_s(self, param: str) -> float:
        """Summed ESS over the fits' time, taken as the number of fits times
        the median fit, so that one fit caught by a slow spell of the
        machine does not carry the figure."""
        if not self.seconds:
            return 0.0
        return self.ess[param] / (len(self.seconds) * statistics.median(self.seconds))


class Workload:
    """One kind of operation: how to prepare its inputs, how to run one
    operation and how to check what it wrote."""

    name = ""
    target = "gbmjump.cli"  # module whose main(argv) a traced run calls
    n = 0
    sweeps = 0  # per fit
    fits_per_op = 0
    chain_bytes = 0  # size of the last chain file an operation wrote

    def __init__(self, seed: int, work: Path, launcher: Launcher) -> None:
        self.seed = seed
        self.work = work
        self.launcher = launcher
        self.fits = Fits()

    def prepare(self) -> None:
        pass

    def fit_bundled(self) -> list[Path]:
        """Make PREPARED_FITS jump-fit operations before timing, add them to
        self.fits and return their chain files."""
        fitter = JumpFit(derive_seed(self.seed, 1), self.work, self.launcher)
        fitter.fits = self.fits
        chains = []
        for k in range(PREPARED_FITS):
            out = self.work / f"chain{k}"
            proc = self.launcher.run(fitter.untraced_argv(k, out), self.work / "prepare.log")
            problems = fitter.check(k, out, proc) if proc.ok else ["fit exited non-zero"]
            if problems:
                raise RuntimeError(f"preparing chain {k}: {problems}")
            chains.append(out / "chain_gbm_jump.csv")
        return chains

    def args(self, index: int, out: Path) -> list[str]:
        """Arguments of operation `index`, which writes under `out`; writes
        the operation's own inputs there first if it has any."""
        raise NotImplementedError

    def untraced_argv(self, index: int, out: Path) -> list[str]:
        return cli_argv(self.args(index, out))

    def check(self, index: int, out: Path, proc: Proc) -> list[str]:
        """Problems with what operation `index` wrote to `out`; [] if none."""
        raise NotImplementedError

    def path_bytes(self) -> int:
        return 0


class JumpFit(Workload):
    name = "jump-fit"
    n = BUNDLED_N
    sweeps = FIT_ITERS + FIT_BURNIN
    fits_per_op = 1

    def args(self, index, out):
        return [
            "fit", "--model", "gbm-jump", "--input", str(DATA),
            "--iters", str(FIT_ITERS), "--burnin", str(FIT_BURNIN),
            "--seed", str(derive_seed(self.seed, 0, index)), "--out", str(out),
        ]

    def check(self, index, out, proc):
        chain = read_table(out / "chain_gbm_jump.csv")
        rows = len(chain["lambda_star"])
        if rows != FIT_ITERS:
            return [f"chain has {rows} rows, expected {FIT_ITERS}"]
        problems = [
            f"posterior mean of {p} {chain[p].mean():.5f} outside {c} +- {w}"
            for p, (c, w) in CRITERION_2.items()
            if abs(chain[p].mean() - c) > w
        ]
        self.fits.add(chain, proc.seconds, chain["n_jumps"].mean() / self.n)
        self.chain_bytes = (out / "chain_gbm_jump.csv").stat().st_size
        return problems


class JumpBands(Workload):
    name = "jump-bands"
    n = BUNDLED_N

    def prepare(self):
        """Fit the chains to forecast from, as jump-fit does. The operations
        draw nothing, so the ESS figures of this workload are these fits'."""
        self.chains = self.fit_bundled()
        with open(DATA) as fh:
            self.first_close = float(next(csv.DictReader(fh))["close"])

    def args(self, index, out):
        return [
            "forecast", "--model", "gbm-jump", "--input", str(DATA),
            "--chain", str(self.chains[index % PREPARED_FITS]), "--fitted-band",
            "--horizon", str(HORIZON), "--seed", str(derive_seed(self.seed, 2, index)),
            "--out", str(out),
        ]

    def check(self, index, out, proc):
        problems = []
        bands = {}
        for file, rows in (("forecast_band_gbm_jump.csv", HORIZON),
                           ("fitted_band_gbm_jump.csv", self.n + 1)):
            band = read_table(out / file)
            lower, mean, upper = bands[file] = band["lower"], band["mean"], band["upper"]
            if len(mean) != rows:
                problems.append(f"{file}: {len(mean)} rows, expected {rows}")
            # The mean of a row of equal prices (the fitted band's first row)
            # may differ from that price in the last digits of a float sum.
            slack = FLOAT_RTOL * np.abs(mean)
            if not np.all((lower <= mean + slack) & (mean <= upper + slack)):
                problems.append(f"{file}: mean outside [lower, upper]")
            if not np.all((lower > 0.0) & np.isfinite(upper)):
                problems.append(f"{file}: non-positive or non-finite value")
        first = [column[0] for column in bands["fitted_band_gbm_jump.csv"]]
        if not np.allclose(first, self.first_close, rtol=FLOAT_RTOL, atol=0.0):
            problems.append(f"first fitted row {first} != first close {self.first_close}")
        return problems

    def path_bytes(self):
        return BAND_DRAWS * (HORIZON + self.n + 1) * 8


class ShortSeries(Workload):
    name = "short-series"
    target = "short_series"
    n = SHORT_N
    sweeps = SHORT_ITERS + SHORT_BURNIN
    fits_per_op = SHORT_BATCH

    def prepare(self):
        """Fit the bundled data as jump-fit does, for the ESS figures. The
        ESS of one 50-increment fit ranges from 3 to 600 between series (a
        coefficient of variation near 2 for lambda_star), so a run's worth of
        short fits pools too few of them for a steady figure."""
        self.fit_bundled()

    def write_batch(self, index: int, batch: Path) -> None:
        """SHORT_BATCH jump-diffusion price series of SHORT_N steps. Every
        operation gets its own batch: how well the jump sampler mixes on 50
        increments depends on the draw, so ESS pools over many series."""
        rng = np.random.default_rng([self.seed, 3, index])
        t, dt = SHORT_TRUTH, 1.0 / 252.0
        dates = np.datetime64("2020-01-01") + np.arange(SHORT_N + 1)
        batch.mkdir(parents=True)
        for b in range(SHORT_BATCH):
            d = t["theta"] * dt + np.sqrt(t["sigma2"] * dt) * rng.standard_normal(SHORT_N)
            hit = rng.random(SHORT_N) < t["lam"]
            d += np.where(hit, t["mu_z"] + t["sigma_z"] * rng.standard_normal(SHORT_N), 0.0)
            closes = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(d))))
            with open(batch / f"series{b:02d}.csv", "w") as fh:
                fh.write("date,close\n")
                fh.writelines(f"{day},{float(close)!r}\n" for day, close in zip(dates, closes))

    def args(self, index, out):
        self.write_batch(index, out / "batch")
        return [
            "--batch", str(out / "batch"), "--iters", str(SHORT_ITERS),
            "--burnin", str(SHORT_BURNIN), "--seed", str(derive_seed(self.seed, 4, index)),
            "--out", str(out / "draws.npz"),
        ]

    def untraced_argv(self, index, out):
        return [sys.executable, str(HERE / "short_series.py"), *self.args(index, out)]

    def check(self, index, out, proc):
        with np.load(out / "draws.npz") as data:
            jump, gbm, sizes = data["jump"], data["gbm"], data["n"]
        expected = (SHORT_BATCH, SHORT_ITERS)
        if jump.shape[:2] != expected or gbm.shape[:2] != expected:
            return [f"draws shaped {jump.shape} and {gbm.shape}, expected {expected}"]
        problems = []
        if not (np.all(np.isfinite(jump)) and np.all(np.isfinite(gbm))):
            problems.append("non-finite draw")
        if not (np.all(jump[..., 1] > 0.0) and np.all(gbm[..., 1] > 0.0)):
            problems.append("sigma2 draw <= 0")
        if not np.all((jump[..., 4] >= 0.0) & (jump[..., 4] <= 1.0)):
            problems.append("lambda_star draw outside [0, 1]")
        if not np.all(jump[..., 5] <= sizes[:, None]):
            problems.append("n_jumps above n")
        return problems


WORKLOADS = {w.name: w for w in (JumpFit, JumpBands, ShortSeries)}


def run_import(launcher: Launcher, work: Path) -> Proc:
    """A fresh interpreter running `import gbmjump`."""
    proc = launcher.run([sys.executable, "-c", "import gbmjump"], work / "import.log")
    if not proc.ok:
        raise RuntimeError("`import gbmjump` failed")
    return proc


def layer_metrics(spans_file: Path, workload: Workload) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers of one traced operation, and problems with its spans."""
    with np.load(spans_file) as data:
        names = [str(n) for n in data["names"]]
        spans = data["spans"]
    name = [names[i] for i in spans[:, 0]]
    parent = spans[:, 3]
    dur = (spans[:, 2] - spans[:, 1]) / 1e9
    self_time = dur.copy()
    nested = parent >= 0
    np.subtract.at(self_time, parent[nested], dur[nested])

    totals, calls, starts = {}, {}, {}
    for n, p, d in zip(name, parent, dur):
        totals[n] = totals.get(n, 0.0) + d
        calls[n] = calls.get(n, 0) + 1
        if n == "gbm.mle_fit" and p >= 0:
            starts[name[p]] = starts.get(name[p], 0.0) + d

    def total(label):
        return float(totals.get(label, 0.0))

    def sweeps(runner):
        return calls.get(runner, 0) * workload.sweeps

    def sweep_us(runner):
        """Time inside `runner` spans, less their mle_fit start, per sweep."""
        if not sweeps(runner):
            return 0.0
        return (total(runner) - starts.get(runner, 0.0)) / sweeps(runner) * 1e6

    block = [None] * len(name)
    for i, n in enumerate(name):
        block[i] = JUMP_BLOCKS.get(n, block[parent[i]] if parent[i] >= 0 else None)
    blocks = dict.fromkeys(("latent", "indicator_prob", "lambda", "moments",
                            "diffusion", "loop_self"), 0.0)
    for b, s in zip(block, self_time):
        if b in blocks:
            blocks[b] += s
    jump_us = sweep_us("jumps.run_jump_gibbs")
    jump_sweeps = sweeps("jumps.run_jump_gibbs")
    metrics = {
        "cli.import_s": total("cli.import"),
        "cli.self_s": float(sum(s for n, s in zip(name, self_time) if n.startswith("cli.cmd_"))),
        "series.load_s": total("series.load_price_series"),
        "series.increments_s": total("series.to_increments"),
        "gbm.mle_s": total("gbm.mle_fit"),
        "gibbs.sweep_us": sweep_us("gibbs.run_gibbs"),
        "gibbs.chain_write_s": total("gibbs.write_chain_csv"),
        "gibbs.chain_read_s": total("gibbs.read_chain_csv"),
        "jumps.sweep_us": jump_us,
        **{f"jumps.{b}_us": s / jump_sweeps * 1e6 if jump_sweeps else 0.0
           for b, s in blocks.items()},
        "predict.fitted_s": total("predict.fitted_realizations"),
        "predict.forecast_s": total("predict.forecast"),
        "predict.band_s": total("predict.credible_band"),
        "predict.band_write_s": total("predict.write_band_csv"),
        "diagnostics.summarize_s": total("diagnostics.summarize"),
        "diagnostics.pacf_s": total("diagnostics.pacf"),
    }
    problems = []
    if np.any(self_time < 0.0):
        problems.append("a span outlasts its parent")
    block_sum = sum(metrics[f"jumps.{b}_us"] for b in blocks)
    if abs(block_sum - jump_us) > 0.01 * jump_us:
        problems.append(f"jump block self times sum to {block_sum:.2f} us, "
                        f"sweep takes {jump_us:.2f} us")
    return metrics, problems


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(workload: Workload, args, ops: int) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "input_sha256": hashlib.sha256(DATA.read_bytes()).hexdigest(),
        "n": workload.n,
        "sweeps": workload.sweeps,
        "fits_per_op": workload.fits_per_op,
        "path_bytes": workload.path_bytes(),
        "ops": ops,
    }


def run_workload(args) -> tuple[dict, dict]:
    """Prepare, run operations for args.seconds, check each; return the
    environment record and the result object."""
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        return _run_workload(args, work, launcher)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(args, work: Path, launcher: Launcher) -> tuple[dict, dict]:
    # setup_s is the median of imports timed before the first operation and
    # between operations, so that it samples the same stretch of time as
    # wall_s: a shared host's CPU speed can drift over tens of seconds.
    imports = [run_import(launcher, work) for _ in range(IMPORT_WARMUP)]
    last_import = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, work, launcher)
    workload.prepare()
    untraced, traced, layers = [], [], []
    failed = 0
    problems_seen = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        out = work / f"op{index}"
        trace = args.trace == 1 and index % 2 == 1
        if trace:
            spans = work / f"spans{index}.npz"
            argv = [sys.executable, str(HERE / "traced.py"), "--spans", str(spans),
                    "--trace-id", str(index), "--main", workload.target, "--",
                    *workload.args(index, out)]
        else:
            argv = workload.untraced_argv(index, out)
        proc = launcher.run(argv, work / "op.log")
        problems = [] if proc.ok else ["operation exited non-zero"]
        if proc.ok:
            try:
                problems = workload.check(index, out, proc)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"output unreadable: {exc!r}"]
        if proc.ok and trace:
            dump_s = json.loads(Path(f"{spans}.json").read_text())["dump_s"]
            proc.wall_s -= dump_s
            metrics, span_problems = layer_metrics(spans, workload)
            metrics["gibbs.chain_write_bytes"] = float(workload.chain_bytes)
            layers.append(metrics)
            spans.unlink()
            problems += span_problems
        (traced if trace else untraced).append(proc)
        if problems:
            failed += 1
            problems_seen.append(f"op {index}: {'; '.join(problems)}")
        shutil.rmtree(out, ignore_errors=True)
        if time.perf_counter() - last_import >= IMPORT_EVERY_S:
            imports.append(run_import(launcher, work))
            last_import = time.perf_counter()
        index += 1
    for line in problems_seen:
        print(line, file=sys.stderr)

    fits = workload.fits
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(p.seconds for p in imports),
            "wall_s": statistics.median(p.seconds for p in untraced),
            "peak_rss_mb": statistics.median(p.rss_mb for p in untraced),
            **{f"ess_per_s.{p}": fits.ess_per_s(p) for p in JUMP_PARAMS},
        }
        units = END_TO_END
    else:
        values = {
            name: statistics.median(m.get(name, 0.0) for m in layers) if layers else 0.0
            for name in PER_LAYER
        }
        values.update({
            **{f"jumps.ess_per_sweep.{p}": fits.ess[p] / fits.kept if fits.kept else 0.0
               for p in JUMP_PARAMS},
            "jumps.active_ratio": statistics.mean(fits.active) if fits.active else 0.0,
            "predict.path_bytes": float(workload.path_bytes()),
            # Operations alternate untraced, traced: pair each traced one with
            # the untraced one just before it, which ran on the same machine
            # state.
            "trace.overhead_s": statistics.median(
                t.wall_s - u.wall_s for u, t in zip(untraced, traced)
            ) if traced else 0.0,
        })
        units = PER_LAYER
    result = {
        "correct": failed == 0,
        "attempted": index,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(workload, args, index)
    env["unscaled"] = {
        "setup_s": statistics.median(p.wall_s for p in imports),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "reference_s": statistics.median(launcher.references),
    }
    return env, result


def print_table(rows: dict[str, dict]) -> None:
    """One row per workload: every end-to-end metric plus failed_frac."""
    columns = [*END_TO_END, "failed_frac"]
    units = {**END_TO_END, "failed_frac": "ratio"}
    width = max(len(c) + len(units[c]) + 5 for c in columns)
    print(f"{'workload':<14}" + "".join(f"{f'{c} [{units[c]}]':>{width}}" for c in columns))
    for name, result in rows.items():
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values["failed_frac"] = result["failed"] / result["attempted"]
        print(f"{name:<14}" + "".join(f"{values[c]:>{width}.4g}" for c in columns))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [str(p) for p in (SRC / "gbmjump" / "__init__.py", DATA) if not p.is_file()]
    if missing:
        print(f"run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = {}
    for name in names:
        env, result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        print(json.dumps({"env": env}))
        print(json.dumps(result))
        rows[name] = result
    if args.workload == "all":
        print_table(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
