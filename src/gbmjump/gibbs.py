"""Conjugate Gibbs sampling for the no-jump model.

Conditionals under d_i ~ Normal(theta*dt_i, sigma2*dt_i) with a Normal prior on
theta and an inverse-gamma prior on sigma2 (IG(a, b) has density proportional
to x^{-a-1} exp(-b/x), mean b/(a-1) for a > 1):

  theta | sigma2  ~  Normal(m, v),
      1/v = 1/theta_var + sum(dt)/sigma2
      m   = v * (theta_mean/theta_var + sum(d)/sigma2)
  sigma2 | theta  ~  IG(ig_shape + n/2, ig_scale + 0.5 * sum (d - theta*dt)^2 / dt)

With theta_mean = 0, theta_var = 100 the first reduces to the familiar
m = sum(d) / (0.01*sigma2 + sum(dt)), v = sigma2 / (0.01*sigma2 + sum(dt)).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .gbm import _SuffStats, mle_fit
from .series import DataError, IncrementSeries, write_csv


@dataclass(frozen=True)
class GbmPrior:
    theta_mean: float = 0.0
    theta_var: float = 100.0
    ig_shape: float = 2.0
    ig_scale: float = 0.001

    def __post_init__(self) -> None:
        if self.theta_var <= 0.0 or self.ig_shape <= 0.0 or self.ig_scale <= 0.0:
            raise ValueError("prior variance, shape and scale must be positive")

    def sigma2_center(self) -> float:
        """Prior mean of sigma2 when it exists, else the scale."""
        if self.ig_shape > 1.0:
            return self.ig_scale / (self.ig_shape - 1.0)
        return self.ig_scale


def _theta_conditional(stats: _SuffStats, sigma2: float, prior: GbmPrior):
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    prec = 1.0 / prior.theta_var + stats.st / sigma2
    mean = (prior.theta_mean / prior.theta_var + stats.sd / sigma2) / prec
    return mean, 1.0 / prec


def _sigma2_conditional(stats: _SuffStats, theta: float, prior: GbmPrior):
    rss = stats.sdd - 2.0 * theta * stats.sd + theta * theta * stats.st
    return prior.ig_shape + 0.5 * stats.n, prior.ig_scale + 0.5 * rss


def _normal_ig_log_kernel(stats: _SuffStats, theta: float, sigma2: float, prior: GbmPrior):
    """log of prior(theta, sigma2) * prod_i N(d_i; theta*dt_i, sigma2*dt_i) up to
    a constant free of (theta, sigma2): -(shape + 1)*log(sigma2) - scale/sigma2
    - (theta - theta_mean)^2/(2*theta_var), with (shape, scale) of sigma2 | theta."""
    shape, scale = _sigma2_conditional(stats, theta, prior)
    dev = theta - prior.theta_mean
    return -(shape + 1.0) * math.log(sigma2) - scale / sigma2 - 0.5 * dev * dev / prior.theta_var


def _draw_theta_sigma2(stats: _SuffStats, sigma2: float, prior: GbmPrior, gen):
    """One sweep of the diffusion block: theta | sigma2, then sigma2 | theta."""
    mean, var = _theta_conditional(stats, sigma2, prior)
    theta = mean + math.sqrt(var) * gen.standard_normal()
    shape, scale = _sigma2_conditional(stats, theta, prior)
    return float(theta), float(scale / gen.gamma(shape))


def theta_conditional(inc: IncrementSeries, sigma2: float, prior: GbmPrior = GbmPrior()):
    """(mean, variance) of theta | sigma2, data."""
    return _theta_conditional(_SuffStats.of(inc.d, inc.dt), sigma2, prior)


def sigma2_conditional(inc: IncrementSeries, theta: float, prior: GbmPrior = GbmPrior()):
    """(shape, scale) of the inverse-gamma sigma2 | theta, data."""
    return _sigma2_conditional(_SuffStats.of(inc.d, inc.dt), theta, prior)


def sample_theta_given_sigma2(
    inc: IncrementSeries, sigma2: float, prior: GbmPrior = GbmPrior(), rng=None
) -> float:
    mean, var = theta_conditional(inc, sigma2, prior)
    return float(mean + math.sqrt(var) * np.random.default_rng(rng).standard_normal())


def sample_sigma2_given_theta(
    inc: IncrementSeries, theta: float, prior: GbmPrior = GbmPrior(), rng=None
) -> float:
    shape, scale = sigma2_conditional(inc, theta, prior)
    if shape <= 0.0 or scale <= 0.0:
        raise ValueError("shape and scale must be positive")
    return float(scale / np.random.default_rng(rng).gamma(shape))


class ChainColumns(NamedTuple):
    """The columns of a model's chain: those its draws hold, those its CSV
    holds, and the parameters its summary reports."""

    stored: tuple[str, ...]
    exported: tuple[str, ...]
    reported: tuple[str, ...]


CHAIN_COLUMNS = {
    "gbm": ChainColumns(("theta", "sigma2"), ("theta", "sigma2", "mu", "sigma"), ("mu", "sigma")),
    "gbm-jump": ChainColumns(
        ("theta", "sigma2", "mu_z", "sigma2_z", "lambda_star", "n_jumps"),
        ("theta", "sigma2", "mu", "sigma", "mu_z", "sigma_z", "lambda_star", "n_jumps"),
        ("mu", "sigma", "mu_z", "sigma_z", "lambda_star"),
    ),
}


@dataclass(frozen=True)
class ChainMeta:
    """What produced a chain. accept_rate is the share of the jump sampler's
    Metropolis proposals taken, None when that move did not run."""

    model: str
    burn_in: int
    seed: int | None
    accept_rate: float | None = None


@dataclass
class PosteriorChain:
    """Retained Gibbs draws, one row per sweep after burn-in, in the stored
    columns of meta.model.

    column() also serves the derived names mu = theta + sigma2/2,
    sigma = sqrt(sigma2) and sigma_z = sqrt(sigma2_z). A draw that is not
    finite, a sigma2 or sigma2_z draw that is not positive, a lambda_star
    draw outside [0, 1] or an n_jumps draw that is not a whole number >= 0 is
    an error naming the column.
    """

    draws: np.ndarray
    meta: ChainMeta
    jump_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        model = self.meta.model
        if model not in CHAIN_COLUMNS:
            raise ValueError(f"unknown model {model!r}")
        self.draws = np.asarray(self.draws, dtype=float)
        if self.draws.ndim != 2 or self.draws.shape[1] != len(self.columns):
            raise ValueError(f"{model} draws must be rows of ({', '.join(self.columns)})")
        finite = np.isfinite(self.draws).all(axis=0)
        if not finite.all():
            raise ValueError(f"non-finite {self.columns[int(np.argmin(finite))]} draw")
        for name in ("sigma2", "sigma2_z"):
            if name in self.columns and np.any(self.column(name) <= 0.0):
                raise ValueError(f"non-positive {name} draw")
        if "lambda_star" in self.columns:
            lam, n_jumps = self.column("lambda_star"), self.column("n_jumps")
            if np.any((lam < 0.0) | (lam > 1.0)):
                raise ValueError("lambda_star draw outside [0, 1]")
            if np.any((n_jumps < 0.0) | (n_jumps % 1.0 != 0.0)):
                raise ValueError("n_jumps draw not a whole number >= 0")

    @property
    def columns(self) -> tuple[str, ...]:
        return CHAIN_COLUMNS[self.meta.model].stored

    def __len__(self) -> int:
        return self.draws.shape[0]

    def column(self, name: str) -> np.ndarray:
        if name in self.columns:
            return self.draws[:, self.columns.index(name)]
        if name == "mu":
            return self.column("theta") + 0.5 * self.column("sigma2")
        if name == "sigma":
            return np.sqrt(self.column("sigma2"))
        if name == "sigma_z":
            return np.sqrt(self.column("sigma2_z"))
        raise KeyError(name)


def _start(inc: IncrementSeries, prior: GbmPrior):
    """Chain start (theta, sigma2): the MLE, or the prior center below two
    increments. Raises on degenerate data, which the MLE fits with sigma2 = 0."""
    if inc.n < 2:
        return prior.theta_mean, prior.sigma2_center()
    start = mle_fit(inc)
    if start.degenerate:
        raise ValueError("degenerate data: sample volatility is zero")
    return start.theta, start.sigma2


def run_gibbs(
    inc: IncrementSeries,
    prior: GbmPrior = GbmPrior(),
    n_keep: int = 5000,
    burn_in: int = 1000,
    seed: int | None = None,
) -> PosteriorChain:
    """Systematic-scan Gibbs for (theta, sigma2), initialized at the MLE.

    Draws theta | sigma2 then sigma2 | theta each sweep; records n_keep sweeps
    after burn_in. Empty or single-increment data fall back to a prior-centered
    start (the conditionals then reproduce the prior exactly when n == 0).
    """
    if n_keep < 1 or burn_in < 0:
        raise ValueError("need n_keep >= 1 and burn_in >= 0")
    theta, sigma2 = _start(inc, prior)
    stats = _SuffStats.of(inc.d, inc.dt)
    gen = np.random.default_rng(seed)
    draws = np.empty((n_keep, 2))
    for sweep in range(burn_in + n_keep):
        theta, sigma2 = _draw_theta_sigma2(stats, sigma2, prior, gen)
        if sweep >= burn_in:
            draws[sweep - burn_in] = (theta, sigma2)
    return PosteriorChain(draws=draws, meta=ChainMeta(model="gbm", burn_in=burn_in, seed=seed))


def write_chain_csv(chain: PosteriorChain, path) -> None:
    """One row per draw with a '# key: value' metadata header block: the
    model, n_keep (the number of draws), then the rest of meta; the
    accept_rate line only when the chain has one."""
    columns = {c: chain.column(c) for c in CHAIN_COLUMNS[chain.meta.model].exported}
    meta = {"model": chain.meta.model, "n_keep": len(chain), **asdict(chain.meta)}
    if meta["accept_rate"] is None:
        del meta["accept_rate"]
    write_csv(path, columns, meta=meta)


def read_chain_csv(path) -> PosteriorChain:
    """Inverse of write_chain_csv; reconstructs sigma2_z from sigma_z.

    Raises ValueError naming the file when the text is not UTF-8, the header
    repeats a key (naming it) or lacks a key that write_chain_csv always
    writes (model, n_keep, burn_in, seed), its n_keep, burn_in or seed is not
    an integer or is negative or its accept_rate not a number in [0, 1]
    (naming the key), the model is unknown, a column the writer exports for
    the model is missing or repeated or a column it does not export is
    present, a cell is not a number, the rows are none, differ in length or
    differ in number from the header's n_keep, a draw is one PosteriorChain
    rejects, or an exported column differs from what the rebuilt chain
    derives for it.
    """
    meta_raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            line = fh.readline()
            while line.startswith("#"):
                key, _, value = line[1:].partition(":")
                if key.strip() in meta_raw:
                    raise ValueError(f"repeated header key {key.strip()}")
                meta_raw[key.strip()] = value.strip()
                line = fh.readline()
            cols = tuple(line.strip().split(","))
            start = fh.tell()
            if not fh.readline().strip():
                raise ValueError("chain file holds no draws")
            fh.seek(start)
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # UnicodeDecodeError, for a byte that is not UTF-8, too
            raise DataError(f"{path}: {exc}") from None

    def header(key: str) -> str:
        if key not in meta_raw:
            raise ValueError(f"{path}: header has no {key}")
        return meta_raw[key]

    model = header("model")
    if model not in CHAIN_COLUMNS:
        raise ValueError(f"{path}: unknown model {model!r}")
    stored, exported, _ = CHAIN_COLUMNS[model]
    if body.shape[1] != len(cols):
        raise ValueError(f"{path}: {body.shape[1]} values per row, {len(cols)} column names")
    missing = [c for c in exported if c not in cols]
    if missing:
        raise ValueError(f"{path}: missing chain column(s) {', '.join(missing)}")
    extra = [c for c in cols if c not in exported]
    if extra:
        raise ValueError(f"{path}: chain column(s) {', '.join(extra)} not in a {model} chain")
    repeated = [c for c in exported if cols.count(c) > 1]
    if repeated:
        raise ValueError(f"{path}: repeated chain column(s) {', '.join(repeated)}")

    def header_int(key: str) -> int:
        raw = header(key)
        try:
            if int(raw) >= 0:
                return int(raw)
        except ValueError:
            raise ValueError(f"{path}: header {key} must be an integer, got {raw!r}") from None
        raise ValueError(f"{path}: header {key} must be >= 0, got {raw!r}")

    def header_rate(key: str) -> float | None:
        raw = meta_raw.get(key)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{path}: header {key} must be a number in [0, 1], got {raw!r}")
        return value

    n_keep = header_int("n_keep")
    if body.shape[0] != n_keep:
        raise ValueError(f"{path}: {body.shape[0]} draws, header says n_keep {n_keep}")
    meta = ChainMeta(
        model=model,
        burn_in=header_int("burn_in"),
        seed=None if header("seed") == "None" else header_int("seed"),
        accept_rate=header_rate("accept_rate"),
    )
    take = {c: body[:, i] for i, c in enumerate(cols)}
    # an extreme finite value can overflow below: the checks then fail on it
    with np.errstate(over="ignore", invalid="ignore"):
        if "sigma_z" in take:  # the file holds sigma_z, the draws its square
            take["sigma2_z"] = take["sigma_z"] ** 2
        draws = np.column_stack([take[c] for c in stored])
        try:
            chain = PosteriorChain(draws=draws, meta=meta)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        # rounding slack: relative, plus absolute at theta's and sigma2's scale
        # for mu = theta + sigma2/2, which can cancel to near zero
        atol = 1e-12 * np.abs(draws[:, :2]).max()
        for name in exported:
            if not np.allclose(take[name], chain.column(name), rtol=1e-12, atol=atol):
                raise ValueError(f"{path}: column {name} disagrees with the draws it derives from")
    return chain
