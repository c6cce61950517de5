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


def _sigma2_conditional(stats, theta: float, prior: GbmPrior):
    """(shape, scale) of sigma2 | theta from stats, a _SuffStats or a plain
    tuple in its field order."""
    n, sd, st, sdd = stats
    rss = sdd - 2.0 * theta * sd + theta * theta * st
    return prior.ig_shape + 0.5 * n, prior.ig_scale + 0.5 * rss


def _normal_ig_log_kernel(stats: _SuffStats, theta: float, sigma2: float, prior: GbmPrior):
    """log of prior(theta, sigma2) * prod_i N(d_i; theta*dt_i, sigma2*dt_i) up to
    a constant free of (theta, sigma2): -(shape + 1)*log(sigma2) - scale/sigma2
    - (theta - theta_mean)^2/(2*theta_var), with (shape, scale) of sigma2 | theta.
    At one point as floats, or at several as arrays (then an array)."""
    shape, scale = _sigma2_conditional(stats, theta, prior)
    dev = theta - prior.theta_mean
    log_sigma2 = math.log(sigma2) if isinstance(sigma2, float) else np.log(sigma2)
    return -(shape + 1.0) * log_sigma2 - scale / sigma2 - 0.5 * dev * dev / prior.theta_var


def _draw_theta_sigma2(stats, sigma2: float, prior: GbmPrior, gen):
    """One sweep of the diffusion block from stats, a _SuffStats or a plain
    tuple in its field order: theta | sigma2 ~ Normal(m, v) of the module
    docstring, written out here alone, then sigma2 | theta."""
    _, sd, st, _ = stats
    prec = 1.0 / prior.theta_var + st / sigma2
    mean = (prior.theta_mean / prior.theta_var + sd / sigma2) / prec
    theta = mean + math.sqrt(1.0 / prec) * gen.standard_normal()
    shape, scale = _sigma2_conditional(stats, theta, prior)
    return float(theta), float(scale / gen.gamma(shape))


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
    """What produced a chain. data is the digest of the increments it was
    fitted to (IncrementSeries.digest); accept_rate is the share of the jump
    sampler's Metropolis proposals taken, None when that move did not run.

    A model without CHAIN_COLUMNS, a burn_in or seed that is not an int >= 0
    (seed may be None), a data that is not 8 lowercase hex digits or an
    accept_rate that is neither None nor a number in [0, 1] is a ValueError
    naming the field and its value, so every ChainMeta that exists can be
    written to a chain file and read back.
    """

    model: str
    burn_in: int
    seed: int | None
    data: str
    accept_rate: float | None = None

    def __post_init__(self) -> None:
        if self.model not in CHAIN_COLUMNS:
            raise ValueError(f"model must be one of {', '.join(CHAIN_COLUMNS)}, got {self.model!r}")
        for key, value in (("burn_in", self.burn_in), ("seed", 0 if self.seed is None else self.seed)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{key} must be an integer >= 0, got {value!r}")
        data = self.data
        if not isinstance(data, str) or len(data) != 8 or data.strip("0123456789abcdef"):
            raise ValueError(f"data must be 8 lowercase hex digits, got {data!r}")
        rate = 0.0 if self.accept_rate is None else self.accept_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
            raise ValueError(f"accept_rate must be a number in [0, 1], got {rate!r}")


@dataclass(frozen=True)
class PosteriorChain:
    """Retained Gibbs draws, one row per sweep after burn-in, in the stored
    columns of meta.model.

    column() also serves the derived names mu = theta + sigma2/2,
    sigma = sqrt(sigma2) and sigma_z = sqrt(sigma2_z). A draw that is not
    finite, a sigma2 or sigma2_z draw that is not positive, a lambda_star
    draw outside [0, 1] or an n_jumps draw that is not a whole number >= 0 is
    an error naming the column. jump_probs, each increment's posterior jump
    probability, is for a gbm-jump chain only, and must be 1-D with every
    value in [0, 1]. The chain is frozen: dataclasses.replace makes a changed
    one and runs these checks again.
    """

    draws: np.ndarray
    meta: ChainMeta
    jump_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        model = self.meta.model
        object.__setattr__(self, "draws", np.asarray(self.draws, dtype=float))
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
        if self.jump_probs is not None:
            if model != "gbm-jump":
                raise ValueError(f"a {model} chain has no jump_probs")
            probs = np.asarray(self.jump_probs, dtype=float)
            object.__setattr__(self, "jump_probs", probs)
            if probs.ndim != 1 or not np.all((probs >= 0.0) & (probs <= 1.0)):
                raise ValueError("jump_probs must be 1-D with every value in [0, 1]")

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
    The chain's ChainMeta is built, and so burn_in and seed checked, before
    the first sweep.
    """
    if n_keep < 1:
        raise ValueError("need n_keep >= 1")
    meta = ChainMeta("gbm", burn_in, seed, inc.digest())
    theta, sigma2 = _start(inc, prior)
    stats = _SuffStats.of(inc.d, inc.dt)
    gen = np.random.default_rng(seed)
    draws = np.empty((n_keep, 2))
    for sweep in range(burn_in + n_keep):
        theta, sigma2 = _draw_theta_sigma2(stats, sigma2, prior, gen)
        if sweep >= burn_in:
            draws[sweep - burn_in] = (theta, sigma2)
    return PosteriorChain(draws=draws, meta=meta)


# a chain file's '# key: value' lines, in this order; accept_rate only when set
_CHAIN_HEADER = ("model", "n_keep", "burn_in", "seed", "data", "accept_rate")


def write_chain_csv(chain: PosteriorChain, path) -> None:
    """One row per draw of the model's exported columns, under a header line
    for each key of _CHAIN_HEADER: n_keep is the number of draws, the rest
    come from meta, accept_rate as a float (1.0 for an int 1, as the reader
    parses it)."""
    columns = {c: chain.column(c) for c in CHAIN_COLUMNS[chain.meta.model].exported}
    values = {"n_keep": len(chain), **asdict(chain.meta)}
    if chain.meta.accept_rate is not None:
        values["accept_rate"] = float(chain.meta.accept_rate)
    keys = _CHAIN_HEADER if chain.meta.accept_rate is not None else _CHAIN_HEADER[:-1]
    write_csv(path, columns, meta={key: values[key] for key in keys})


def _expect_layout(what: str, found: tuple, written: tuple) -> None:
    if found != written:
        raise ValueError(f"{what} are {', '.join(found) or 'none'}; "
                         f"write_chain_csv writes {', '.join(written)}")


def read_chain_csv(path) -> PosteriorChain:
    """Inverse of write_chain_csv; reconstructs sigma2_z from sigma_z.

    The file must have the layout write_chain_csv gives it: the header keys
    of _CHAIN_HEADER in that order, and the exported columns of its model in
    the order of CHAIN_COLUMNS. Every refusal is a DataError naming the
    file: a header key or column row that differs from that layout (naming
    what the file holds and what write_chain_csv writes), text that is not
    UTF-8, an n_keep, burn_in or seed that is not an integer or an
    accept_rate that is not a number (naming the key), header values that
    ChainMeta rejects, a cell that is not a number, rows that are none,
    differ in length or differ in number from n_keep, a draw that
    PosteriorChain rejects, or an exported column that differs from what the
    rebuilt chain derives for it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = []
            while (line := fh.readline()).startswith("#"):
                key, _, value = line[1:].partition(":")
                header.append((key.strip(), value.strip()))
            cols = tuple(line.strip().split(","))
            start = fh.tell()
            if not fh.readline().strip():
                raise ValueError("chain file holds no draws")
            fh.seek(start)
            # write_chain_csv writes no comment row, so a "#" in the body is a
            # bad cell, not a comment that would leave the body empty
            body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        raw = dict(header)
        keys = _CHAIN_HEADER if "accept_rate" in raw else _CHAIN_HEADER[:-1]
        _expect_layout("header keys", tuple(key for key, _ in header), keys)

        def parse(key: str, to=int, kind: str = "an integer"):
            """The typed value of raw[key], None when the key is absent. Only
            text that str() gives back for its value parses, as
            write_chain_csv writes it: no sign, underscore or padding."""
            if key not in raw:
                return None
            try:
                if str(value := to(raw[key])) == raw[key]:
                    return value
            except ValueError:
                pass
            raise ValueError(f"{key} must be {kind}, got {raw[key]!r}")

        try:
            n_keep = parse("n_keep")
            meta = ChainMeta(
                model=raw["model"],
                burn_in=parse("burn_in"),
                seed=parse("seed", lambda s: None if s == "None" else int(s)),
                data=raw["data"],
                accept_rate=parse("accept_rate", float, "a number in [0, 1]"),
            )
        except ValueError as exc:
            raise ValueError(f"header {exc}") from None
        stored, exported, _ = CHAIN_COLUMNS[meta.model]
        _expect_layout(f"{meta.model} chain columns", cols, exported)
        if body.shape[1] != len(cols):
            raise ValueError(f"{body.shape[1]} values per row, {len(cols)} column names")
        if body.shape[0] != n_keep:
            raise ValueError(f"{body.shape[0]} draws, header says n_keep {n_keep}")
        take = dict(zip(cols, body.T))
        # an extreme finite value can overflow below: the checks then fail on it
        with np.errstate(over="ignore", invalid="ignore"):
            if "sigma_z" in take:  # the file holds sigma_z, the draws its square
                take["sigma2_z"] = take["sigma_z"] ** 2
            draws = np.column_stack([take[c] for c in stored])
            chain = PosteriorChain(draws=draws, meta=meta)
            # rounding slack: relative, plus absolute at theta's and sigma2's
            # scale for mu = theta + sigma2/2, which can cancel to near zero
            atol = 1e-12 * np.abs(draws[:, :2]).max()
            for name in exported:
                if not np.allclose(take[name], chain.column(name), rtol=1e-12, atol=atol):
                    raise ValueError(f"column {name} disagrees with the draws it derives from")
    except ValueError as exc:  # UnicodeDecodeError, for a byte that is not UTF-8, too
        raise DataError(f"{path}: {exc}") from None
    return chain
