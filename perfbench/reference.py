"""Reference kernels that measure how fast the machine runs right now.

    from reference import reference_seconds
    seconds = reference_seconds()

A shared host's CPU speed drifts by 20-60% over seconds to minutes, and the
operations of a run slow down and speed up with it. run.py times these
kernels between operations and scales each operation's time by
REFERENCE_S / (the kernels' time around it), so that a metric reads what it
would on a machine where the kernels take REFERENCE_S. This removes the drift
that is slower than one operation; an operation of a few seconds still sees
the speed change while it runs. The kernels belong to the benchmark and never
change with the package, so a change to the package moves the scaled times
as much as it moves the raw ones.

The kernels do what the package does: a Python loop of numpy calls on arrays
of one series' length (the samplers' sweeps), and simulation of a block of
paths with cumulative sums, exponentials and a sort across paths (predict's
bands).
"""

from __future__ import annotations

import time

import numpy as np

SWEEPS = 500
SERIES_N = 1510
PATHS, STEPS = 700, 1550
# About the median reference_seconds() between commands on a 2-vCPU Intel Xeon
# VM (Python 3.11, numpy 2.4), so that scaled times read close to seconds there.
REFERENCE_S = 0.11


def sweep_kernel(seed: int = 0) -> float:
    """A mixture sampler's sweep shape: per-element probabilities, draws and
    masked sums on SERIES_N elements, then a few scalar draws."""
    rng = np.random.default_rng(seed)
    d = 0.01 * rng.standard_normal(SERIES_N)
    mu, var, lam, mu_z, var_z = 0.0, 1e-4, 0.3, 0.0, 3e-4
    for _ in range(SWEEPS):
        with_jump = np.log(lam) - 0.5 * (np.log(var + var_z) + (d - mu - mu_z) ** 2 / (var + var_z))
        without = np.log1p(-lam) - 0.5 * (np.log(var) + (d - mu) ** 2 / var)
        prob = np.exp(with_jump - np.logaddexp(with_jump, without))
        hit = rng.random(SERIES_N) < prob
        k = int(np.count_nonzero(hit))
        sizes = np.where(hit, d - mu, mu_z) + np.sqrt(var_z) * rng.standard_normal(SERIES_N)
        lam = float(rng.beta(1.0 + k, 1.0 + SERIES_N - k))
        active = sizes[hit]
        mu_z = float(active.mean()) if k else 0.0
        resid = d - np.where(hit, sizes, 0.0)
        mu = float(resid.mean())
        var = float(np.sum((resid - mu) ** 2)) / SERIES_N + 1e-8
    return mu + var + lam


# The path kernel works in place in these buffers, so that the kernels
# allocate no large arrays and their time does not depend on how much memory
# the operation before them left to the kernel to reclaim.
_STEPS = np.empty((PATHS, STEPS))
_DRAWS = np.empty((PATHS, STEPS))
_HIT = np.empty((PATHS, STEPS), dtype=bool)
_BAND_ROWS = [round(q * (PATHS - 1)) for q in (0.025, 0.5, 0.975)]


def paths_kernel(seed: int = 0) -> float:
    """A credible band's shape: PATHS log-price paths of STEPS steps, their
    prices and the 2.5/50/97.5% points across paths at every step."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=_STEPS)
    np.multiply(_STEPS, 0.01, out=_STEPS)
    rng.random(out=_DRAWS)
    np.less(_DRAWS, 0.01, out=_HIT)
    np.add(_STEPS, 0.02, out=_STEPS, where=_HIT)
    np.cumsum(_STEPS, axis=1, out=_STEPS)
    np.exp(_STEPS, out=_STEPS)
    _STEPS.sort(axis=0)
    return float(_STEPS[_BAND_ROWS].sum())


def reference_seconds() -> float:
    """Wall time of one pass of both kernels."""
    start = time.perf_counter()
    sweep_kernel()
    paths_kernel()
    return time.perf_counter() - start
