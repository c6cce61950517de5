"""Effective sample size by Geyer's initial monotone sequence estimator.

Geyer (1992), "Practical Markov chain Monte Carlo", Statistical Science 7(4).
With autocovariances gamma_k of one chain, the pair sums
Gamma_m = gamma_{2m} + gamma_{2m+1} are summed while they stay positive, each
capped at the previous one so the sequence is non-increasing. The integrated
autocorrelation time is tau = -1 + 2 * sum(Gamma_m) / gamma_0 and ESS = n / tau.

The benchmark keeps its own copy so that its yardstick stays fixed when the
library grows an ESS of its own.
"""

from __future__ import annotations

import numpy as np


def autocovariance(x) -> np.ndarray:
    """Sample autocovariances at lags 0..n-1 (1/n divisor), via FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    return np.fft.irfft(spectrum * np.conjugate(spectrum), size)[:n] / n


def ess(draws) -> float:
    """Effective sample size of a 1-d chain of at least four finite draws.

    A constant chain has no autocorrelation to estimate and raises.
    """
    x = np.asarray(draws, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError("need a 1-d chain of at least four draws")
    if not np.all(np.isfinite(x)):
        raise ValueError("chain holds non-finite draws")
    acov = autocovariance(x)
    if acov[0] <= 0.0:
        raise ValueError("chain has zero variance")
    n_pairs = x.size // 2
    pairs = acov[: 2 * n_pairs].reshape(n_pairs, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0.0)
    kept = pairs[: nonpositive[0]] if nonpositive.size else pairs
    monotone = np.minimum.accumulate(kept)
    tau = -1.0 + 2.0 * monotone.sum() / acov[0]
    return float(x.size / tau)
