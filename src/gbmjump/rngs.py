"""Seed handling: every stochastic entry point accepts a Generator, a seed, or None."""

from __future__ import annotations

import numpy as np


def as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Normalize a seed-or-generator argument to a numpy Generator.

    Passing an existing Generator returns it unchanged, so callers can thread
    one stream through several draws; an int gives a fresh deterministic
    stream; None gives OS entropy.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def derived_generator(seed: int | None, stream: int) -> np.random.Generator:
    """Generator on an independent substream keyed by (seed, stream).

    Keeps sampler and predictive noise decoupled while staying fully
    deterministic for a given root seed. seed=None falls back to OS entropy.
    """
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))
