"""The benchmark's ESS against AR(1) chains, whose ESS is n(1-rho)/(1+rho).

Run with: python3 -m pytest perfbench
"""

import numpy as np
import pytest

from ess import ess


def ar1(rho: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for i in range(1, n):
        x[i] = rho * x[i - 1] + noise[i]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, -0.3])
def test_ar1_ess_matches_closed_form(rho):
    n = 200_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    assert ess(ar1(rho, n, seed=11)) == pytest.approx(expected, rel=0.05)


def test_rejects_constant_and_short_chains():
    with pytest.raises(ValueError):
        ess(np.ones(100))
    with pytest.raises(ValueError):
        ess(np.arange(3.0))
