"""Simulation-based calibration (Talts et al. 2018, arXiv:1804.06788) of the
public samplers.

Each replicate draws parameters from a proper prior, simulates a series from
them, fits it with run_jump_gibbs or run_gibbs and ranks each prior draw
among thinned posterior draws. If the sampler targets the posterior, each
rank is uniform on 0..L for L thinned draws, whatever the prior, the data
size or the start; a chi-square on binned ranks tests that per parameter.
The jump sampler is checked on both sides of its move's threshold: at
n = _MOVE_MIN_N, where each sweep starts with the independence step, and at
n = 40, where the conjugate blocks run alone.
"""

import numpy as np
import pytest
from scipy import stats

from gbmjump import GbmPrior, IncrementSeries, run_gibbs, run_jump_gibbs
from gbmjump.jumps import _MOVE_MIN_N

from test_jumps import DT, GEWEKE_PRIOR, geweke_data, geweke_start

BINS = 5
P_MIN = 1e-3  # per parameter; the fits are seeded, so the verdict is fixed


def rank_p_values(ranks, draws):
    """Chi-square p-value of each column of ranks (one row per replicate,
    each in 0..draws) against the uniform law, in BINS equal bins."""
    assert (draws + 1) % BINS == 0
    counts = [np.bincount(col * BINS // (draws + 1), minlength=BINS) for col in ranks.T]
    return [float(stats.chisquare(c).pvalue) for c in counts]


def jump_ranks(n, reps, burn_in, thin, draws, seed):
    """Ranks of (theta, sigma2, mu_z, sigma2_z, lambda_star) drawn from
    GEWEKE_PRIOR among every thin-th of draws*thin kept sweeps of
    run_jump_gibbs on n simulated increments, one row per replicate; and
    how many fits ran the move."""
    ranks, moved = np.empty((reps, 5), dtype=int), 0
    dt = np.full(n, DT)
    for rep in range(reps):
        gen = np.random.default_rng([seed, rep])
        truth = geweke_start(gen)
        inc = IncrementSeries(d=geweke_data(truth, dt, gen), dt=dt)
        chain = run_jump_gibbs(inc, GEWEKE_PRIOR, draws * thin, burn_in, seed=rep)
        kept = chain.draws[thin - 1::thin, :5]
        ranks[rep] = np.sum(kept < (truth.theta, truth.sigma2, truth.mu_z, truth.sigma2_z,
                                    truth.lambda_star), axis=0)
        moved += chain.meta.accept_rate is not None
    return ranks, moved


# Thinning keeps the lag-1 autocorrelation of the kept draws below about 0.2
# (the move mixes lambda_star and sigma in a few sweeps; the blocks alone need
# tens), since correlated draws bend the rank histogram as a wrong sampler
# would. 250 replicates on the move's side are what it takes for dropped
# proposal-density terms in the acceptance ratio to fail.
@pytest.mark.parametrize(
    "n, reps, burn_in, thin, draws, moves",
    [(_MOVE_MIN_N, 250, 10, 3, 19, True), (40, 100, 50, 10, 9, False)],
    ids=["move-on", "move-off"],
)
def test_jump_sampler_ranks_are_uniform(n, reps, burn_in, thin, draws, moves):
    ranks, moved = jump_ranks(n, reps, burn_in, thin, draws, seed=11)
    p = dict(zip(("theta", "sigma2", "mu_z", "sigma2_z", "lambda_star"),
                 rank_p_values(ranks, draws)))
    assert min(p.values()) > P_MIN, p
    assert moved == (reps if moves else 0)


def test_gbm_sampler_ranks_are_uniform():
    prior = GbmPrior(0.0, 1.0, 5.0, 0.16)
    reps, n, thin, draws = 100, 40, 5, 19
    ranks = np.empty((reps, 2), dtype=int)
    for rep in range(reps):
        gen = np.random.default_rng([12, rep])
        theta = gen.normal(prior.theta_mean, np.sqrt(prior.theta_var))
        sigma2 = prior.ig_scale / gen.gamma(prior.ig_shape)
        d = theta * DT + np.sqrt(sigma2 * DT) * gen.standard_normal(n)
        chain = run_gibbs(IncrementSeries(d=d, dt=np.full(n, DT)), prior, draws * thin, 20, rep)
        ranks[rep] = np.sum(chain.draws[thin - 1::thin] < (theta, sigma2), axis=0)
    p = dict(zip(("theta", "sigma2"), rank_p_values(ranks, draws)))
    assert min(p.values()) > P_MIN, p
