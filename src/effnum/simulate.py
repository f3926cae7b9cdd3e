"""Monte Carlo simulation of repeated projective measurements.

Outcomes are drawn i.i.d. from the subspace collapse probabilities of a
state (Born rule); nothing dynamical is simulated.  Sampling is fully
reproducible: a counter-based Philox generator keyed by the seed produces
uniforms that are converted by inverse CDF, run i of one seed's table
reads that stream jumped i times, and bootstrap replicas derive
their own sub-seeds, so identical inputs give bit-identical results.

The inverse CDF is an indexed search (Chen & Asau 1974; Devroye 1986,
section III.2.4): a guide table over K equal buckets of [0, 1), K the
smallest power of two at least twice the block count, gives each uniform
a starting index that is never past its answer, and a short forward walk
finishes it.  The indices equal ``np.searchsorted(cumulative, u,
side="right")`` exactly; K is a power of two so that the bucket bounds
k/K and the bucket u*K are computed without rounding.

The plug-in estimator evaluates the effective outcome count on empirical
frequencies count / t.  Each is one correctly rounded division, the same
float as ``Fraction(count, t)`` rounds to, so no rational arithmetic is
needed; ``empirical_fractions`` still gives the exact rationals.  It is
biased for nonlinear kernels (the population quantity is defined on exact
probabilities); the bootstrap standard error is reported so the
bias/noise tradeoff is visible, and no debiasing is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .counting import CountingFunction, ProbabilityVector, effnum, exact_sums, weights_from_probs
from .errors import InvalidInput, InvariantViolation
from .states import OrthogonalDecomposition, OrthonormalBasis, PureState, subspace_probs

GENERATOR_ID = "philox4x32-10/inverse-cdf"
MIN_TRIALS_FOR_ESTIMATE = 100
MAX_TRIALS = 2**24  # a run's arrays take a few dozen bytes per trial
DEFAULT_BOOTSTRAP = 200


@dataclass(frozen=True)
class OutcomeSequence:
    """Recorded outcomes of repeated measurements of one prepared state."""

    trials: np.ndarray
    seed: int
    m_count: int
    t_count: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.trials, dtype=np.int64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInput("trials must be a non-empty index vector")
        if self.m_count < 1:
            raise InvalidInput("block count must be positive")
        if arr.min() < 0 or arr.max() >= self.m_count:
            raise InvalidInput(f"trial indices must lie in [0, {self.m_count})")
        arr.flags.writeable = False
        object.__setattr__(self, "trials", arr)
        object.__setattr__(self, "t_count", int(arr.size))


def sample_outcomes(
    psi: PureState,
    dec: OrthogonalDecomposition,
    basis: OrthonormalBasis | None,
    t: int,
    seed: int,
) -> OutcomeSequence:
    """Draw t i.i.d. subspace outcomes for the state under the decomposition.

    Deterministic for a fixed seed: uniforms come from Philox4x32-10 keyed
    by ``seed`` and are mapped through the cumulative collapse
    probabilities.  A t beyond ``MAX_TRIALS`` raises InvalidInput before
    anything of size t is allocated.
    """
    return _sample(subspace_probs(psi, dec, basis), t, seed, 0)


def _sample(probs: ProbabilityVector, t: int, seed: int, run: int) -> OutcomeSequence:
    """``sample_outcomes`` from the collapse probabilities themselves.

    The uniforms come from Philox keyed by ``seed`` and jumped ``run``
    times, as if 2**128 draws were made per jump, so the runs of one seed
    share no draw; run 0 is the unjumped stream of ``sample_outcomes``.
    """
    if not 1 <= t <= MAX_TRIALS:
        raise InvalidInput(f"trial count must lie in [1, {MAX_TRIALS}], got {t}")
    if not 0 <= seed < 2**64:
        raise InvalidInput(f"seed must lie in [0, 2**64), got {seed}")
    rng = Generator(Philox(key=np.uint64(seed)).jumped(run))
    uniforms = rng.random(int(t))
    cumulative = np.cumsum(probs.p)
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard the last bin against rounding
    indices = _indexed_search(cumulative, uniforms)
    return OutcomeSequence(trials=indices, seed=int(seed), m_count=probs.n)


def _indexed_search(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cumulative, uniforms, side="right")``, by indexed search.

    ``cumulative`` is non-decreasing with a last entry of at least 1, and
    the uniforms lie in [0, 1).  Bucket b of K holds [b/K, (b+1)/K); its
    guide entry counts the entries <= b/K, all of which are <= every u in
    the bucket, so it never starts past the answer; that needs b/K and
    u*K exact, hence K a power of two.  Each index then steps forward
    while ``cumulative[index] <= u``; with K >= 2M a bucket holds at most
    half an entry on average, so most uniforms take no step.
    """
    k = 1 << (2 * cumulative.size - 1).bit_length()  # the least power of two >= 2M
    guide = np.searchsorted(cumulative, np.arange(k) / k, side="right")
    index = guide[(uniforms * k).astype(np.intp)]
    active = np.flatnonzero(cumulative[index] <= uniforms)
    while active.size:
        index[active] += 1
        active = active[cumulative[index[active]] <= uniforms[active]]
    return index


def empirical_fractions(seq: OutcomeSequence) -> tuple[Fraction, ...]:
    """Outcome frequencies as exact rationals count / t; they sum to 1 exactly."""
    counts = np.bincount(seq.trials, minlength=seq.m_count)
    return tuple(Fraction(int(k), seq.t_count) for k in counts)


def empirical_probs(seq: OutcomeSequence) -> ProbabilityVector:
    """Outcome frequencies count / t as floats.

    Count and t are exact doubles (both below 2**53), so each division
    rounds once and equals ``float(Fraction(count, t))``.
    """
    return ProbabilityVector(np.bincount(seq.trials, minlength=seq.m_count) / seq.t_count)


@dataclass(frozen=True)
class PluginEstimate:
    estimate: float
    stderr: float
    n_bootstrap: int


def plugin_mu_estimate(seq: OutcomeSequence, c: CountingFunction | None = None) -> PluginEstimate:
    """Plug-in estimate of the effective outcome count, with bootstrap error.

    The estimate applies the kernel (default: minimal) to the empirical
    counting weights.  The standard error comes from ``DEFAULT_BOOTSTRAP``
    multinomial resamples of the counts, each driven by a sub-seed derived
    from the sequence seed, so repeated calls are bit-identical.  A
    replica's weights M * (counts / t) are reduced as ``effnum`` reduces
    them; counts that are non-negative and sum to t already make valid
    probabilities and weights, so only those two facts are checked.
    """
    if seq.t_count < MIN_TRIALS_FOR_ESTIMATE:
        raise InvalidInput(
            f"need at least {MIN_TRIALS_FOR_ESTIMATE} trials, got {seq.t_count}"
        )
    c = CountingFunction.minimal() if c is None else c
    freqs = empirical_probs(seq)
    estimate = effnum(weights_from_probs(freqs), c)

    t, m = seq.t_count, freqs.n
    pvals = freqs.p / float(np.sum(freqs.p))
    replicas = np.empty(DEFAULT_BOOTSTRAP)
    for r in range(DEFAULT_BOOTSTRAP):
        sub = SeedSequence(seq.seed, spawn_key=(1, r))
        counts = Generator(Philox(seed=sub)).multinomial(t, pvals)
        if counts.min() < 0 or counts.sum() != t:
            raise InvariantViolation(f"bootstrap replica {r} does not hold {t} trials")
        replicas[r] = exact_sums(c(m * (counts / t))).item()
    stderr = float(np.std(replicas, ddof=1))
    return PluginEstimate(estimate=estimate, stderr=stderr, n_bootstrap=DEFAULT_BOOTSTRAP)
