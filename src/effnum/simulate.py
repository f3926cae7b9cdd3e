"""Monte Carlo simulation of repeated projective measurements.

Outcomes are drawn i.i.d. from the subspace collapse probabilities of a
state (Born rule); nothing dynamical is simulated.  Sampling is fully
reproducible: a counter-based Philox generator keyed by the seed produces
uniforms that are converted by inverse CDF, run i of one seed's table
reads that stream jumped i times, and the bootstrap replicas of each run
derive their own sub-seeds, so identical inputs give bit-identical results.

The inverse CDF is an indexed search (Chen & Asau 1974; Devroye 1986,
section III.2.4): a guide table over K equal buckets of [0, 1), K the
smallest power of two at least twice the block count, gives each uniform
a starting index that is never past its answer, and a short forward walk
finishes it.  The indices equal ``np.searchsorted(cumulative, u,
side="right")`` exactly; K is a power of two so that the bucket bounds
k/K and the bucket u*K are computed without rounding.  ``sample_outcomes``
draws, searches and bins ``SAMPLE_BLOCK`` (2**13) trials at a time and
keeps only the M outcome counts, so a run holds O(M) plus one block, never
t.

The plug-in estimator evaluates the effective outcome count on empirical
frequencies count / t.  Each is one correctly rounded division, the same
float as ``Fraction(count, t)`` rounds to, so no rational arithmetic is
needed.  It is biased for nonlinear kernels (the population quantity is
defined on exact probabilities); the bootstrap standard error is reported
so the bias/noise tradeoff is visible, and no debiasing is attempted.  The
bootstrap sums its replicas' kernel values at most ``BOOTSTRAP_BATCH`` at a
time.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .counting import (
    BLOCK,
    CountingFunction,
    Frozen,
    ProbabilityVector,
    _fresh,
    as_dim,
    effnum,
    exact_sums,
    _summing,
    weights_from_probs,
)
from .errors import InvalidInput, InvariantViolation

GENERATOR_ID = "philox4x64-10/inverse-cdf"
MIN_TRIALS_FOR_ESTIMATE = 100
# Trials per run, at most: a run's time follows t (2**24 trials draw and bin
# in about 0.2 s on one Xeon core), and its counts and t stay exact doubles.
MAX_TRIALS = 2**24
# Trials drawn, searched and binned at a time: a block's uniforms, indices
# and search temporaries are several arrays of its size, so an eighth of
# BLOCK holds a run of 10^6 trials at M = 4096 to a 0.39 MiB tracemalloc
# peak (0.64 at a quarter of BLOCK), for about 7% more time per trial.
SAMPLE_BLOCK = BLOCK // 8
DEFAULT_BOOTSTRAP = 200
# Kernel values, at most, of the bootstrap replicas summed by one exact_sums
# call, one segment per replica: at small M one call's fixed cost is paid
# once for many replicas, while at M = 4096 a segmented sum of several
# replicas costs more per value than one sum per replica.
BOOTSTRAP_BATCH = 2**12


class OutcomeCounts(Frozen):
    """How often each of M outcomes occurred in t repeated measurements of
    one prepared state.

    ``seed`` and ``run`` name the stream the trials came from (see
    ``_index_chunks``) and key the bootstrap of ``plugin_mu_estimate``.
    """

    def __init__(self, counts, seed: int, run: int = 0):
        seed, run = _as_seed(seed), _as_run(run)
        arr = np.asarray(counts)
        if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
            raise InvalidInput("counts must be a non-empty vector of integers")
        arr = arr.astype(np.int64, copy=False)
        if arr.min() < 0:
            raise InvalidInput("counts must be non-negative")
        # the float sum tells a total that wrapped past 2**63 from one that fits
        t_count = int(arr.sum())
        if not 1 <= t_count <= 2**53 or arr.sum(dtype=float) > 2.0**62:
            raise InvalidInput("counts must record from 1 to 2**53 trials")
        self._store(counts=arr, seed=seed, run=run, t_count=t_count, m_count=int(arr.size))


def _as_seed(seed) -> int:
    """``seed`` as an int if it is an integer in [0, 2**64), else InvalidInput."""
    seed = as_dim(seed, "seed")
    if not 0 <= seed < 2**64:
        raise InvalidInput(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _as_run(run) -> int:
    """``run`` as an int if it is a non-negative integer, else InvalidInput."""
    run = as_dim(run, "run")
    if run < 0:
        raise InvalidInput(f"run must be non-negative, got {run}")
    return run


def sample_outcomes(probs: ProbabilityVector, t: int, seed: int, run: int = 0) -> OutcomeCounts:
    """How often each outcome occurs in t i.i.d. draws from ``probs``, the
    collapse probabilities of a state under a decomposition
    (``subspace_probs``).

    Deterministic for a fixed seed and run: the draws are run ``run`` of
    ``_index_chunks``, binned a block at a time, so the trials themselves
    are never held.  A t beyond ``MAX_TRIALS`` raises InvalidInput before
    any draw.
    """
    counts = np.zeros(probs.n, dtype=np.int64)
    for chunk in _index_chunks(probs, t, seed, run):
        counts += np.bincount(chunk, minlength=probs.n)
    return OutcomeCounts(_fresh(counts), seed, run)


def _index_chunks(probs: ProbabilityVector, t: int, seed: int, run: int) -> Iterator[np.ndarray]:
    """The outcome indices of t trials drawn from the collapse probabilities,
    ``SAMPLE_BLOCK`` (2**13) trials at a time; t, the seed and the run are
    checked before any draw.

    The uniforms come from Philox keyed by ``seed`` and jumped ``run``
    times, as if 2**128 draws were made per jump, so the runs of one seed
    share no draw; run 0 is the unjumped stream.
    Drawing the uniforms a block at a time gives the same doubles as
    drawing all t at once.
    """
    if not 1 <= t <= MAX_TRIALS:
        raise InvalidInput(f"trial count must lie in [1, {MAX_TRIALS}], got {t}")
    t, seed, run = int(t), _as_seed(seed), _as_run(run)
    from numpy.random import Generator, Philox

    rng = Generator(Philox(key=np.uint64(seed)).jumped(run))
    cumulative = np.cumsum(probs.p)
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard the last bin against rounding
    guide = _guide_table(cumulative)
    return (_indexed_search(cumulative, rng.random(min(SAMPLE_BLOCK, t - start)), guide)
            for start in range(0, t, SAMPLE_BLOCK))


def _guide_table(cumulative: np.ndarray) -> np.ndarray:
    """The guide table of :func:`_indexed_search`: over K buckets, K the
    least power of two >= 2M, the count of entries <= b/K for each bucket b."""
    k = 1 << (2 * cumulative.size - 1).bit_length()
    return np.searchsorted(cumulative, np.arange(k) / k, side="right")


def _indexed_search(cumulative: np.ndarray, uniforms: np.ndarray,
                    guide: np.ndarray | None = None) -> np.ndarray:
    """``np.searchsorted(cumulative, uniforms, side="right")``, by indexed search.

    ``cumulative`` is non-decreasing with a last entry of at least 1, and
    the uniforms lie in [0, 1).  Bucket b of K holds [b/K, (b+1)/K); its
    guide entry counts the entries <= b/K, all of which are <= every u in
    the bucket, so it never starts past the answer; that needs b/K and
    u*K exact, hence K a power of two.  Each index then steps forward
    while ``cumulative[index] <= u``; with K >= 2M a bucket holds at most
    half an entry on average, so most uniforms take no step.  ``guide``,
    the :func:`_guide_table` of ``cumulative``, is built here if not given.
    """
    guide = _guide_table(cumulative) if guide is None else guide
    index = guide[(uniforms * guide.size).astype(np.intp)]
    active = np.flatnonzero(cumulative[index] <= uniforms)
    while active.size:
        index[active] += 1
        active = active[cumulative[index[active]] <= uniforms[active]]
    return index


def empirical_probs(counts: OutcomeCounts) -> ProbabilityVector:
    """Outcome frequencies count / t as floats.

    Count and t are exact doubles (t is at most 2**53), so each division
    rounds once and equals ``float(Fraction(count, t))``.
    """
    return ProbabilityVector(_fresh(counts.counts / counts.t_count))


class PluginEstimate(NamedTuple):
    estimate: float
    stderr: float
    n_bootstrap: int


def plugin_mu_estimate(counts: OutcomeCounts, c: CountingFunction | None = None) -> PluginEstimate:
    """Plug-in estimate of the effective outcome count, with bootstrap error.

    The estimate applies the kernel (default: minimal) to the empirical
    counting weights.  The standard error comes from ``DEFAULT_BOOTSTRAP``
    multinomial resamples of the counts, each driven by a sub-seed derived
    from the counts' seed and run, so repeated calls are bit-identical and
    the runs of one seed's table resample from streams of their own.  A
    replica's weights M * (counts / t) are reduced as ``effnum`` reduces
    them; counts that are non-negative and sum to t already make valid
    probabilities and weights, so only those two facts are checked.
    """
    t, seed, run = counts.t_count, counts.seed, counts.run
    if t < MIN_TRIALS_FOR_ESTIMATE:
        raise InvalidInput(f"need at least {MIN_TRIALS_FOR_ESTIMATE} trials, got {t}")
    from numpy.random import Generator, Philox, SeedSequence

    c = CountingFunction.minimal() if c is None else c
    freqs = empirical_probs(counts)
    estimate = effnum(weights_from_probs(freqs), c)

    m = freqs.n
    pvals = freqs.p / float(np.sum(freqs.p))
    replicas = np.empty(DEFAULT_BOOTSTRAP)
    batch = max(1, BOOTSTRAP_BATCH // m)  # replicas summed by one exact_sums call
    for first in range(0, DEFAULT_BOOTSTRAP, batch):
        drawn = np.empty((min(batch, DEFAULT_BOOTSTRAP - first), m), np.int64)
        for r, row in enumerate(drawn, first):
            sub = SeedSequence(seed, spawn_key=(1 + run, r))
            row[:] = Generator(Philox(seed=sub)).multinomial(t, pvals)
            if row.min() < 0 or row.sum() != t:
                raise InvariantViolation(f"bootstrap replica {r} does not hold {t} trials")
        # one segment per replica: each rounds once, as exact_total rounds it
        with _summing:
            values = c((m * (drawn / t)).ravel())
            segments = np.repeat(np.arange(len(drawn)), m)
            replicas[first:first + len(drawn)] = exact_sums(values, segments, len(drawn))
    stderr = float(np.std(replicas, ddof=1))
    return PluginEstimate(estimate=estimate, stderr=stderr, n_bootstrap=DEFAULT_BOOTSTRAP)
