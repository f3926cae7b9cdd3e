"""Monte Carlo simulation of repeated projective measurements.

Outcomes are drawn i.i.d. from the subspace collapse probabilities of a
state (Born rule); nothing dynamical is simulated.  Sampling is fully
reproducible: a counter-based Philox generator keyed by the seed produces
uniforms that are converted by inverse CDF, and bootstrap replicas derive
their own sub-seeds, so identical inputs give bit-identical results.

The plug-in estimator evaluates the effective outcome count on empirical
frequencies.  It is biased for nonlinear kernels (the population quantity
is defined on exact probabilities); the bootstrap standard error is
reported so the bias/noise tradeoff is visible, and no debiasing is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .counting import CountingFunction, ProbabilityVector, effnum, weights_from_probs
from .errors import InvalidInput
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
    labels: np.ndarray | None = None
    t_count: int = field(init=False)
    generator: str = GENERATOR_ID

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
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=float)
            if labels.shape[0] != arr.size:
                raise InvalidInput("need one outcome label per trial")
            labels = labels.copy()
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)


def sample_outcomes(
    psi: PureState,
    dec: OrthogonalDecomposition,
    basis: OrthonormalBasis | None,
    t: int,
    seed: int,
    *,
    eigtuples: np.ndarray | None = None,
) -> OutcomeSequence:
    """Draw t i.i.d. subspace outcomes for the state under the decomposition.

    Deterministic for a fixed seed: uniforms come from Philox4x32-10 keyed
    by ``seed`` and are mapped through the cumulative collapse
    probabilities.  Optional ``eigtuples`` attach an outcome label per
    trial.  A t beyond ``MAX_TRIALS`` raises InvalidInput before anything
    is allocated.
    """
    if not 1 <= t <= MAX_TRIALS:
        raise InvalidInput(f"trial count must lie in [1, {MAX_TRIALS}], got {t}")
    if not 0 <= seed < 2**64:
        raise InvalidInput(f"seed must lie in [0, 2**64), got {seed}")
    probs = subspace_probs(psi, dec, basis)
    rng = Generator(Philox(key=np.uint64(seed)))
    uniforms = rng.random(int(t))
    cumulative = np.cumsum(probs.p)
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard the last bin against rounding
    indices = np.searchsorted(cumulative, uniforms, side="right")
    labels = None
    if eigtuples is not None:
        pts = np.atleast_2d(np.asarray(eigtuples, dtype=float))
        if pts.shape[0] != dec.m_count:
            raise InvalidInput("need one eigenvalue tuple per block")
        labels = pts[indices]
    return OutcomeSequence(trials=indices, seed=int(seed), m_count=dec.m_count, labels=labels)


def empirical_fractions(seq: OutcomeSequence, m: int | None = None) -> tuple[Fraction, ...]:
    """Outcome frequencies as exact rationals count / t; they sum to 1 exactly."""
    m = seq.m_count if m is None else int(m)
    if m < seq.m_count:
        raise InvalidInput(f"block count {m} below the sequence's {seq.m_count}")
    counts = np.bincount(seq.trials, minlength=m)
    return tuple(Fraction(int(k), seq.t_count) for k in counts)


def empirical_probs(seq: OutcomeSequence, m: int | None = None) -> ProbabilityVector:
    """Outcome frequencies as floats (from the exact rational counts)."""
    fractions = empirical_fractions(seq, m)
    return ProbabilityVector(np.array([float(f) for f in fractions]))


@dataclass(frozen=True)
class PluginEstimate:
    estimate: float
    stderr: float
    n_bootstrap: int


def plugin_mu_estimate(
    seq: OutcomeSequence,
    m: int | None = None,
    c: CountingFunction | None = None,
    *,
    n_bootstrap: int = DEFAULT_BOOTSTRAP,
) -> PluginEstimate:
    """Plug-in estimate of the effective outcome count, with bootstrap error.

    The estimate applies the kernel to the empirical counting weights.
    The standard error comes from ``n_bootstrap`` multinomial resamples of
    the counts, each driven by a sub-seed derived from the sequence seed,
    so repeated calls are bit-identical.
    """
    if seq.t_count < MIN_TRIALS_FOR_ESTIMATE:
        raise InvalidInput(
            f"need at least {MIN_TRIALS_FOR_ESTIMATE} trials, got {seq.t_count}"
        )
    if n_bootstrap < 2:
        raise InvalidInput("need at least 2 bootstrap replicas")
    c = CountingFunction.minimal() if c is None else c
    m = seq.m_count if m is None else int(m)
    freqs = empirical_probs(seq, m)
    estimate = effnum(weights_from_probs(freqs), c)

    t = seq.t_count
    replicas = np.empty(n_bootstrap)
    for r in range(n_bootstrap):
        sub = SeedSequence(seq.seed, spawn_key=(1, r))
        rng = Generator(Philox(seed=sub))
        counts = rng.multinomial(t, freqs.p / float(np.sum(freqs.p)))
        resampled = ProbabilityVector(counts / t)
        replicas[r] = effnum(weights_from_probs(resampled), c)
    stderr = float(np.std(replicas, ddof=1))
    return PluginEstimate(estimate=estimate, stderr=stderr, n_bootstrap=n_bootstrap)
