"""Entropies of effective counts and equivalent degrees of freedom.

The entropy of a probability vector here is the natural log of its
effective count, in the spirit of Boltzmann's log of accessible states.
For a system of K degrees of freedom with per-degree dimension kappa,
n = kappa**K, the same quantity converts to an equivalent degree-of-freedom
count K_eq = S / log(kappa) and a degree-of-freedom density
k_eq = K_eq / K = S / log(n), which :func:`dfd_gamma_scan` tabulates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .counting import (
    CountingFunction,
    ProbabilityVector,
    WeightVector,
    effnum,
    tail_fit,
    weights_from_probs,
)
from .errors import InvalidInput


def mu_entropy(p: ProbabilityVector, c: CountingFunction) -> float:
    """log of the effective count of p; in [0, log n]."""
    return math.log(effnum(weights_from_probs(p), c))


class ScanStep(NamedTuple):
    n: int
    ratio: float        # effective count / n
    k_eq: float         # 1 + log(ratio) / log(n)


class GammaScanResult(NamedTuple):
    steps: tuple[ScanStep, ...]
    gamma: float
    residual: float
    window: int


def dfd_gamma_scan(family, c: CountingFunction) -> GammaScanResult:
    """Fit the decay exponent of the effective-count fraction over a family.

    ``family`` is any iterable of (n_k, p_k) with strictly increasing n_k,
    read once; p_k may be a :class:`ProbabilityVector`, a raw array of
    probabilities, or a :class:`WeightVector`, the member's counting weights
    taken as they are.  Each member is checked and counted before the next
    is read, and only its step is kept, so a streamed family is held one
    member at a time.  For each step the fraction F_k = effective count /
    n_k and the density k_eq = 1 + log F_k / log n_k are tabulated; gamma
    is minus the least-squares slope of log2 F_k against log2 n_k.

    The fit uses the last max(3, ceil(k/2)) of the k steps
    (:func:`~effnum.counting.tail_fit`) to suppress small-n transients.
    Behaviors slower than a power are not classified; judge the reported
    residual (max |fit - data| over the window).
    """
    steps: list[ScanStep] = []
    for n_k, member in family:
        if not isinstance(member, (ProbabilityVector, WeightVector)):
            member = ProbabilityVector(np.asarray(member))
        if member.n != int(n_k):
            raise InvalidInput(f"family member claims n={n_k} but has {member.n} entries")
        if member.n < 2:  # k_eq divides by log2(n)
            raise InvalidInput(f"family members need n >= 2, got n={n_k}")
        if steps and member.n <= steps[-1].n:
            raise InvalidInput("family sizes n_k must be strictly increasing")
        w = member if isinstance(member, WeightVector) else weights_from_probs(member)
        del member  # a streamed member's probabilities go before the kernel sum
        ratio = effnum(w, c) / w.n
        steps.append(ScanStep(n=w.n, ratio=ratio, k_eq=1.0 + math.log2(ratio) / math.log2(w.n)))
        del w  # and its weights before the next member is built
    if len(steps) < 3:
        raise InvalidInput("need at least 3 family members to fit a slope")

    _, slope, residual, window = tail_fit(
        [math.log2(s.n) for s in steps], [math.log2(s.ratio) for s in steps]
    )
    return GammaScanResult(steps=tuple(steps), gamma=-slope, residual=residual, window=window)
