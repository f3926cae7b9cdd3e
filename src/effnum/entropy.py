"""Entropies of effective counts and equivalent degrees of freedom.

The entropy of a probability vector here is the natural log of its
effective count, in the spirit of Boltzmann's log of accessible states.
For a system of K degrees of freedom with per-degree dimension kappa the
same quantity converts to an equivalent degree-of-freedom count
K_eq = S / log(kappa) and a degree-of-freedom density k_eq = K_eq / K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import (
    CountingFunction,
    ProbabilityVector,
    effnum,
    product,
    weights_from_probs,
)
from .errors import InvalidInput


@dataclass(frozen=True)
class DofModel:
    """K degrees of freedom, each with a kappa-dimensional state space."""

    kappa: int
    k_count: int

    def __post_init__(self):
        if int(self.kappa) < 2:
            raise InvalidInput(f"per-degree dimension must be >= 2, got {self.kappa}")
        if int(self.k_count) < 1:
            raise InvalidInput(f"degree count must be >= 1, got {self.k_count}")
        object.__setattr__(self, "kappa", int(self.kappa))
        object.__setattr__(self, "k_count", int(self.k_count))

    @property
    def n(self) -> int:
        return self.kappa**self.k_count  # exact integer arithmetic


def mu_entropy(p: ProbabilityVector, c: CountingFunction) -> float:
    """log of the effective count of p; in [0, log n]."""
    return math.log(effnum(weights_from_probs(p), c))


def mu_entropy_min(p: ProbabilityVector) -> float:
    """Smallest consistent entropy: log sum_i min{n p_i, 1}."""
    return mu_entropy(p, CountingFunction.minimal())


def mu_entropy_alpha(p: ProbabilityVector, alpha: float) -> float:
    """Canonical-family entropy log sum_i min{(n p_i)^alpha, 1}, 0 < alpha <= 1.

    alpha = 1 reproduces :func:`mu_entropy_min` exactly.
    """
    return mu_entropy(p, CountingFunction.canonical(alpha))


def superadditivity_gap(p: ProbabilityVector, q: ProbabilityVector, alpha: float) -> float:
    """S_alpha of the product distribution minus the sum of the factors'.

    Non-negative for every (p, q, alpha); returned as computed so callers
    can assert the >= -1e-12 contract.
    """
    joint = mu_entropy_alpha(product(p, q), alpha)
    return joint - mu_entropy_alpha(p, alpha) - mu_entropy_alpha(q, alpha)


def k_equivalent(p: ProbabilityVector, model: DofModel, c: CountingFunction) -> float:
    """Equivalent degree-of-freedom count: entropy in base-kappa units."""
    if p.n != model.n:
        raise InvalidInput(
            f"distribution length {p.n} != model state-space size {model.n}"
        )
    return mu_entropy(p, c) / math.log(model.kappa)


def dfd(p: ProbabilityVector, model: DofModel, c: CountingFunction) -> float:
    """Degree-of-freedom density K_eq / K; in [0, 1], 1 iff p is uniform."""
    return k_equivalent(p, model, c) / model.k_count


@dataclass(frozen=True)
class ScanStep:
    n: int
    ratio: float        # effective count / n
    k_eq: float         # 1 + log(ratio) / log(n)


@dataclass(frozen=True)
class GammaScanResult:
    steps: tuple[ScanStep, ...]
    gamma: float
    residual: float
    window: int


def dfd_gamma_scan(
    family,
    c: CountingFunction,
    *,
    window: int | None = None,
) -> GammaScanResult:
    """Fit the decay exponent of the effective-count fraction over a family.

    ``family`` is a sequence of (n_k, p_k) with strictly increasing n_k;
    p_k may be a :class:`ProbabilityVector` or a raw array.  For each step
    the fraction F_k = effective count / n_k and the density
    k_eq = 1 + log F_k / log n_k are tabulated; gamma is minus the
    least-squares slope of log2 F_k against log2 n_k.

    The fit uses the last ``window`` steps (default: the larger of 3 and
    half the family, rounded up) to suppress small-n transients.
    Behaviors slower than a power are not classified; judge the reported
    residual (max |fit - data| over the window).
    """
    members = []
    for n_k, p_k in family:
        pv = p_k if isinstance(p_k, ProbabilityVector) else ProbabilityVector(np.asarray(p_k))
        if pv.n != int(n_k):
            raise InvalidInput(f"family member claims n={n_k} but has {pv.n} entries")
        if pv.n < 2:  # k_eq divides by log2(n)
            raise InvalidInput(f"family members need n >= 2, got n={n_k}")
        members.append(pv)
    sizes = [pv.n for pv in members]
    if len(sizes) < 3:
        raise InvalidInput("need at least 3 family members to fit a slope")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidInput("family sizes n_k must be strictly increasing")

    steps = []
    for pv in members:
        value = effnum(weights_from_probs(pv), c)
        ratio = value / pv.n
        k_eq = 1.0 + math.log2(ratio) / math.log2(pv.n)
        steps.append(ScanStep(n=pv.n, ratio=ratio, k_eq=k_eq))

    if window is None:
        window = max(3, math.ceil(len(steps) / 2))
    window = min(int(window), len(steps))
    if window < 2:
        raise InvalidInput("fit window must span at least 2 steps")
    xs = np.array([math.log2(s.n) for s in steps[-window:]])
    ys = np.array([math.log2(s.ratio) for s in steps[-window:]])
    xbar = xs.mean()
    ybar = ys.mean()
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2))
    intercept = ybar - slope * xbar
    residual = float(np.max(np.abs(intercept + slope * xs - ys)))
    return GammaScanResult(
        steps=tuple(steps), gamma=-slope, residual=residual, window=window
    )
