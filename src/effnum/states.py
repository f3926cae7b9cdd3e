"""Pure states, orthogonal decompositions and measurement uncertainties.

A measurement with M distinguishable outcomes partitions the Hilbert space
into M orthogonal subspaces.  The measure-type uncertainty of a state is
the effective number of outcomes: the counting weights are w_m = M * p_m
with p_m the collapse probability into subspace m.  The metric-type
uncertainty is the familiar spread of outcome labels on the spectrum.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .counting import (
    CountingFunction,
    Frozen,
    ProbabilityVector,
    _fresh,
    as_dim,
    effnum,
    exact_sums,
    weights_from_probs,
)
from .errors import InvalidInput

STATE_NORM_TOL = 1e-12
BASIS_ORTHO_TOL = 1e-10
# Largest N of an N x N matrix input, a basis or a density matrix, whose
# checks are O(N^3); it lives here because effnum.density imports this module.
DEFAULT_DIM_CAP = 4096


class PureState(Frozen):
    """Unit-norm complex amplitude vector.

    Unlike a basis or a density matrix it has no dimension cap: its checks
    and counts are linear in the dimension, and ``mu`` runs on 2**16
    amplitudes and more.
    """

    def __init__(self, amps):
        arr = np.asarray(amps, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInput(f"state amplitudes must be a non-empty vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(float))):
            raise InvalidInput("state amplitudes contain non-finite entries")
        norm_sq = float((np.abs(arr) ** 2).sum())
        if abs(norm_sq - 1.0) > STATE_NORM_TOL:
            raise InvalidInput(
                f"state norm^2 must equal 1 within {STATE_NORM_TOL:g}; got {norm_sq!r}"
            )
        self._store(amps=arr, dim=int(arr.size))

    @classmethod
    def basis_vector(cls, index: int, dim: int) -> "PureState":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)


class OrthonormalBasis(Frozen):
    """Square complex matrix whose columns are the basis states."""

    def __init__(self, vectors):
        mat = np.asarray(vectors, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidInput(f"basis must be a square matrix, got shape {mat.shape}")
        if mat.shape[0] > DEFAULT_DIM_CAP:
            raise InvalidInput(
                f"basis dimension {mat.shape[0]} exceeds the supported cap {DEFAULT_DIM_CAP}"
            )
        gram = mat.conj().T @ mat
        defect = float(np.max(np.abs(gram - np.eye(mat.shape[0]))))
        if not defect <= BASIS_ORTHO_TOL:
            raise InvalidInput(
                f"basis columns are not orthonormal: max |U^H U - I| = {defect:.3e}"
            )
        self._store(vectors=mat, dim=int(mat.shape[0]))

    @classmethod
    def identity(cls, dim: int) -> "OrthonormalBasis":
        return cls(np.eye(dim, dtype=complex))


class OrthogonalDecomposition(Frozen):
    """Partition of the basis-index set {0, ..., dim-1} into disjoint blocks.

    Each block models one orthogonal subspace; blocks with more than one
    index represent degenerate outcome sectors.  Indices are 0-based.  The
    blocks are kept as ``block``, read-only: ``block[i]`` is the block of
    basis index i.
    """

    def __init__(self, blocks: Sequence[Sequence[int]], dim: int):
        dim = as_dim(dim, "decomposition dimension")
        indices = list(itertools.chain.from_iterable(blocks))
        kinds = set(map(type, indices))
        # numpy integers are indices too; a bool or a float is not one
        if not all(k is int or issubclass(k, np.integer) for k in kinds):
            names = ", ".join(sorted(k.__name__ for k in kinds))
            raise InvalidInput(f"block indices must be integers, got {names}")
        sizes = np.fromiter(map(len, blocks), np.intp, len(blocks))
        if not sizes.size or not sizes.all():
            raise InvalidInput("decomposition blocks must be non-empty")
        try:
            flat = np.fromiter(indices, np.intp, len(indices))
        except OverflowError:  # an index beyond the platform's integer range
            flat = None
        # dim indices in range, none missing: by pigeonhole, none repeated
        if (flat is None or flat.size != dim or flat.min() < 0 or flat.max() >= dim
                or not np.bincount(flat, minlength=dim).all()):
            raise InvalidInput(f"blocks must partition {{0,...,{dim - 1}}} into disjoint pieces")
        block = np.empty(dim, np.intp)
        block[flat] = np.repeat(np.arange(sizes.size), sizes)
        self._store(dim=dim, m_count=sizes.size, block=_fresh(block))

    @classmethod
    def singletons(cls, dim: int) -> "OrthogonalDecomposition":
        return cls(tuple((i,) for i in range(dim)), dim)


def euclidean_metric(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.sum((np.asarray(x, float) - np.asarray(y, float)) ** 2)))


class MeasurementSetup(Frozen):
    """Decomposition plus an outcome label (eigenvalue tuple) per subspace.

    The labels live in R^D; the metric on label space defaults to
    Euclidean and is only used by the metric uncertainty.
    """

    def __init__(self, decomposition: OrthogonalDecomposition, eigtuples: np.ndarray,
                 metric: Callable[[np.ndarray, np.ndarray], float] = euclidean_metric):
        try:
            pts = np.atleast_2d(np.asarray(eigtuples, dtype=float))
        except (TypeError, ValueError):  # ragged lists, or entries that are not numbers
            pts = None
        # NaN compares unequal to itself, so it would pass the duplicate scan below
        if pts is None or pts.ndim != 2 or not np.isfinite(pts).all():
            raise InvalidInput(
                "eigenvalue tuples must be a table of finite numbers, one row per subspace")
        if pts.shape[0] != decomposition.m_count:
            raise InvalidInput(
                f"need one eigenvalue tuple per subspace: got {pts.shape[0]} "
                f"for {decomposition.m_count} blocks"
            )
        # Sorted stably, equal labels are adjacent and in index order; the
        # first pair (i, j) in index order starts the run with the smallest i.
        order = np.lexsort(pts.T[::-1]) if pts.shape[1] else np.arange(len(pts))
        ranked = pts[order]
        same = np.all(ranked[1:] == ranked[:-1], axis=1)
        starts = np.flatnonzero(same & ~np.concatenate(([False], same[:-1])))
        if starts.size:
            k = starts[np.argmin(order[starts])]
            raise InvalidInput(f"eigenvalue tuples {order[k]} and {order[k + 1]} coincide")
        self._store(decomposition=decomposition, eigtuples=pts, metric=metric)


def _amps_in_basis(psi: PureState, basis: OrthonormalBasis | None) -> np.ndarray:
    if basis is None:
        return psi.amps
    if basis.dim != psi.dim:
        raise InvalidInput(f"basis dimension {basis.dim} != state dimension {psi.dim}")
    return basis.vectors.conj().T @ psi.amps


def subspace_probs(
    psi: PureState,
    dec: OrthogonalDecomposition,
    basis: OrthonormalBasis | None = None,
) -> ProbabilityVector:
    """Collapse probabilities p_m = sum_{i in block m} |<i|psi>|^2."""
    if dec.dim != psi.dim:
        raise InvalidInput(f"decomposition dimension {dec.dim} != state dimension {psi.dim}")
    amps = _amps_in_basis(psi, basis)
    return ProbabilityVector(exact_sums(np.abs(amps) ** 2, dec.block, dec.m_count))


def mu_uncertainty(
    psi: PureState,
    dec: OrthogonalDecomposition,
    basis: OrthonormalBasis | None,
    c: CountingFunction,
) -> float:
    """Effective number of distinct outcomes for the decomposition; in [1, M]."""
    probs = subspace_probs(psi, dec, basis)
    return effnum(weights_from_probs(probs), c)


def metric_uncertainty(
    psi: PureState,
    setup: MeasurementSetup,
    basis: OrthonormalBasis | None = None,
) -> float:
    """Probability-weighted spread of outcome labels around their mean.

    Returns sqrt(sum_m p_m * rho(lambda_m, mean)^2) with the componentwise
    mean of the labels; rho is the setup's metric.
    """
    probs = subspace_probs(psi, setup.decomposition, basis)
    pts = setup.eigtuples
    mean = probs.p @ pts
    dev_sq = [
        p * setup.metric(pts[m], mean) ** 2 for m, p in enumerate(probs.p.tolist())
    ]
    return math.sqrt(math.fsum(dev_sq))
