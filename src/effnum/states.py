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
from typing import Callable, NamedTuple, Sequence

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
    weights_from_probs,
)
from .errors import InvalidInput

STATE_NORM_TOL = 1e-12
BASIS_ORTHO_TOL = 1e-10
# Largest N of an N x N matrix input, a basis or a density matrix, whose
# checks are O(N^3); it lives here because effnum.density imports this module.
DEFAULT_DIM_CAP = 4096


def _check_dim_cap(n: int, what: str) -> None:
    """Refuse an N x N ``what``, so named in the message, above ``DEFAULT_DIM_CAP``."""
    if n > DEFAULT_DIM_CAP:
        raise InvalidInput(f"{what} dimension {n} exceeds the supported cap {DEFAULT_DIM_CAP}")


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
        squares = np.abs(arr)
        norm_sq = float(np.square(squares, out=squares).sum())
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
        _check_dim_cap(mat.shape[0], "basis")
        defect = _orthonormality_defect(mat)
        if not defect <= BASIS_ORTHO_TOL:
            raise InvalidInput(
                f"basis columns are not orthonormal: max |U^H U - I| = {defect:.3e}"
            )
        self._store(vectors=mat, dim=int(mat.shape[0]))

    @classmethod
    def identity(cls, dim: int) -> "OrthonormalBasis":
        return cls(np.eye(dim, dtype=complex))


def _orthonormality_defect(mat: np.ndarray) -> float:
    """max |U^H U - I| over the columns U of ``mat``, taken over rows of
    U^H U of about ``BLOCK`` entries at a time, so that neither U^H nor
    the whole product is built."""
    n = mat.shape[0]
    rows = BLOCK // max(n, 1)  # at least 16 under DEFAULT_DIM_CAP
    maxima = []  # np.max, unlike max, keeps a NaN
    for start in range(0, n, rows):
        gram = mat[:, start:start + rows].T.conj() @ mat
        diagonal = np.arange(gram.shape[0])
        gram[diagonal, start + diagonal] -= 1.0
        maxima.append(np.max(np.abs(gram)))
        del gram  # before the next one is built
    return float(np.max(maxima))


class Blocks(NamedTuple):
    """A partition's blocks as two integer arrays: their indices, block
    after block, and the size of each block."""

    indices: np.ndarray
    sizes: np.ndarray


def _block_of(flat: np.ndarray, sizes: np.ndarray, dim: int) -> np.ndarray:
    """The block of each of the ``dim`` indices, given as ``flat``, block
    after block, in blocks of ``sizes``; -1 for an index not given.  The
    blocks are labelled about ``BLOCK`` at a time, so that no array of
    labels in the order of ``flat`` is built whole."""
    block = np.full(dim, -1, np.intp)
    start = 0
    for first in range(0, sizes.size, BLOCK):
        part = sizes[first:first + BLOCK]
        end = start + int(part.sum())
        block[flat[start:end]] = np.repeat(np.arange(first, first + part.size), part)
        start = end
    return block


class OrthogonalDecomposition(Frozen):
    """Partition of the basis-index set {0, ..., dim-1} into disjoint blocks.

    Each block models one orthogonal subspace; blocks with more than one
    index represent degenerate outcome sectors.  Indices are 0-based.  The
    blocks are kept as ``block``, read-only: ``block[i]`` is the block of
    basis index i.  The blocks are lists of indices, or ``Blocks``, as a
    file's reader decodes them.
    """

    def __init__(self, blocks: Sequence[Sequence[int]] | Blocks, dim: int):
        dim = as_dim(dim, "decomposition dimension")
        if isinstance(blocks, Blocks):
            flat, sizes = blocks
            kinds = {flat.dtype.type, sizes.dtype.type}
        else:
            flat = list(itertools.chain.from_iterable(blocks))
            kinds = set(map(type, flat))
        # numpy integers are indices too; a bool or a float is not one
        if not all(k is int or issubclass(k, np.integer) for k in kinds):
            names = ", ".join(sorted(k.__name__ for k in kinds))
            raise InvalidInput(f"block indices must be integers, got {names}")
        if not isinstance(blocks, Blocks):
            sizes = np.fromiter(map(len, blocks), np.intp, len(blocks))
            try:
                flat = np.fromiter(flat, np.intp, len(flat))
            except OverflowError:  # an index beyond the platform's integer range
                flat = None
        if not sizes.size or not (sizes > 0).all():
            raise InvalidInput("decomposition blocks must be non-empty")
        # dim indices in range, none missing: by pigeonhole, none repeated
        if (flat is None or flat.size != dim or sizes.sum() != dim or flat.min() < 0
                or flat.max() >= dim or (block := _block_of(flat, sizes, dim)).min() < 0):
            raise InvalidInput(f"blocks must partition {{0,...,{dim - 1}}} into disjoint pieces")
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
    squares = np.abs(amps)  # the exact sums use it up
    return ProbabilityVector(exact_sums(_fresh(np.square(squares, out=squares)), dec.block,
                                        dec.m_count))


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
