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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .counting import CountingFunction, ProbabilityVector, effnum, exact_sums, weights_from_probs
from .errors import InvalidInput

STATE_NORM_TOL = 1e-12
BASIS_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector."""

    amps: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInput(f"state amplitudes must be a non-empty vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(float))):
            raise InvalidInput("state amplitudes contain non-finite entries")
        norm_sq = float((np.abs(arr) ** 2).sum())
        if abs(norm_sq - 1.0) > STATE_NORM_TOL:
            raise InvalidInput(
                f"state norm^2 must equal 1 within {STATE_NORM_TOL:g}; got {norm_sq!r}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)
        object.__setattr__(self, "dim", int(arr.size))

    @classmethod
    def basis_vector(cls, index: int, dim: int) -> "PureState":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Square complex matrix whose columns are the basis states."""

    vectors: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.vectors, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidInput(f"basis must be a square matrix, got shape {mat.shape}")
        gram = mat.conj().T @ mat
        defect = float(np.max(np.abs(gram - np.eye(mat.shape[0]))))
        if not defect <= BASIS_ORTHO_TOL:
            raise InvalidInput(
                f"basis columns are not orthonormal: max |U^H U - I| = {defect:.3e}"
            )
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "vectors", mat)
        object.__setattr__(self, "dim", int(mat.shape[0]))

    @classmethod
    def identity(cls, dim: int) -> "OrthonormalBasis":
        return cls(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class OrthogonalDecomposition:
    """Partition of the basis-index set {0, ..., dim-1} into disjoint blocks.

    Each block models one orthogonal subspace; blocks with more than one
    index represent degenerate outcome sectors.  Indices are 0-based.
    ``flat`` lists the indices block after block and ``segment`` the block
    of each entry of ``flat``; both are read-only.
    """

    blocks: tuple[tuple[int, ...], ...]
    dim: int
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    segment: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(map(tuple, self.blocks))
        indices = list(itertools.chain.from_iterable(blocks))
        kinds = set(map(type, indices))
        if not kinds <= {int}:
            # numpy integers are indices too; a bool or a float is not one
            if not all(issubclass(k, np.integer) or k is int for k in kinds):
                names = ", ".join(sorted(k.__name__ for k in kinds))
                raise InvalidInput(f"block indices must be integers, got {names}")
            blocks = tuple(tuple(map(int, block)) for block in blocks)
        sizes = np.fromiter(map(len, blocks), np.intp, len(blocks))
        if not blocks or not sizes.all():
            raise InvalidInput("decomposition blocks must be non-empty")
        try:
            flat = np.fromiter(indices, np.intp, len(indices))
        except OverflowError:  # an index beyond the platform's integer range
            flat = None
        # dim indices in range, none missing: by pigeonhole, none repeated
        if (flat is None or flat.size != self.dim or flat.min() < 0 or flat.max() >= self.dim
                or not np.bincount(flat, minlength=self.dim).all()):
            raise InvalidInput(
                f"blocks must partition {{0,...,{self.dim - 1}}} into disjoint pieces"
            )
        segment = np.repeat(np.arange(len(blocks)), sizes)
        flat.flags.writeable = False
        segment.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "segment", segment)

    @property
    def m_count(self) -> int:
        return len(self.blocks)

    @classmethod
    def singletons(cls, dim: int) -> "OrthogonalDecomposition":
        return cls(tuple((i,) for i in range(dim)), dim)


def euclidean_metric(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.sum((np.asarray(x, float) - np.asarray(y, float)) ** 2)))


@dataclass(frozen=True)
class MeasurementSetup:
    """Decomposition plus an outcome label (eigenvalue tuple) per subspace.

    The labels live in R^D; the metric on label space defaults to
    Euclidean and is only used by the metric uncertainty.
    """

    decomposition: OrthogonalDecomposition
    eigtuples: np.ndarray
    metric: Callable[[np.ndarray, np.ndarray], float] = euclidean_metric

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.eigtuples, dtype=float))
        if pts.shape[0] != self.decomposition.m_count:
            raise InvalidInput(
                f"need one eigenvalue tuple per subspace: got {pts.shape[0]} "
                f"for {self.decomposition.m_count} blocks"
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
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "eigtuples", pts)


def _amps_in_basis(psi: PureState, basis: OrthonormalBasis | None) -> np.ndarray:
    if basis is None:
        return psi.amps
    if basis.dim != psi.dim:
        raise InvalidInput(f"basis dimension {basis.dim} != state dimension {psi.dim}")
    return basis.vectors.conj().T @ psi.amps


def basis_change(psi: PureState, basis: OrthonormalBasis) -> PureState:
    """Coordinates of psi in the given basis: amplitude i is <i|psi>."""
    return PureState(_amps_in_basis(psi, basis))


def subspace_probs(
    psi: PureState,
    dec: OrthogonalDecomposition,
    basis: OrthonormalBasis | None = None,
) -> ProbabilityVector:
    """Collapse probabilities p_m = sum_{i in block m} |<i|psi>|^2."""
    if dec.dim != psi.dim:
        raise InvalidInput(f"decomposition dimension {dec.dim} != state dimension {psi.dim}")
    amps = _amps_in_basis(psi, basis)
    sq = np.abs(amps) ** 2
    return ProbabilityVector(exact_sums(sq[dec.flat], dec.segment, dec.m_count))


def mu_uncertainty(
    psi: PureState,
    dec: OrthogonalDecomposition,
    basis: OrthonormalBasis | None,
    c: CountingFunction,
) -> float:
    """Effective number of distinct outcomes for the decomposition; in [1, M]."""
    probs = subspace_probs(psi, dec, basis)
    return effnum(weights_from_probs(probs), c)


def mu_uncertainty_min(
    psi: PureState,
    dec: OrthogonalDecomposition,
    basis: OrthonormalBasis | None = None,
) -> float:
    """Smallest consistent outcome abundance; lower-bounds every kernel."""
    return mu_uncertainty(psi, dec, basis, CountingFunction.minimal())


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
