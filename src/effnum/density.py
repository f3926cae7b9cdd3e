"""Density matrices, their spectra, and the state content they carry.

The effective number of state components of an N x N density matrix is
the effective count of its spectrum with weights N * rho_i, a
basis-independent quantity.  The spectrum is computed once, when the
matrix is validated, and every count and entropy reads that one array.

For a bipartite pure state the same count applied to a reduced density
matrix measures entanglement.  Both reductions share their non-zero
spectrum, the Schmidt weights, which :func:`mu_entanglement` takes from
one SVD of the amplitudes without forming an N x N matrix.
:func:`partial_trace` and :meth:`DensityMatrix.from_pure` remain as API
and as the reference path the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counting import CountingFunction, WeightVector, effnum, exact_sums
from .errors import ConvergenceError, InvalidInput, InvariantViolation
from .states import PureState

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NEGATIVE_EIGENVALUE_TOL = 1e-10
DEFAULT_DIM_CAP = 4096


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one, positive semidefinite complex matrix.

    ``spectrum`` holds its eigenvalues, sorted descending, with negatives
    within ``NEGATIVE_EIGENVALUE_TOL`` clamped to zero, renormalized to sum
    to one (exactly summed, :func:`~effnum.counting.exact_sums`) and read-only.
    """

    mat: np.ndarray
    dim: int = field(init=False)
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidInput(f"density matrix must be square, got shape {mat.shape}")
        n = mat.shape[0]
        if n > DEFAULT_DIM_CAP:
            raise InvalidInput(
                f"density matrix dimension {n} exceeds the supported cap {DEFAULT_DIM_CAP}"
            )
        # NaN would pass the comparisons below, which are all false for it.
        if not np.all(np.isfinite(mat)):
            raise InvalidInput("density matrix contains non-finite entries")
        herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_defect > HERMITICITY_TOL:
            raise InvariantViolation(
                f"matrix is not Hermitian: max |rho - rho^H| = {herm_defect:.3e}"
            )
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"trace must equal 1 within {TRACE_TOL:g}; got {trace!r}")
        mat = mat.copy()
        mat.flags.writeable = False
        # eigh, not eigvalsh: the two LAPACK drivers differ in the last bit,
        # and hermitian_eigen's values must equal this spectrum exactly.
        vals = _eigh(mat)[0]
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dim", int(n))
        object.__setattr__(self, "spectrum", _normalized_spectrum(vals[::-1]))

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        return cls(np.outer(psi.amps, psi.amps.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition with a deterministic ordering convention.

    Eigenvalues are sorted descending; tiny negatives (within the
    positivity tolerance) are clamped to zero and the spectrum is
    renormalized to sum to one.  Each eigenvector is phase-fixed so its
    first non-negligible component is real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float).copy()
        vecs = np.asarray(self.eigenvectors, dtype=complex).copy()
        vals.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above threshold is real > 0."""
    out = vecs.copy()
    n = vecs.shape[0]
    for j in range(vecs.shape[1]):
        col = out[:, j]
        idx = 0
        for i in range(n):
            if abs(col[i]) > 1e-12:
                idx = i
                break
        pivot = col[idx]
        if abs(pivot) > 0.0:
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's Hermitian solver; non-convergence raises ConvergenceError."""
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc


def _normalized_spectrum(vals: np.ndarray) -> np.ndarray:
    """Descending eigenvalues, clamped within tolerance and exactly normalized.

    A negative eigenvalue beyond ``NEGATIVE_EIGENVALUE_TOL`` raises
    InvariantViolation: the matrix is not positive semidefinite.
    """
    smallest = float(np.min(vals))
    if smallest < -NEGATIVE_EIGENVALUE_TOL:
        raise InvariantViolation(
            f"matrix is not positive semidefinite: smallest eigenvalue {smallest:.3e}"
        )
    vals = np.where(vals < 0.0, 0.0, vals)
    vals = vals / exact_sums(vals).item()
    vals.flags.writeable = False
    return vals


def hermitian_eigen(rho: DensityMatrix) -> Eigensystem:
    """Spectral decomposition of a density matrix.

    Delegates the diagonalization to LAPACK's Hermitian solver and then
    applies the ordering, clamping and phase conventions of
    :class:`Eigensystem`; the eigenvalues equal ``rho.spectrum`` bit for
    bit.  Callers that need only the eigenvalues should read
    ``rho.spectrum``.  Raises :class:`ConvergenceError` if the solver
    fails to converge (pathological input).
    """
    vals, vecs = _eigh(rho.mat)
    order = np.argsort(vals, kind="stable")[::-1]
    vecs = _fix_phases(vecs[:, order])
    return Eigensystem(eigenvalues=_normalized_spectrum(vals[order]), eigenvectors=vecs)


def quantum_effnum(rho: DensityMatrix, c: CountingFunction) -> float:
    """Effective number of state components: sum_i c(N * rho_i)."""
    return effnum(WeightVector(rho.dim * rho.spectrum), c)


def quantum_effnum_min(rho: DensityMatrix) -> float:
    """Smallest consistent state-component count: sum_i min{N rho_i, 1}."""
    return quantum_effnum(rho, CountingFunction.minimal())


@dataclass(frozen=True)
class BipartiteStructure:
    """Factorization N = dim_a * dim_b with row-major index a * dim_b + b."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if int(self.dim_a) < 1 or int(self.dim_b) < 1:
            raise InvalidInput("factor dimensions must be positive")
        object.__setattr__(self, "dim_a", int(self.dim_a))
        object.__setattr__(self, "dim_b", int(self.dim_b))

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def partial_trace(rho: DensityMatrix, bp: BipartiteStructure, keep: str) -> DensityMatrix:
    """Trace out one factor; ``keep`` is "A" or "B" (row-major ordering)."""
    if bp.dim != rho.dim:
        raise InvalidInput(
            f"factorization {bp.dim_a}x{bp.dim_b} inconsistent with dimension {rho.dim}"
        )
    keep = keep.upper()
    four = rho.mat.reshape(bp.dim_a, bp.dim_b, bp.dim_a, bp.dim_b)
    if keep == "A":
        reduced = np.trace(four, axis1=1, axis2=3)
    elif keep == "B":
        reduced = np.trace(four, axis1=0, axis2=2)
    else:
        raise InvalidInput(f'keep must be "A" or "B", got {keep!r}')
    return DensityMatrix(reduced)


def schmidt_weights(psi: PureState, bp: BipartiteStructure) -> np.ndarray:
    """Schmidt weights of a bipartite pure state, descending and read-only.

    They are the squared singular values of the amplitudes reshaped to
    dim_a x dim_b (Nielsen & Chuang, Thm 2.7), renormalized to sum to one
    by their exact sum: min(dim_a, dim_b) entries, the non-zero spectrum of
    either reduced density matrix padded with zeros.
    """
    if bp.dim != psi.dim:
        raise InvalidInput(
            f"factorization {bp.dim_a}x{bp.dim_b} inconsistent with dimension {psi.dim}"
        )
    try:
        singular = np.linalg.svd(psi.amps.reshape(bp.dim_a, bp.dim_b), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    weights = singular**2
    weights /= exact_sums(weights).item()
    weights.flags.writeable = False
    return weights


def mu_entanglement(psi: PureState, bp: BipartiteStructure, c: CountingFunction) -> float:
    """State content shared across the bipartition: the effective
    component count of either reduced density matrix.

    The count runs over the :func:`schmidt_weights`, so both reductions
    give it and ``DEFAULT_DIM_CAP`` does not limit it.  The weight scale is
    min(dim_a, dim_b) -- the largest possible number of terms in the
    biorthogonal expansion.  Ranges from 1 (product state) to
    min(dim_a, dim_b) (maximal).
    """
    return effnum(entanglement_weights(psi, bp), c)


def entanglement_weights(psi: PureState, bp: BipartiteStructure) -> WeightVector:
    """Counting weights of :func:`mu_entanglement`: the Schmidt weights times
    their number, min(dim_a, dim_b).  Compute them once to apply several
    kernels."""
    weights = schmidt_weights(psi, bp)
    return WeightVector(weights.size * weights)


def mu_entanglement_min(psi: PureState, bp: BipartiteStructure) -> float:
    return mu_entanglement(psi, bp, CountingFunction.minimal())
