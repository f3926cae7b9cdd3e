"""Density matrices, their spectra, and the state content they carry.

The effective number of state components of an N x N density matrix is
the effective count of its spectral weights N * rho_i
(:func:`spectral_weights`, built once for any number of kernels), a
basis-independent quantity.  The spectrum is computed once, when the
matrix is validated, by LAPACK's eigenvalue-only solver on the traceless
part rho - (tr rho / N) I, and every count and entropy reads that one
array; only :func:`hermitian_eigen` builds eigenvectors.  A
:class:`DensityMatrix` holds one N x N array from its input to its
spectrum: the array a reader or builder hands over, or its own copy of a
caller's.  It checks that array a block of rows at a time and shifts its
diagonal in place for the solve, so LAPACK's copy is the only other one.

For a bipartite pure state the same count applied to a reduced density
matrix measures entanglement.  Both reductions share their non-zero
spectrum, the Schmidt weights, which :func:`entanglement_weights` takes
from one SVD of the amplitudes without forming an N x N matrix.
:func:`partial_trace` and :meth:`DensityMatrix.from_pure` remain as API
and as the reference path the tests compare against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .counting import (BLOCK, CountingFunction, Frozen, WeightVector, _fresh, _owned, as_dim,
                       effnum, exact_sums)
from .errors import ConvergenceError, InvalidInput, InvariantViolation
from .states import PureState, _check_dim_cap

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NEGATIVE_EIGENVALUE_TOL = 1e-10


class DensityMatrix(Frozen):
    """Hermitian, trace-one, positive semidefinite complex matrix.

    ``spectrum`` holds its eigenvalues, sorted descending, with negatives
    within ``NEGATIVE_EIGENVALUE_TOL`` clamped to zero, renormalized to sum
    to one (exactly summed, :func:`~effnum.counting.exact_sums`) and read-only.
    """

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidInput(f"density matrix must be square, got shape {mat.shape}")
        n = mat.shape[0]
        _check_dim_cap(n, "density matrix")
        mat = _owned(mat)  # the checks and the solve work in it
        # NaN would pass the comparisons below, which are all false for it.
        if not np.all(np.isfinite(mat)):
            raise InvalidInput("density matrix contains non-finite entries")
        herm_defect = _hermiticity_defect(mat)
        if herm_defect > HERMITICITY_TOL:
            raise InvariantViolation(
                f"matrix is not Hermitian: max |rho - rho^H| = {herm_defect:.3e}"
            )
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"trace must equal 1 within {TRACE_TOL:g}; got {trace!r}")
        vals = _eigvalsh(mat, trace.real / n)
        self._store(mat=mat, dim=int(n), spectrum=_normalized_spectrum(vals[::-1]))

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        return cls(_fresh(np.outer(psi.amps, psi.amps.conj())))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(_fresh(np.eye(dim, dtype=complex) / dim))


def _hermiticity_defect(mat: np.ndarray) -> float:
    """max |mat - mat^H|, taken over rows of about ``BLOCK`` / 4 entries at a
    time, so that neither mat^H nor the whole difference is built.  Blocks of
    ``BLOCK`` entries (1 MiB) stayed resident once freed and raised the peak
    of a 512 x 512 ``qnum`` child by about 1 MB."""
    n = mat.shape[0]
    rows = max(1, BLOCK // 4 // max(n, 1))
    defect = 0.0
    for start in range(0, n, rows):
        block = mat[:, start:start + rows].T.conj()
        np.subtract(mat[start:start + rows], block, out=block)
        defect = max(defect, float(np.max(np.abs(block))))
        del block  # before the next one is built
    return defect


class Eigensystem(Frozen):
    """Spectral decomposition with a deterministic ordering convention.

    Eigenvalues are sorted descending; tiny negatives (within the
    positivity tolerance) are clamped to zero and the spectrum is
    renormalized to sum to one.  Each eigenvector is phase-fixed so its
    first non-negligible component is real and positive.
    """

    def __init__(self, eigenvalues, eigenvectors):
        self._store(eigenvalues=np.asarray(eigenvalues, dtype=float),
                    eigenvectors=np.asarray(eigenvectors, dtype=complex))

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column in place so its first component above threshold is real > 0."""
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        pivot = col[next((i for i, x in enumerate(col) if abs(x) > 1e-12), 0)]
        if abs(pivot) > 0.0:
            col *= pivot.conjugate() / abs(pivot)
    return vecs


def _solved(solve: Callable, mat: np.ndarray):
    """``solve(mat)``, ``solve`` one of numpy's Hermitian solvers;
    non-convergence raises ConvergenceError."""
    try:
        return solve(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc


def _eigvalsh(mat: np.ndarray, sigma: float) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian ``mat``: LAPACK's
    eigenvalue-only solver applied to mat - sigma I, with sigma added back.

    With sigma = Re tr(mat) / N the solver sees the traceless part, and its
    absolute error scales with ||mat - sigma I|| instead of ||mat||: a
    multiple of the identity, for one, becomes the zero matrix, and its
    spectrum comes back exact.  ``mat`` must be an array the caller owns:
    sigma is subtracted from its diagonal in place, and the saved diagonal
    is written back bit for bit afterwards, also when the solver fails, so
    the only N x N temporary is the solver's own copy.
    """
    step = mat.shape[0] + 1
    diagonal = mat.flat[::step]  # a copy
    mat.flat[::step] = diagonal - sigma
    try:
        return _solved(np.linalg.eigvalsh, mat) + sigma
    finally:
        mat.flat[::step] = diagonal


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
    return vals / exact_sums(vals).item()


def hermitian_eigen(rho: DensityMatrix) -> Eigensystem:
    """Spectral decomposition of a density matrix.

    Delegates the diagonalization to LAPACK's Hermitian solver and then
    applies the ordering and phase conventions of :class:`Eigensystem`;
    the eigenvalues are ``rho.spectrum`` itself, so they equal it bit for
    bit.  Callers that need only the eigenvalues should read
    ``rho.spectrum``.  Raises :class:`ConvergenceError` if the solver
    fails to converge (pathological input).
    """
    vals, vecs = _solved(np.linalg.eigh, rho.mat)
    order = np.argsort(vals, kind="stable")[::-1]
    return Eigensystem(eigenvalues=rho.spectrum, eigenvectors=_fix_phases(vecs[:, order]))


def quantum_effnum(rho: DensityMatrix, c: CountingFunction) -> float:
    """Effective number of state components: sum_i c(N * rho_i)."""
    return effnum(spectral_weights(rho), c)


def spectral_weights(rho: DensityMatrix) -> WeightVector:
    """Counting weights of :func:`quantum_effnum`: the spectrum times the
    dimension, N * rho_i.  Compute them once to apply several kernels."""
    return WeightVector(_fresh(rho.dim * rho.spectrum))


class BipartiteStructure(Frozen):
    """Factorization N = dim_a * dim_b with row-major index a * dim_b + b."""

    def __init__(self, dim_a: int, dim_b: int):
        dim_a, dim_b = as_dim(dim_a, "factor dimension"), as_dim(dim_b, "factor dimension")
        if dim_a < 1 or dim_b < 1:
            raise InvalidInput("factor dimensions must be positive")
        self._store(dim_a=dim_a, dim_b=dim_b)

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
    return DensityMatrix(_fresh(reduced))


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
    return WeightVector(_fresh(weights.size * weights))
