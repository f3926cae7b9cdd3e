"""Independent numerical oracles and the identity checkers of the test suite.

The oracles deliberately avoid the code paths they are checking: the
Hermitian eigensolver here is a hand-rolled cyclic Jacobi iteration (the
library delegates to LAPACK), characteristic-polynomial roots come from
Newton's identities, quadrature oracles re-do Riemann sums with plain
ndarray arithmetic, and outcome frequencies are exact rationals.

The identity checkers at the end state identities of the paper: additivity
of the relative fraction under a cut of the support, its invariance under a
relabeling of the spectrum, and superadditivity of the entropies.  They
evaluate each side with the library's own ``_relative_mu``, ``riemann_sum``
and ``mu_entropy``, so the identities are checked on library code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from effnum import (
    CountingFunction,
    Grid,
    InvalidInput,
    OutcomeCounts,
    ProbabilityVector,
    SpectralDensityPair,
    mu_entropy,
    product,
    riemann_sum,
)
from effnum.continuum import _relative_mu


def jacobi_hermitian(matrix, tol: float = 1e-14, max_sweeps: int = 100):
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Returns (eigenvalues descending, unitary eigenvector columns).
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        scale = max(np.sqrt(np.sum(np.abs(a) ** 2)), 1e-300)
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r <= 1e-300:
                    continue
                phase = a[p, q] / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                e_neg = np.conj(phase)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * e_neg * col_q
                a[:, q] = s * col_p + c * e_neg * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * e_neg * vec_q
                v[:, q] = s * vec_p + c * e_neg * vec_q
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    w = np.diag(a).real
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def charpoly_eigvals_4x4(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian 4x4 matrix from its characteristic
    polynomial (Newton's identities + companion roots), sorted descending."""
    a = np.asarray(matrix, dtype=complex)
    assert a.shape == (4, 4)
    s = [np.trace(np.linalg.matrix_power(a, k)).real for k in range(1, 5)]
    e1 = s[0]
    e2 = (e1 * s[0] - s[1]) / 2.0
    e3 = (e2 * s[0] - e1 * s[1] + s[2]) / 3.0
    e4 = (e3 * s[0] - e2 * s[1] + e1 * s[2] - s[3]) / 4.0
    roots = np.roots([1.0, -e1, e2, -e3, e4])
    return np.sort(roots.real)[::-1]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank random density matrix (Hilbert-Schmidt style)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = z @ z.conj().T
    return h / np.trace(h).real


def random_pure(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.sqrt(np.sum(np.abs(z) ** 2))


def random_probs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dirichlet-style random probability vector."""
    x = rng.gamma(1.0, size=n)
    return x / x.sum()


def dyadic_weights(rng: np.random.Generator, n: int, denom_bits: int = 6) -> np.ndarray:
    """Random counting weights that are exact dyadic rationals (sum == n)."""
    denom = 2**denom_bits
    counts = rng.multinomial(n * denom, np.full(n, 1.0 / n))
    return counts / float(denom)


def midpoint_min_fraction(intensity, lo: float, hi: float, cells: int) -> float:
    """Plain midpoint-rule evaluation of the minimal occupied fraction of a
    1-d intensity profile (independent of the library's code path)."""
    h = (hi - lo) / cells
    x = lo + (np.arange(cells) + 0.5) * h
    vals = np.asarray(intensity(x), dtype=float)
    p = vals / vals.sum()
    return float(np.sum(np.minimum(cells * p, 1.0))) / cells


def cell_centers(grid: Grid) -> np.ndarray:
    """A grid's cell midpoints as an (ncells, d) array, row-major."""
    axes = [
        grid.origin[k] + (np.arange(grid.shape[k]) + 0.5) * grid.spacing[k]
        for k in range(grid.d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def empirical_fractions(counts: OutcomeCounts) -> tuple[Fraction, ...]:
    """Outcome frequencies as exact rationals, ``Fraction(count, t)``; they
    sum to 1 exactly."""
    return tuple(Fraction(int(k), counts.t_count) for k in counts.counts)


def superadditivity_gap(p: ProbabilityVector, q: ProbabilityVector, alpha: float) -> float:
    """S_alpha of the product distribution minus the sum of the factors'.

    Non-negative for every (p, q, alpha); returned as computed so callers
    can assert the >= -1e-12 contract.
    """
    c = CountingFunction.canonical(alpha)
    return mu_entropy(product(p, q), c) - mu_entropy(p, c) - mu_entropy(q, c)


class PartitionAdditivityResult(NamedTuple):
    value: float          # fraction of the full pair
    split_value: float    # F1 * fraction(part 1) + F2 * fraction(part 2)
    gap: float
    fractions: tuple[float, float]


def partition_additivity_check(
    sd: SpectralDensityPair,
    part_one: np.ndarray,
    c: CountingFunction,
) -> PartitionAdditivityResult:
    """Two-sided evaluation of the additivity identity under a support cut.

    ``part_one`` is a boolean cell mask selecting the first part.  Each
    part inherits the restricted densities rescaled by the part's spectral
    mass F_i = integral of eta over the part; the identity

        F[P, eta] = F1 * F[P/F1, eta/F1 | part 1] + F2 * (...)

    is exact at the Riemann-sum level, so the returned gap is pure
    floating-point noise.
    """
    mask = np.asarray(part_one, dtype=bool).ravel()
    if mask.size != sd.p.size:
        raise InvalidInput("partition mask must cover every cell")
    vol = sd.grid.cell_volume
    value = _relative_mu(sd.p, sd.eta, vol, c)
    split_terms = []
    fractions = []
    for part in (mask, ~mask):
        f_part = riemann_sum(sd.eta[part], vol)
        if f_part <= 0.0:
            raise InvalidInput("partition part carries no spectral mass")
        piece = _relative_mu(sd.p[part] / f_part, sd.eta[part] / f_part, vol, c)
        fractions.append(f_part)
        split_terms.append(f_part * piece)
    split_value = split_terms[0] + split_terms[1]
    return PartitionAdditivityResult(
        value=value,
        split_value=split_value,
        gap=abs(value - split_value),
        fractions=(fractions[0], fractions[1]),
    )


class ReparamCheckResult(NamedTuple):
    value: float
    mapped_value: float
    discrepancy: float
    error_bound: float

    @property
    def passed(self) -> bool:
        return self.discrepancy <= self.error_bound


def _coarsen(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a[0::2] + a[1::2])


def reparametrization_check(
    sd: SpectralDensityPair,
    f_values: np.ndarray,
    f_derivs: np.ndarray,
    source_grid: Grid,
    c: CountingFunction,
) -> ReparamCheckResult:
    """Verify invariance of the fraction under a relabeling of the spectrum.

    The pair ``sd`` lives on a one-dimensional grid in the target variable;
    ``f_values``/``f_derivs`` sample a strictly increasing differentiable
    map and its derivative at the midpoints of ``source_grid``.  Both
    densities transform with the Jacobian (P' = P(f) f', eta' = eta(f) f')
    and the fraction is evaluated on each side by midpoint quadrature;
    target-side values at mapped points come from linear interpolation.

    The discrepancy between the two sides is reported together with a
    two-sided quadrature error estimate obtained by re-evaluating each
    side at half resolution.  ``passed`` states that the discrepancy is
    within that bound.
    """
    if sd.grid.d != 1:
        raise InvalidInput("the shipped checker needs a pair on a 1-dimensional grid")
    if source_grid.d != 1:
        raise InvalidInput("source grid must be 1-dimensional")
    f = np.asarray(f_values, dtype=float).ravel()
    fp = np.asarray(f_derivs, dtype=float).ravel()
    if f.size != source_grid.ncells or fp.size != source_grid.ncells:
        raise InvalidInput("need one f and one f' sample per source cell")
    if np.any(np.diff(f) <= 0.0):
        raise InvalidInput("map samples must be strictly increasing")
    if np.any(fp <= 0.0):
        raise InvalidInput("map derivative must be positive on the support")
    if sd.grid.ncells % 2 or source_grid.ncells % 2 or min(sd.grid.ncells, source_grid.ncells) < 8:
        raise InvalidInput("cell counts must be even and >= 8 for the error estimate")

    centers = cell_centers(sd.grid)[:, 0]
    h_target = sd.grid.spacing[0]
    h_source = source_grid.spacing[0]

    def mapped_side(xs, ps, es, f_s, fp_s, h):
        return _relative_mu(np.interp(f_s, xs, ps) * fp_s, np.interp(f_s, xs, es) * fp_s, h, c)

    value = _relative_mu(sd.p, sd.eta, h_target, c)
    value_coarse = _relative_mu(_coarsen(sd.p), _coarsen(sd.eta), 2.0 * h_target, c)
    mapped = mapped_side(centers, sd.p, sd.eta, f, fp, h_source)
    mapped_coarse = mapped_side(centers, sd.p, sd.eta, _coarsen(f), _coarsen(fp), 2.0 * h_source)

    discrepancy = abs(value - mapped)
    bound = abs(value - value_coarse) + abs(mapped - mapped_coarse)
    bound += 1e-14 * (abs(value) + 1.0)  # floor for exactly-matching sides
    return ReparamCheckResult(
        value=value, mapped_value=mapped, discrepancy=discrepancy, error_bound=bound
    )
