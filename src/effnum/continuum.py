"""Continuum limits: effective volumes, spectral-density fractions, and
refinement/extrapolation drivers.

Every integral over cells here is the midpoint rule on hypercubic grids:
the grid's cell volume times the exact sum of the midpoint samples
(:func:`~effnum.counting.exact_total`), as the discrete counts are summed.
A kernel integral applies its kernel inside that sum, one block of cells
at a time; ``riemann_sum`` integrates plain samples, a norm or a total.
That single convention keeps the additivity identity for partitions of
the support exact at finite resolution, makes matched-sampling consistency
relations hold bit-for-bit, and leaves every integral unchanged,
bit-for-bit, by a permutation of the cells.

The central quantity is the relative uncertainty fraction

    F[P, eta] = sum_cells  eta * c(P / eta) * cellvol      in (0, 1]

for a probability density P and a spectral density eta sharing a support,
summed over the sectors of a mixed spectrum.  Uniform eta = 1/V turns
V * F into the effective volume of a grid wave function.

A refinement scan holds one level at a time: an interval problem writes
level k's samples into one array, ``BLOCK`` midpoints at a time, scales it
into counting weights in place and hands it to its WeightVector, and
``refine_sequence`` drops level k before it builds level k + 1.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .counting import (BLOCK, CountingFunction, Frozen, WeightVector, _fresh, as_dim, effnum,
                       exact_total, tail_fit)
from .errors import InvalidInput

GRID_NORM_TOL = 1e-8
SUPPORT_RTOL = 1e-14
OFF_SUPPORT_TOL = 1e-12
MAX_GRID_DIM = 3
MAX_REFINE_CELLS = 2**24  # cells of an interval problem's finest level
# A refinement's finest spacing is at least this, the smallest positive
# normal double; below it a level's spacing loses precision, then reads 0.
MIN_REFINE_SPACING = sys.float_info.min


class Grid(Frozen):
    """Hypercubic cell grid in up to three dimensions.

    ``shape`` holds the cell counts per axis, ``spacing`` the cell edge
    lengths.  Cell midpoints are at origin + (index + 1/2) * spacing and
    cells are enumerated row-major.
    """

    def __init__(self, shape: Sequence[int], spacing: Sequence[float],
                 origin: Sequence[float] | None = None):
        shape = tuple(as_dim(s, "cell count") for s in shape)
        spacing = tuple(float(s) for s in spacing)
        if not 1 <= len(shape) <= MAX_GRID_DIM:
            raise InvalidInput(f"grids support 1..{MAX_GRID_DIM} dimensions, got {len(shape)}")
        if len(spacing) != len(shape):
            raise InvalidInput("shape and spacing must have the same length")
        if any(s < 1 for s in shape) or any(h <= 0.0 for h in spacing):
            raise InvalidInput("cell counts must be >= 1 and spacings positive")
        origin = (0.0,) * len(shape) if origin is None else tuple(float(x) for x in origin)
        if len(origin) != len(shape):
            raise InvalidInput("origin must have one coordinate per dimension")
        self._store(shape=shape, spacing=spacing, origin=origin)

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def ncells(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def total_volume(self) -> float:
        return math.prod(n * h for n, h in zip(self.shape, self.spacing))


def riemann_sum(field: np.ndarray, vol: float) -> float:
    """Midpoint-rule integral of per-cell samples: ``vol``, the grid's one
    cell volume, times the samples' exact sum (:func:`~effnum.counting.exact_total`)."""
    return vol * exact_total(np.ravel, field)


class GridWaveFunction(Frozen):
    """Complex cell samples of a wave function, unit Riemann norm.

    ``density`` holds the per-cell probability density |psi|^2 that the
    norm check computes; every effective volume of the state reads it.
    """

    def __init__(self, grid: Grid, values):
        vals = np.asarray(values, dtype=complex)
        if vals.ndim != 1:  # ravel returns a new object even for a 1-d array
            vals = vals.ravel()
        if vals.size != grid.ncells:
            raise InvalidInput(
                f"wave function has {vals.size} samples, grid has {grid.ncells} cells"
            )
        volume = grid.total_volume
        if not math.isfinite(volume):
            raise InvalidInput(f"grid total volume must be finite; got {volume!r}")
        dens = _fresh(np.abs(vals) ** 2)
        norm = riemann_sum(dens, grid.cell_volume)
        if not abs(norm - 1.0) <= GRID_NORM_TOL:
            raise InvalidInput(
                f"Riemann norm must equal 1 within {GRID_NORM_TOL:g}; got {norm!r}"
            )
        self._store(grid=grid, values=vals, density=dens)


def effective_volume(psi: GridWaveFunction, c: CountingFunction) -> float:
    """Effective volume occupied by the state: integral of c(V |psi|^2).

    The density and its norm check are the state's own, so each further
    kernel costs one blocked kernel sum.
    """
    volume = psi.grid.total_volume
    return psi.grid.cell_volume * exact_total(lambda d: c(volume * d), psi.density)


def _support_mask(eta: np.ndarray) -> np.ndarray:
    return eta >= SUPPORT_RTOL * float(np.max(eta))


def _relative_mu(p: np.ndarray, eta: np.ndarray, vol: float, c: CountingFunction) -> float:
    """Midpoint integral of eta * c(p / eta) over the support cells of volume ``vol``."""
    mask = _support_mask(eta)
    return vol * exact_total(lambda e, q: e * c(q / e), eta[mask], p[mask])


class SectorFamily(Frozen):
    """Mixed discrete/continuous decomposition: one (P_m, eta_m) pair of
    midpoint samples per discrete sector on a shared grid.

    The totals sum over sectors to one: integral of sum_m eta_m = 1 and
    the same for P_m.  A sector's support is the set of cells with eta_m
    above 1e-14 of its maximum; P_m must vanish (within 1e-12) off it.
    """

    def __init__(self, ps: Sequence[np.ndarray], etas: Sequence[np.ndarray], grid: Grid):
        ps = tuple(np.asarray(a, dtype=float).ravel() for a in ps)
        etas = tuple(np.asarray(a, dtype=float).ravel() for a in etas)
        if len(ps) == 0 or len(ps) != len(etas):
            raise InvalidInput("need matching non-empty P and eta sector lists")
        for m, (p, eta) in enumerate(zip(ps, etas)):
            if p.size != grid.ncells or eta.size != grid.ncells:
                raise InvalidInput(f"sector {m}: density samples must cover the grid's cells")
            if np.any(p < 0.0) or np.any(eta < 0.0):
                raise InvalidInput(f"sector {m}: density samples must be non-negative")
            if np.any(p[~_support_mask(eta)] > OFF_SUPPORT_TOL):
                raise InvalidInput(
                    f"sector {m}: probability density is positive on cells outside "
                    "the spectral support"
                )
        for name, arrs in (("P", ps), ("eta", etas)):
            total = math.fsum(riemann_sum(a, grid.cell_volume) for a in arrs)
            if not abs(total - 1.0) <= GRID_NORM_TOL:
                raise InvalidInput(
                    f"sector {name} densities must integrate to 1 in total; got {total!r}"
                )
        self._store(ps=ps, etas=etas, grid=grid)

    @classmethod
    def from_grid(cls, grid: Grid, sectors) -> "SectorFamily":
        """Build from (p_m, eta_m) pairs sampled on a common grid."""
        return cls(ps=tuple(p for p, _ in sectors), etas=tuple(e for _, e in sectors), grid=grid)

    @property
    def m_count(self) -> int:
        return len(self.ps)


class SpectralDensityPair(SectorFamily):
    """A one-sector family: matched midpoint samples of an outcome density
    P and a spectral density eta on a grid, each integrating to one."""

    @classmethod
    def from_grid(cls, grid: Grid, p, eta) -> "SpectralDensityPair":
        return cls(ps=(p,), etas=(eta,), grid=grid)

    @property
    def p(self) -> np.ndarray:
        return self.ps[0]

    @property
    def eta(self) -> np.ndarray:
        return self.etas[0]


def relative_mu_continuum(sf: SectorFamily, c: CountingFunction) -> float:
    """Relative uncertainty fraction summed over the family's sectors; in
    (0, 1], 1 iff P_m = eta_m in every sector.  A :class:`SpectralDensityPair`
    is a one-sector family."""
    return math.fsum(
        _relative_mu(p, eta, sf.grid.cell_volume, c) for p, eta in zip(sf.ps, sf.etas)
    )


class RefinementProblem(NamedTuple):
    """A refinement family as two functions of the level k = 1, 2, ...:
    ``weights(k)`` builds level k's counting weights, one per block, and
    ``spacing(k)`` gives its regularization scale without building it."""

    weights: Callable[[int], np.ndarray]
    spacing: Callable[[int], float]


class RefinementRow(NamedTuple):
    level: int
    m_count: int
    spacing: float
    ratio: float


class RefinementResult(NamedTuple):
    rows: tuple[RefinementRow, ...]
    extrapolated: float
    residual: float
    window: int
    fit_order = 1  # the fit is linear in the spacing


def refine_sequence(
    problem: RefinementProblem, levels: int, c: CountingFunction
) -> RefinementResult:
    """Drive a refinement family and extrapolate its fraction to zero spacing.

    Level k = 1..levels contributes the ratio F_k = effective count / m_count
    of its m_count weights ``problem.weights(k)`` at spacing h_k =
    ``problem.spacing(k)``; the limit is the intercept of a least-squares
    fit of F_k = F_inf + a * h_k over the last max(3, ceil(levels/2))
    levels (:func:`~effnum.counting.tail_fit`).  The reported residual is
    the largest misfit inside the window; treat a residual comparable to
    the level-to-level differences as a sign the model order is wrong.

    A finest spacing below ``MIN_REFINE_SPACING`` raises InvalidInput
    before level 1 is built.
    """
    if levels < 3:
        raise InvalidInput("need at least 3 refinement levels to extrapolate")
    finest = problem.spacing(levels)
    if not finest >= MIN_REFINE_SPACING:
        raise InvalidInput(
            f"refinement level {levels} would have spacing {finest:g}, "
            f"below the cap of {MIN_REFINE_SPACING:g} (the smallest normal double)"
        )
    rows = []
    for k in range(1, levels + 1):
        wv = WeightVector(problem.weights(k))
        rows.append(RefinementRow(level=k, m_count=wv.n, spacing=float(problem.spacing(k)),
                                  ratio=effnum(wv, c) / wv.n))
        del wv  # before level k + 1 is built
    extrapolated, _, residual, window = tail_fit([r.spacing for r in rows], [r.ratio for r in rows])
    return RefinementResult(
        rows=tuple(rows), extrapolated=extrapolated, residual=residual, window=window
    )


def constant_refinement_problem(weights, base_spacing: float = 1.0) -> RefinementProblem:
    """Family whose discretization is already converged: every level
    carries the same weights, checked as a WeightVector, and level k's
    spacing is base_spacing * 2**(1 - k), for any k."""
    arr = WeightVector(weights).w
    return RefinementProblem(lambda k: arr, lambda k: math.ldexp(base_spacing, 1 - k))


def interval_refinement_problem(
    intensity: Callable[[np.ndarray], np.ndarray],
    box: tuple[float, float],
    base_cells: int,
) -> RefinementProblem:
    """Dyadic refinement of a 1-d intensity profile on an interval.

    ``intensity`` returns non-negative midpoint samples proportional to
    the probability density (a wave function's |psi|^2, say).  It is
    applied to blocks of at most ``BLOCK`` midpoints at a time, never to a
    whole level, so it must be elementwise.  Each level doubles the cell
    count; ``weights(k)`` writes level k's samples into one array, which it
    renormalizes and converts to counting weights in place and hands to the
    WeightVector built from it (``_fresh``).  A level of more than
    ``MAX_REFINE_CELLS`` cells raises InvalidInput; ``spacing(k)`` applies
    that check without building level k.
    """
    lo, hi = float(box[0]), float(box[1])
    if hi <= lo:
        raise InvalidInput("box must have positive length")
    if base_cells < 2:
        raise InvalidInput("need at least 2 base cells")

    def cells(k: int) -> int:
        if base_cells > MAX_REFINE_CELLS >> (k - 1):
            raise InvalidInput(
                f"refinement level {k} would hold {base_cells} * 2**{k - 1} cells, "
                f"above the cap of {MAX_REFINE_CELLS}"
            )
        return base_cells * 2 ** (k - 1)

    def spacing(k: int) -> float:
        return (hi - lo) / cells(k)

    def weights(k: int) -> np.ndarray:
        m, h = cells(k), spacing(k)
        vals = np.empty(m)
        for start in range(0, m, BLOCK):
            block = vals[start:start + BLOCK]
            block[:] = intensity(lo + (np.arange(start, start + block.size) + 0.5) * h)
            if np.any(block < 0.0):
                raise InvalidInput("intensity samples must be non-negative")
        total = float(np.sum(vals))
        if total <= 0.0:
            raise InvalidInput("intensity vanishes on the whole box")
        vals /= total
        vals *= m  # the bits of m * (vals / total)
        return _fresh(vals)

    return RefinementProblem(weights, spacing)
