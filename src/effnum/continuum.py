"""Continuum limits: effective volumes, spectral-density fractions, and
refinement/extrapolation drivers.

Every integral over cells here is one call of ``riemann_sum``, the
midpoint rule on hypercubic grids: a cell contributes its midpoint sample
times its volume.  That single convention keeps the additivity identity
for partitions of the support exact at finite resolution and makes
matched-sampling consistency relations hold bit-for-bit.

The central quantity is the relative uncertainty fraction

    F[P, eta] = sum_cells  eta * c(P / eta) * cellvol      in (0, 1]

for a probability density P and a spectral density eta sharing a support.
Uniform eta = 1/V turns V * F into an effective volume, which is also
available directly for wave functions on grids and for plain regions
carrying a probability density (effective Jordan content).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .counting import CountingFunction, WeightVector, effnum, tail_fit
from .errors import InvalidInput

GRID_NORM_TOL = 1e-8
SUPPORT_RTOL = 1e-14
OFF_SUPPORT_TOL = 1e-12
MAX_GRID_DIM = 3
MAX_REFINE_CELLS = 2**24  # cells of an interval problem's finest level
# A refinement's finest spacing is at least this, the smallest positive
# normal double; below it a level's spacing loses precision, then reads 0.
MIN_REFINE_SPACING = sys.float_info.min


@dataclass(frozen=True)
class Grid:
    """Hypercubic cell grid in up to three dimensions.

    ``shape`` holds the cell counts per axis, ``spacing`` the cell edge
    lengths.  Cell midpoints are at origin + (index + 1/2) * spacing and
    cells are enumerated row-major.
    """

    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...] | None = None

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        spacing = tuple(float(s) for s in self.spacing)
        if not 1 <= len(shape) <= MAX_GRID_DIM:
            raise InvalidInput(
                f"grids support 1..{MAX_GRID_DIM} dimensions, got {len(shape)}; "
                "supply explicit cell volumes for higher dimensions"
            )
        if len(spacing) != len(shape):
            raise InvalidInput("shape and spacing must have the same length")
        if any(s < 1 for s in shape) or any(h <= 0.0 for h in spacing):
            raise InvalidInput("cell counts must be >= 1 and spacings positive")
        origin = (0.0,) * len(shape) if self.origin is None else tuple(float(x) for x in self.origin)
        if len(origin) != len(shape):
            raise InvalidInput("origin must have one coordinate per dimension")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

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

    def centers(self) -> np.ndarray:
        """Cell midpoints as an (ncells, d) array, row-major."""
        axes = [
            self.origin[k] + (np.arange(self.shape[k]) + 0.5) * self.spacing[k]
            for k in range(self.d)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def riemann_sum(field: np.ndarray, vol: float | np.ndarray) -> float:
    """Midpoint-rule integral of per-cell samples: the sum of each sample
    times its cell's volume, ``vol`` being a grid's one cell volume or an
    explicit region's array of them."""
    return float(np.sum(field * vol))


@dataclass(frozen=True)
class GridWaveFunction:
    """Complex cell samples of a wave function, unit Riemann norm.

    ``density`` holds the per-cell probability density |psi|^2 that the
    norm check computes; every effective volume of the state reads it.
    """

    grid: Grid
    values: np.ndarray
    density: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.size != self.grid.ncells:
            raise InvalidInput(
                f"wave function has {vals.size} samples, grid has {self.grid.ncells} cells"
            )
        volume = self.grid.total_volume
        if not math.isfinite(volume):
            raise InvalidInput(f"grid total volume must be finite; got {volume!r}")
        vals = vals.ravel().copy()
        dens = np.abs(vals) ** 2
        norm = riemann_sum(dens, self.grid.cell_volume)
        if not abs(norm - 1.0) <= GRID_NORM_TOL:
            raise InvalidInput(
                f"Riemann norm must equal 1 within {GRID_NORM_TOL:g}; got {norm!r}"
            )
        vals.flags.writeable = False
        dens.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "density", dens)


def effective_volume(psi: GridWaveFunction, c: CountingFunction) -> float:
    """Effective volume occupied by the state: integral of c(V |psi|^2).

    The density and its norm check are the state's own, so each further
    kernel costs one kernel pass and one sum.
    """
    return riemann_sum(c(psi.grid.total_volume * psi.density), psi.grid.cell_volume)


def effective_jordan_content(
    region: "Grid | np.ndarray | Sequence[float]",
    p: np.ndarray,
    c: CountingFunction,
) -> float:
    """Effective volume of a region weighted by a probability density.

    ``region`` is a grid or an explicit array of cell volumes; ``p`` holds
    midpoint samples of a density with unit Riemann integral.  Returns the
    integral of c(V * p) where V is the region's total volume; uniform p
    gives V back for every kernel.  V must be finite.
    """
    if isinstance(region, Grid):
        vol, ncells, v = region.cell_volume, region.ncells, region.total_volume
    else:
        vol = np.asarray(region, dtype=float).ravel()
        if vol.size == 0 or not np.all(vol > 0.0):
            raise InvalidInput("cell volumes must be positive and non-empty")
        ncells = vol.size
        with np.errstate(over="ignore"):  # an overflowing total is rejected below
            v = riemann_sum(1.0, vol)
    if not math.isfinite(v):
        raise InvalidInput(f"region total volume must be finite; got {v!r}")
    p = np.asarray(p, dtype=float).ravel()
    if p.size != ncells:
        raise InvalidInput(f"density has {p.size} cells, region has {ncells}")
    if np.any(p < 0.0):
        raise InvalidInput("density samples must be non-negative")
    total = riemann_sum(p, vol)
    if not abs(total - 1.0) <= GRID_NORM_TOL:
        raise InvalidInput(f"density must integrate to 1 within {GRID_NORM_TOL:g}; got {total!r}")
    return riemann_sum(c(v * p), vol)


def _support_mask(eta: np.ndarray) -> np.ndarray:
    return eta >= SUPPORT_RTOL * float(np.max(eta))


def _relative_mu(p: np.ndarray, eta: np.ndarray, vol: float, c: CountingFunction) -> float:
    """Riemann sum of eta * c(p / eta) over the support cells of volume ``vol``."""
    mask = _support_mask(eta)
    return riemann_sum(eta[mask] * c(p[mask] / eta[mask]), vol)


@dataclass(frozen=True)
class SectorFamily:
    """Mixed discrete/continuous decomposition: one (P_m, eta_m) pair of
    midpoint samples per discrete sector on a shared grid.

    The totals sum over sectors to one: integral of sum_m eta_m = 1 and
    the same for P_m.  A sector's support is the set of cells with eta_m
    above 1e-14 of its maximum; P_m must vanish (within 1e-12) off it.
    """

    ps: tuple[np.ndarray, ...]
    etas: tuple[np.ndarray, ...]
    grid: Grid

    def __post_init__(self):
        ps = tuple(np.asarray(a, dtype=float).ravel().copy() for a in self.ps)
        etas = tuple(np.asarray(a, dtype=float).ravel().copy() for a in self.etas)
        if len(ps) == 0 or len(ps) != len(etas):
            raise InvalidInput("need matching non-empty P and eta sector lists")
        for m, (p, eta) in enumerate(zip(ps, etas)):
            if p.size != self.grid.ncells or eta.size != self.grid.ncells:
                raise InvalidInput(f"sector {m}: density samples must cover the grid's cells")
            if np.any(p < 0.0) or np.any(eta < 0.0):
                raise InvalidInput(f"sector {m}: density samples must be non-negative")
            if np.any(p[~_support_mask(eta)] > OFF_SUPPORT_TOL):
                raise InvalidInput(
                    f"sector {m}: probability density is positive on cells outside "
                    "the spectral support"
                )
        for name, arrs in (("P", ps), ("eta", etas)):
            total = math.fsum(riemann_sum(a, self.grid.cell_volume) for a in arrs)
            if not abs(total - 1.0) <= GRID_NORM_TOL:
                raise InvalidInput(
                    f"sector {name} densities must integrate to 1 in total; got {total!r}"
                )
        for arr in (*ps, *etas):
            arr.flags.writeable = False
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "etas", etas)

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


def mixed_relative_mu(sf: SectorFamily, c: CountingFunction) -> float:
    """Uncertainty fraction summed over discrete sectors."""
    return math.fsum(
        _relative_mu(p, eta, sf.grid.cell_volume, c) for p, eta in zip(sf.ps, sf.etas)
    )


def relative_mu_continuum(sd: SpectralDensityPair, c: CountingFunction) -> float:
    """Relative uncertainty fraction of the pair; in (0, 1], 1 iff P = eta."""
    return mixed_relative_mu(sd, c)


@dataclass(frozen=True)
class PartitionAdditivityResult:
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


@dataclass(frozen=True)
class ReparamCheckResult:
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

    centers = sd.grid.centers()[:, 0]
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


class RefinementProblem(NamedTuple):
    """A refinement family as two functions of the level k = 1, 2, ...:
    ``weights(k)`` builds level k's counting weights, one per block, and
    ``spacing(k)`` gives its regularization scale without building it."""

    weights: Callable[[int], np.ndarray]
    spacing: Callable[[int], float]


@dataclass(frozen=True)
class RefinementRow:
    level: int
    m_count: int
    spacing: float
    ratio: float


@dataclass(frozen=True)
class RefinementResult:
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
    the probability density (a wave function's |psi|^2, say); each level
    doubles the cell count, renormalizes the cell masses and converts
    them to counting weights.  A level of more than ``MAX_REFINE_CELLS``
    cells raises InvalidInput; ``spacing(k)`` applies that check without
    building level k.
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
        m = cells(k)
        x = lo + (np.arange(m) + 0.5) * spacing(k)
        vals = np.asarray(intensity(x), dtype=float)
        if np.any(vals < 0.0):
            raise InvalidInput("intensity samples must be non-negative")
        total = float(np.sum(vals))
        if total <= 0.0:
            raise InvalidInput("intensity vanishes on the whole box")
        return m * (vals / total)

    return RefinementProblem(weights, spacing)
