import gc
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cell_centers,
    midpoint_min_fraction,
    partition_additivity_check,
    random_probs,
    reparametrization_check,
)

from effnum import (
    CountingFunction,
    Grid,
    GridWaveFunction,
    InvalidInput,
    OrthonormalBasis,
    RefinementProblem,
    SectorFamily,
    SpectralDensityPair,
    constant_refinement_problem,
    effective_volume,
    interval_refinement_problem,
    refine_sequence,
    relative_mu_continuum,
    riemann_sum,
)
from effnum import continuum, io
from effnum.counting import BLOCK, _fresh

MINIMAL = CountingFunction.minimal()
HALF = CountingFunction.canonical(0.5)

SIGMA, CENTER = 0.1, 0.413


def gaussian_intensity(x: np.ndarray) -> np.ndarray:
    return np.exp(-((x - CENTER) ** 2) / (2.0 * SIGMA**2))


def uniform_state(cells: int = 8, spacing: float = 0.25) -> GridWaveFunction:
    grid = Grid(shape=(cells,), spacing=(spacing,))
    value = math.sqrt(1.0 / grid.total_volume)
    return GridWaveFunction(grid, np.full(cells, value, dtype=complex))


def half_box_state(cells: int = 8, spacing: float = 0.25) -> GridWaveFunction:
    grid = Grid(shape=(cells,), spacing=(spacing,))
    values = np.zeros(cells, dtype=complex)
    values[: cells // 2] = 1.0
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.cell_volume))
    return GridWaveFunction(grid, values)


def gaussian_state(cells: int) -> GridWaveFunction:
    grid = Grid(shape=(cells,), spacing=(1.0 / cells,))
    values = np.sqrt(gaussian_intensity(cell_centers(grid)[:, 0])).astype(complex)
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.cell_volume))
    return GridWaveFunction(grid, values)


def gaussian_pair(cells: int, lo: float = 1.0, hi: float = 8.0) -> SpectralDensityPair:
    grid = Grid(shape=(cells,), spacing=((hi - lo) / cells,), origin=(lo,))
    x = cell_centers(grid)[:, 0]
    dens = np.exp(-((x - 3.0) ** 2) / 2.0)
    p = dens / (dens.sum() * grid.cell_volume)
    eta = np.full(cells, 1.0 / (hi - lo))
    eta = eta / (eta.sum() * grid.cell_volume)
    return SpectralDensityPair.from_grid(grid, p, eta)


class TestEffectiveVolume:
    def test_uniform_state_fills_the_box(self):
        psi = uniform_state()
        for c in (MINIMAL, HALF, CountingFunction.canonical(0.2)):
            assert effective_volume(psi, c) == psi.grid.total_volume

    def test_half_box_state_fills_half(self):
        psi = half_box_state()
        assert effective_volume(psi, MINIMAL) == psi.grid.total_volume / 2.0

    def test_gaussian_against_finer_oracle(self):
        psi = gaussian_state(2048)
        value = effective_volume(psi, MINIMAL)
        oracle = midpoint_min_fraction(gaussian_intensity, 0.0, 1.0, 20480)
        assert abs(value - oracle) / oracle < 1e-6

    def test_norm_violation_rejected(self):
        grid = Grid(shape=(4,), spacing=(1.0,))
        with pytest.raises(InvalidInput):
            GridWaveFunction(grid, np.ones(4, dtype=complex))

    def test_volume_bounds(self):
        psi = gaussian_state(512)
        value = effective_volume(psi, MINIMAL)
        assert 0.0 < value <= psi.grid.total_volume

    def test_density_is_the_read_only_squared_modulus(self):
        psi = gaussian_state(64)
        assert np.array_equal(psi.density, np.abs(psi.values) ** 2)
        with pytest.raises(ValueError):
            psi.density[0] = 0.0

    def test_the_density_is_stored_once(self):
        # the complex values' copy is 2x the density's bytes and the density
        # 1x; a copy of the density as well made the peak 4.0x
        n = 2**18
        grid, values = Grid(shape=(n,), spacing=(1.0 / n,)), np.ones(n, dtype=complex)
        GridWaveFunction(grid, values)  # warm-up: first-use imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            GridWaveFunction(grid, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * n * np.dtype(float).itemsize + 2**14  # a few objects' bytes

    def test_the_kernel_sees_one_block_at_a_time(self):
        sizes = []

        def kernel(w):
            sizes.append(w.size)
            return np.minimum(w, 1.0)

        psi = uniform_state(cells=2**17, spacing=2.0**-17)
        assert effective_volume(psi, CountingFunction.from_callable(kernel)) == 1.0
        assert max(sizes) <= BLOCK and sum(sizes) == 2**17

    def test_volume_equals_the_jordan_content_of_the_density(self):
        # V times the fraction against the uniform eta = 1/V, from the state's own density
        grid = Grid(shape=(4, 8, 2), spacing=(0.5, 0.25, 0.75), origin=(1.0, 0.0, -2.0))
        values = np.random.default_rng(3).normal(size=64) * (1 + 0.5j)
        psi = GridWaveFunction(grid, values / math.sqrt(np.sum(np.abs(values) ** 2)
                                                       * grid.cell_volume))
        volume = grid.total_volume
        sd = SpectralDensityPair.from_grid(grid, psi.density, np.full(64, 1.0 / volume))
        for c in (MINIMAL, HALF):
            assert relative_mu_continuum(sd, c) * volume == effective_volume(psi, c)
        tanh = CountingFunction.from_callable(lambda w: np.tanh(w))
        assert relative_mu_continuum(sd, tanh) * volume == pytest.approx(
            effective_volume(psi, tanh), rel=1e-15)


@pytest.mark.parametrize("build", [
    lambda: GridWaveFunction(Grid(shape=(2,), spacing=(1.0,)), np.array([math.nan, 1.0])),
    lambda: SectorFamily.from_grid(Grid(shape=(2,), spacing=(0.5,)),
                                   [(np.array([math.nan, 1.0]), np.ones(2))]),
    lambda: OrthonormalBasis(np.full((2, 2), math.nan)),
], ids=["grid-norm", "sector-totals", "basis-orthonormality"])
def test_tolerance_checks_reject_nan(build):
    with pytest.raises(InvalidInput):
        build()


class TestGrid:
    def test_row_major_centers_in_2d(self):
        grid = Grid(shape=(2, 3), spacing=(1.0, 0.5), origin=(0.0, 10.0))
        centers = cell_centers(grid)
        assert centers.shape == (6, 2)
        assert centers[0].tolist() == [0.5, 10.25]
        assert centers[1].tolist() == [0.5, 10.75]   # last axis fastest
        assert centers[3].tolist() == [1.5, 10.25]

    def test_dimension_cap(self):
        with pytest.raises(InvalidInput):
            Grid(shape=(2, 2, 2, 2), spacing=(1.0,) * 4)

    @pytest.mark.parametrize("cells", [4.0, 2.5, "4", True])
    def test_cell_counts_must_be_integers(self, cells):
        with pytest.raises(InvalidInput, match="cell count must be an integer"):
            Grid(shape=(4, cells), spacing=(1.0, 1.0))

    def test_positive_spacing_required(self):
        with pytest.raises(InvalidInput):
            Grid(shape=(4,), spacing=(0.0,))

    def test_volumes(self):
        grid = Grid(shape=(4, 2), spacing=(0.5, 0.25))
        assert grid.cell_volume == 0.125
        assert grid.total_volume == 1.0
        assert grid.ncells == 8


class TestRelativeMu:
    def test_matching_densities_give_unity(self):
        sd = gaussian_pair(256)
        matched = SpectralDensityPair.from_grid(sd.grid, sd.p, sd.p)
        assert relative_mu_continuum(matched, MINIMAL) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_eta_matches_jordan_content_exactly(self):
        # V times the fraction against eta = 1/V is the state's effective volume
        grid = Grid(shape=(64,), spacing=(2.0 / 64,))
        x = cell_centers(grid)[:, 0]
        dens = 1.0 + 0.5 * np.sin(3.0 * x)
        psi = GridWaveFunction(grid, np.sqrt(dens / (dens.sum() * grid.cell_volume)))
        volume = grid.total_volume
        sd = SpectralDensityPair.from_grid(grid, psi.density, np.full(64, 1.0 / volume))
        for c in (MINIMAL, HALF):
            assert relative_mu_continuum(sd, c) * volume == effective_volume(psi, c)

    def test_triangular_profile_against_finer_oracle(self):
        def value_at(cells: int) -> float:
            grid = Grid(shape=(cells,), spacing=(1.0 / cells,))
            x = cell_centers(grid)[:, 0]
            p = 2.0 * x
            p = p / (p.sum() * grid.cell_volume)
            eta = np.full(cells, 1.0)
            sd = SpectralDensityPair.from_grid(grid, p, eta)
            return relative_mu_continuum(sd, MINIMAL)

        coarse = value_at(2048)
        fine = value_at(20480)
        assert abs(coarse - fine) / fine < 1e-6

    def test_minimal_kernel_is_smallest(self):
        rng = np.random.default_rng(71)
        alphas = np.arange(1, 11) / 10.0
        for _ in range(10):
            cells = 128
            grid = Grid(shape=(cells,), spacing=(1.0 / cells,))
            p = rng.gamma(1.0, size=cells)
            p = p / (p.sum() * grid.cell_volume)
            eta = rng.uniform(0.5, 1.5, size=cells)
            eta = eta / (eta.sum() * grid.cell_volume)
            sd = SpectralDensityPair.from_grid(grid, p, eta)
            floor = relative_mu_continuum(sd, MINIMAL)
            assert 0.0 < floor <= 1.0 + 1e-12
            for a in alphas:
                c = CountingFunction.canonical(a)
                assert floor <= relative_mu_continuum(sd, c) + 1e-12

    def test_strictly_smaller_than_one_when_densities_differ(self):
        sd = gaussian_pair(256)
        assert relative_mu_continuum(sd, MINIMAL) < 1.0 - 1e-3

    def test_positive_probability_off_support_rejected(self):
        grid = Grid(shape=(8,), spacing=(0.125,))
        eta = np.array([2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        p = np.full(8, 1.0)
        with pytest.raises(InvalidInput):
            SpectralDensityPair.from_grid(grid, p, eta)

    def test_normalization_enforced(self):
        grid = Grid(shape=(8,), spacing=(0.125,))
        eta = np.full(8, 1.0)
        with pytest.raises(InvalidInput):
            SpectralDensityPair.from_grid(grid, 2.0 * eta, eta)


class TestJordanContent:
    # the effective Jordan content of a grid region weighted by a density is
    # the effective volume of a wave function with that density

    def test_uniform_density_returns_the_volume(self):
        psi = uniform_state(32, 0.125)
        for c in (MINIMAL, HALF):
            assert effective_volume(psi, c) == psi.grid.total_volume

    def test_half_support_indicator(self):
        psi = half_box_state(32, 1.0 / 32)
        assert effective_volume(psi, MINIMAL) == 0.5

    def test_triangular_orders_and_matches_oracle(self):
        def values(cells):
            grid = Grid(shape=(cells,), spacing=(1.0 / cells,))
            x = cell_centers(grid)[:, 0]
            p = 2.0 * x
            psi = GridWaveFunction(grid, np.sqrt(p / (p.sum() * grid.cell_volume)))
            return effective_volume(psi, MINIMAL), effective_volume(psi, HALF)

        v_min, v_half = values(2048)
        assert v_half >= v_min
        fine_min, fine_half = values(20480)
        assert abs(v_min - fine_min) / fine_min < 1e-6
        # sqrt kernel on a density vanishing at the edge converges at
        # O(h^1.5) (derivative singularity), hence the looser bound
        assert abs(v_half - fine_half) / fine_half < 1e-4

    @pytest.mark.filterwarnings("error")
    def test_grid_with_an_overflowing_cell_volume_is_rejected_without_a_warning(self):
        grid = Grid(shape=(2, 2), spacing=(1e200, 1e200))
        assert grid.cell_volume == math.inf
        with pytest.raises(InvalidInput, match="total volume must be finite"):
            GridWaveFunction(grid, np.full(4, 0.5, dtype=complex))


def test_riemann_sum_that_overflows_is_invalid_input():
    # math.fsum raises OverflowError on it; the exact reduction reports it
    with pytest.raises(InvalidInput, match="overflow"):
        riemann_sum(np.array([1e308, 1e308]), 1.0)


def test_riemann_sum_of_both_infinities_is_invalid_input():
    # math.fsum raises ValueError on -inf + inf
    with pytest.raises(InvalidInput, match="undefined"):
        riemann_sum(np.array([np.inf, -np.inf]), 1.0)


class TestPartitionAdditivity:
    def test_symmetric_cut_splits_evenly(self):
        grid = Grid(shape=(64,), spacing=(1.0 / 64,))
        x = cell_centers(grid)[:, 0]
        dens = np.exp(-((x - 0.5) ** 2) / 0.02)
        p = dens / (dens.sum() * grid.cell_volume)
        eta = np.full(64, 1.0)
        sd = SpectralDensityPair.from_grid(grid, p, eta)
        result = partition_additivity_check(sd, x < 0.5, MINIMAL)
        assert result.gap <= 1e-12
        assert result.fractions[0] == pytest.approx(0.5, abs=1e-12)

    def test_probability_free_part_still_balances(self):
        grid = Grid(shape=(32,), spacing=(1.0 / 32,))
        x = cell_centers(grid)[:, 0]
        p = np.where(x < 0.5, 4.0 * x, 0.0)
        p = p / (p.sum() * grid.cell_volume)
        eta = np.full(32, 1.0)
        sd = SpectralDensityPair.from_grid(grid, p, eta)
        result = partition_additivity_check(sd, x < 0.5, MINIMAL)
        assert result.gap <= 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            cells = int(rng.integers(16, 257))
            grid = Grid(shape=(cells,), spacing=(1.0 / cells,))
            p = rng.gamma(1.0, size=cells)
            p = p / (p.sum() * grid.cell_volume)
            eta = rng.uniform(0.2, 2.0, size=cells)
            eta = eta / (eta.sum() * grid.cell_volume)
            sd = SpectralDensityPair.from_grid(grid, p, eta)
            cut = np.zeros(cells, dtype=bool)
            cut[: int(rng.integers(1, cells))] = True
            for c in (MINIMAL, HALF):
                assert partition_additivity_check(sd, cut, c).gap <= 1e-12

    def test_empty_part_rejected(self):
        sd = gaussian_pair(32)
        with pytest.raises(InvalidInput):
            partition_additivity_check(sd, np.zeros(32, dtype=bool), MINIMAL)


class TestMixedSpectra:
    def test_single_sector_reduces_exactly(self):
        sd = gaussian_pair(128)
        family = SectorFamily.from_grid(sd.grid, [(sd.p, sd.eta)])
        assert relative_mu_continuum(family, MINIMAL) == relative_mu_continuum(sd, MINIMAL)

    def test_two_identical_halves_match_single_sector(self):
        sd = gaussian_pair(128)
        family = SectorFamily.from_grid(
            sd.grid, [(sd.p / 2.0, sd.eta / 2.0), (sd.p / 2.0, sd.eta / 2.0)]
        )
        assert relative_mu_continuum(family, MINIMAL) == relative_mu_continuum(sd, MINIMAL)

    def test_spin_half_profile_against_finer_oracle(self):
        def value_at(cells: int, library: bool) -> float:
            h = 1.0 / cells
            x = (np.arange(cells) + 0.5) * h
            up = np.exp(-((x - 0.3) ** 2) / 0.02)
            down = np.exp(-((x - 0.7) ** 2) / 0.08)
            p_up = 0.7 * up / (up.sum() * h)
            p_down = 0.3 * down / (down.sum() * h)
            eta_up = np.full(cells, 0.7)
            eta_down = np.full(cells, 0.3)
            if library:
                grid = Grid(shape=(cells,), spacing=(h,))
                family = SectorFamily.from_grid(
                    grid, [(p_up, eta_up), (p_down, eta_down)]
                )
                return relative_mu_continuum(family, MINIMAL)
            total = 0.0
            for p, eta in ((p_up, eta_up), (p_down, eta_down)):
                total += float(np.sum(np.minimum(p, eta)) * h)
            return total

        value = value_at(2048, library=True)
        oracle = value_at(20480, library=False)
        assert abs(value - oracle) / oracle < 1e-6

    def test_sector_totals_validated(self):
        grid = Grid(shape=(8,), spacing=(0.125,))
        eta = np.full(8, 1.0)
        with pytest.raises(InvalidInput):
            SectorFamily.from_grid(grid, [(eta, eta), (eta, eta)])


class TestReparametrization:
    def test_identity_map_is_exact(self):
        sd = gaussian_pair(256)
        centers = cell_centers(sd.grid)[:, 0]
        source = Grid(shape=(256,), spacing=sd.grid.spacing, origin=sd.grid.origin)
        result = reparametrization_check(sd, centers, np.ones(256), source, MINIMAL)
        assert result.discrepancy == 0.0
        assert result.passed

    def test_linear_map_on_matching_grids(self):
        cells = 128
        target = Grid(shape=(cells,), spacing=(2.0 / cells,))
        x = cell_centers(target)[:, 0]
        dens = np.exp(-((x - 1.0) ** 2) / 0.1)
        p = dens / (dens.sum() * target.cell_volume)
        eta = np.full(cells, 0.5)
        sd = SpectralDensityPair.from_grid(target, p, eta)
        source = Grid(shape=(cells,), spacing=(1.0 / cells,))
        t = cell_centers(source)[:, 0]
        result = reparametrization_check(sd, 2.0 * t, np.full(cells, 2.0), source, MINIMAL)
        assert result.discrepancy < 1e-10
        assert result.passed

    def test_cubic_map_on_gaussian_fixture(self):
        sd = gaussian_pair(1024)
        source = Grid(shape=(1024,), spacing=(1.0 / 1024,), origin=(1.0,))
        t = cell_centers(source)[:, 0]
        result = reparametrization_check(sd, t**3, 3.0 * t**2, source, MINIMAL)
        assert result.passed
        assert result.discrepancy < result.error_bound

    def test_non_monotone_map_rejected(self):
        sd = gaussian_pair(64)
        source = Grid(shape=(64,), spacing=(1.0 / 64,), origin=(1.0,))
        t = cell_centers(source)[:, 0]
        with pytest.raises(InvalidInput):
            reparametrization_check(sd, np.sin(20 * t), np.ones(64), source, MINIMAL)

    def test_negative_derivative_rejected(self):
        sd = gaussian_pair(64)
        source = Grid(shape=(64,), spacing=(1.0 / 64,), origin=(1.0,))
        t = cell_centers(source)[:, 0]
        with pytest.raises(InvalidInput):
            reparametrization_check(sd, t, -np.ones(64), source, MINIMAL)


class TestRefinement:
    def test_constant_problem_extrapolates_to_itself(self):
        problem = constant_refinement_problem(np.array([1.5, 0.5]))
        result = refine_sequence(problem, 5, MINIMAL)
        ratios = [row.ratio for row in result.rows]
        assert all(r == ratios[0] for r in ratios)
        assert result.extrapolated == pytest.approx(ratios[0], abs=1e-12)

    def test_half_box_is_exact_at_every_level(self):
        problem = interval_refinement_problem(
            lambda x: (x < 0.5).astype(float), (0.0, 1.0), 8
        )
        result = refine_sequence(problem, 5, MINIMAL)
        for row in result.rows:
            assert row.ratio == 0.5
        assert result.extrapolated == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_differences_shrink_monotonically(self):
        problem = interval_refinement_problem(gaussian_intensity, (0.0, 1.0), 128)
        result = refine_sequence(problem, 5, MINIMAL)
        ratios = [row.ratio for row in result.rows]
        diffs = [abs(a - b) for a, b in zip(ratios, ratios[1:])]
        assert all(later < earlier for earlier, later in zip(diffs, diffs[1:]))
        assert result.residual < diffs[-1]

    @pytest.mark.parametrize("block", [BLOCK, 1000], ids=["BLOCK", "1000"])
    @pytest.mark.parametrize("kind", ["gaussian-1d", "half-box-1d"])
    def test_a_level_is_the_whole_array_formula_bit_for_bit(self, monkeypatch, kind, block):
        # 3 base cells: the levels are 3 * 2**(k-1) cells, never a multiple of the block
        monkeypatch.setattr(continuum, "BLOCK", block)
        doc = {"kind": kind, "box": [-0.25, 1.5], "center": 0.61, "sigma": 0.07, "base_cells": 3}
        problem, _ = io.PROBLEM_KINDS[kind](doc)
        if kind == "gaussian-1d":
            def intensity(x):
                return np.exp(-((x - 0.61) ** 2) / (2.0 * 0.07 * 0.07))
        else:
            def intensity(x):
                return (x < 0.5 * (-0.25 + 1.5)).astype(float)
        for k in range(1, 13):
            m = 3 * 2 ** (k - 1)
            vals = intensity(-0.25 + (np.arange(m) + 0.5) * (1.75 / m))
            assert problem.weights(k).tobytes() == (m * (vals / np.sum(vals))).tobytes(), k

    def test_a_level_holds_about_its_array(self):
        # the whole-array formula held x, the intensity and two copies of the
        # level: 3.0 times its array
        doc = {"kind": "gaussian-1d", "box": [0.0, 1.0], "center": 0.4, "sigma": 0.1,
               "base_cells": 2}
        problem, _ = io.PROBLEM_KINDS["gaussian-1d"](doc)
        problem.weights(3)  # warm-up: first-use caches
        gc.collect()
        tracemalloc.start()
        try:
            level = problem.weights(18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert level.nbytes == 2 * 2**20 and peak < 2 * level.nbytes, peak / level.nbytes

    def test_a_level_is_dropped_before_the_next_is_built(self):
        levels = []

        def weights(k):
            assert all(level() is None for level in levels), k
            arr = _fresh(np.ones(4 * k))  # kept by the level's WeightVector, not copied
            levels.append(weakref.ref(arr))
            return arr

        problem = RefinementProblem(weights, lambda k: math.ldexp(1.0, 1 - k))
        assert [row.m_count for row in refine_sequence(problem, 4, MINIMAL).rows] == [4, 8, 12, 16]

    def test_cell_cap_is_checked_before_any_level_is_built(self):
        sampled = []

        def intensity(x):
            sampled.append(x.size)
            return np.ones_like(x)

        problem = interval_refinement_problem(intensity, (0.0, 1.0), 8)
        with pytest.raises(InvalidInput, match="above the cap"):
            refine_sequence(problem, 80, MINIMAL)
        assert sampled == []
        with pytest.raises(InvalidInput, match="above the cap"):
            problem.weights(80)

    def test_spacing_cap_is_checked_before_any_level_is_built(self):
        constant = constant_refinement_problem(np.array([1.5, 0.5]))
        built = []

        def weights(k: int):
            built.append(k)
            return constant.weights(k)

        problem = RefinementProblem(weights, constant.spacing)
        # base spacing 1: level 1023 has the smallest normal spacing, 1024 a subnormal one
        assert problem.spacing(1023) == sys.float_info.min
        for levels in (1024, 1100, 10**9, 10**400):
            with pytest.raises(InvalidInput, match="below the cap"):
                refine_sequence(problem, levels, MINIMAL)
        assert built == []

    def test_hand_built_problem_with_a_subnormal_finest_spacing_is_rejected(self):
        built = []

        def weights(k: int) -> np.ndarray:
            built.append(k)
            return np.ones(2)

        # levels 1 and 2 have normal spacings, level 3 the subnormal 2**-1023
        problem = RefinementProblem(weights, lambda k: math.ldexp(1.0, -1020 - k))
        assert problem.spacing(2) == sys.float_info.min
        with pytest.raises(InvalidInput, match="below the cap"):
            refine_sequence(problem, 3, MINIMAL)
        assert built == []

    @pytest.mark.parametrize("base_spacing", [0.0, -1.0])
    def test_non_positive_spacing_is_rejected(self, base_spacing):
        problem = constant_refinement_problem(np.array([1.0]), base_spacing)
        with pytest.raises(InvalidInput, match="below the cap"):
            refine_sequence(problem, 3, MINIMAL)

    def test_interval_spacing_cap_covers_a_tiny_box(self):
        problem = interval_refinement_problem(np.ones_like, (0.0, 1e-305), 8)
        with pytest.raises(InvalidInput, match="below the cap"):
            refine_sequence(problem, 20, MINIMAL)

    def test_too_few_levels_rejected(self):
        problem = constant_refinement_problem(np.array([1.0]))
        with pytest.raises(InvalidInput):
            refine_sequence(problem, 2, MINIMAL)

    @given(
        sizes=st.lists(st.integers(1, 16), min_size=3, max_size=20),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([1.0, 0.5, 0.2]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_extrapolation_is_the_polyfit_intercept_over_the_window(self, sizes, seed, alpha):
        rng = np.random.default_rng(seed)
        weights = [m * random_probs(rng, m) for m in sizes]
        problem = RefinementProblem(lambda k: weights[k - 1], lambda k: math.ldexp(1.0, 1 - k))
        result = refine_sequence(problem, len(sizes), CountingFunction.canonical(alpha))
        window = max(3, math.ceil(len(sizes) / 2))
        assert result.window == window
        x = [row.spacing for row in result.rows][-window:]
        y = [row.ratio for row in result.rows][-window:]
        intercept = np.polyfit(x, y, 1)[1]
        assert result.extrapolated == pytest.approx(intercept, rel=1e-12)
