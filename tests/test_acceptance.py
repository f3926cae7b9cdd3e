"""Acceptance suite: one test per release criterion.

Each test enforces its criterion at the stated tolerance (and runtime
budget where one applies) and prints a PASS line; run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion report.
"""

import math
import time

import numpy as np
import pytest
from oracles import (
    cell_centers,
    dyadic_weights,
    jacobi_hermitian,
    midpoint_min_fraction,
    partition_additivity_check,
    random_density,
    random_probs,
    random_pure,
    random_unitary,
    reparametrization_check,
    superadditivity_gap,
)

from effnum import (
    BipartiteStructure,
    CountingFunction,
    DensityMatrix,
    Grid,
    GridWaveFunction,
    OrthogonalDecomposition,
    ProbabilityVector,
    PureState,
    SectorFamily,
    SpectralDensityPair,
    WeightVector,
    concat,
    dfd_gamma_scan,
    effective_volume,
    effnum,
    effnum_min,
    empirical_probs,
    hermitian_eigen,
    interval_refinement_problem,
    mu_entanglement,
    partial_trace,
    plugin_mu_estimate,
    quantum_effnum,
    refine_sequence,
    relative_mu_continuum,
    sample_outcomes,
    subspace_probs,
    weights_from_probs,
)

MINIMAL = CountingFunction.minimal()
ALPHAS = [CountingFunction.canonical(a) for a in np.arange(1, 11) / 10.0]


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_minimality_of_the_star_kernel():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        n = int(rng.integers(2, 65))
        w = WeightVector(n * random_probs(rng, n))
        floor = effnum_min(w)
        for c in ALPHAS:
            assert floor <= effnum(w, c) + 1e-12
    for _ in range(1_000):
        n = int(rng.integers(2, 17))
        rho = DensityMatrix(random_density(rng, n))
        floor = quantum_effnum(rho, MINIMAL)
        for c in ALPHAS:
            assert floor <= quantum_effnum(rho, c) + 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, f"minimality ({elapsed:.1f}s)")


def test_02_additivity_discrete_and_continuum():
    start = time.monotonic()
    rng = np.random.default_rng(202)

    # discrete concatenation: exact on dyadic weights with the minimal
    # kernel; canonical kernels round irrational values, so two correctly
    # rounded sums may differ in the final ulp
    for _ in range(1_000):
        w1 = WeightVector(dyadic_weights(rng, int(rng.integers(1, 33))))
        w2 = WeightVector(dyadic_weights(rng, int(rng.integers(1, 33))))
        joined = concat(w1, w2)
        assert effnum_min(joined) == effnum_min(w1) + effnum_min(w2)
        for c in (CountingFunction.canonical(0.5),):
            lhs = effnum(joined, c)
            rhs = effnum(w1, c) + effnum(w2, c)
            assert abs(lhs - rhs) <= 1e-13

    # continuum partition additivity
    for _ in range(1_000):
        cells = int(rng.integers(16, 257))
        grid = Grid(shape=(cells,), spacing=(1.0 / cells,))
        p = rng.gamma(1.0, size=cells)
        p = p / (p.sum() * grid.cell_volume)
        eta = rng.uniform(0.2, 2.0, size=cells)
        eta = eta / (eta.sum() * grid.cell_volume)
        sd = SpectralDensityPair.from_grid(grid, p, eta)
        cut = np.zeros(cells, dtype=bool)
        cut[: int(rng.integers(1, cells))] = True
        result = partition_additivity_check(sd, cut, MINIMAL)
        assert result.gap <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(2, f"additivity ({elapsed:.1f}s)")


def test_03_superadditivity_of_product_distributions():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        p = ProbabilityVector(random_probs(rng, int(rng.integers(1, 17))))
        q = ProbabilityVector(random_probs(rng, int(rng.integers(1, 17))))
        alpha = float(rng.uniform(0.05, 1.0))
        assert superadditivity_gap(p, q, alpha) >= -1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"superadditivity ({elapsed:.1f}s)")


def test_04_schmidt_symmetry_of_entanglement():
    rng = np.random.default_rng(404)
    for trial in range(1_000):
        dim_a = int(rng.integers(2, 9))
        dim_b = int(rng.integers(2, 6))
        if trial % 3 == 0 and dim_a == dim_b:
            dim_b = dim_a + 1 if dim_a < 5 else dim_a - 1
        bp = BipartiteStructure(dim_a, dim_b)
        psi = PureState(random_pure(rng, bp.dim))
        # count each reduction's spectrum, at the Schmidt scale k, on its own
        k = min(dim_a, dim_b)
        joint = DensityMatrix.from_pure(psi)
        a_side, b_side = (
            effnum_min(WeightVector(k * partial_trace(joint, bp, keep).spectrum[:k]))
            for keep in "AB"
        )
        assert abs(a_side - b_side) <= 1e-9
        shared = mu_entanglement(psi, bp, MINIMAL)
        assert abs(a_side - shared) <= 1e-9
        assert abs(b_side - shared) <= 1e-9
    report(4, "Schmidt symmetry")


def test_05_basis_independence_of_state_content():
    rng = np.random.default_rng(505)
    kernels = (MINIMAL, CountingFunction.canonical(0.5))
    for _ in range(500):
        n = int(rng.integers(2, 17))
        rho = DensityMatrix(random_density(rng, n))
        u = random_unitary(rng, n)
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
        for c in kernels:
            assert abs(quantum_effnum(rotated, c) - quantum_effnum(rho, c)) <= 1e-9
    report(5, "basis independence")


def test_06_analytic_golden_values():
    root_half = math.sqrt(0.5)
    bell = PureState(np.array([root_half, 0, 0, root_half], dtype=complex))
    assert mu_entanglement(bell, BipartiteStructure(2, 2), MINIMAL) == pytest.approx(
        2.0, abs=1e-10
    )

    for n in (2, 3, 7, 16):
        rho = DensityMatrix.maximally_mixed(n)
        assert quantum_effnum(rho, MINIMAL) == pytest.approx(float(n), abs=1e-10)

    tilted = PureState(np.array([math.sqrt(0.8), 0, 0, math.sqrt(0.2)], dtype=complex))
    assert mu_entanglement(tilted, BipartiteStructure(2, 2), MINIMAL) == pytest.approx(
        1.4, abs=1e-10
    )

    phi = np.outer(bell.amps, bell.amps.conj())
    werner = DensityMatrix(0.5 * phi + 0.5 * np.eye(4) / 4.0)
    assert quantum_effnum(werner, MINIMAL) == pytest.approx(2.5, abs=1e-10)

    grid = Grid(shape=(8,), spacing=(0.25,))
    values = np.zeros(8, dtype=complex)
    values[:4] = 1.0
    half_box = GridWaveFunction(grid, values)
    assert effective_volume(half_box, MINIMAL) == pytest.approx(
        grid.total_volume / 2.0, abs=1e-10
    )
    report(6, "analytic golden values")


SIGMA, CENTER = 0.1, 0.413


def gaussian_intensity(x: np.ndarray) -> np.ndarray:
    return np.exp(-((x - CENTER) ** 2) / (2.0 * SIGMA**2))


def test_07_continuum_convergence_of_effective_volume():
    start = time.monotonic()
    problem = interval_refinement_problem(gaussian_intensity, (0.0, 1.0), 128)
    result = refine_sequence(problem, 5, MINIMAL)
    ratios = [row.ratio for row in result.rows]
    diffs = [abs(a - b) for a, b in zip(ratios, ratios[1:])]
    assert all(later < earlier for earlier, later in zip(diffs, diffs[1:]))

    finest_cells = result.rows[-1].m_count
    oracle = midpoint_min_fraction(gaussian_intensity, 0.0, 1.0, 10 * finest_cells)
    assert abs(result.extrapolated - oracle) / oracle <= 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(7, f"continuum convergence ({elapsed:.2f}s)")


def test_08_reparametrization_invariance():
    cells = 1024
    lo, hi = 1.0, 8.0
    grid = Grid(shape=(cells,), spacing=((hi - lo) / cells,), origin=(lo,))
    x = cell_centers(grid)[:, 0]
    dens = np.exp(-((x - 3.0) ** 2) / 2.0)
    p = dens / (dens.sum() * grid.cell_volume)
    eta = np.full(cells, 1.0 / (hi - lo))
    eta = eta / (eta.sum() * grid.cell_volume)
    sd = SpectralDensityPair.from_grid(grid, p, eta)

    source = Grid(shape=(cells,), spacing=(1.0 / cells,), origin=(1.0,))
    t = cell_centers(source)[:, 0]
    result = reparametrization_check(sd, t**3, 3.0 * t**2, source, MINIMAL)
    assert result.discrepancy <= result.error_bound
    report(8, "reparametrization invariance")


def test_09_degree_of_freedom_density_scaling():
    for gamma, exact in ((0.0, True), (0.25, False), (0.5, False), (1.0, True)):
        family = []
        for j in range(4, 21):
            n = 2**j
            support = min(n, math.ceil(n ** (1.0 - gamma)))
            p = np.zeros(n)
            p[:support] = 1.0 / support
            family.append((n, ProbabilityVector(p)))
        result = dfd_gamma_scan(family, MINIMAL)
        if exact:
            assert result.gamma == gamma
        else:
            assert abs(result.gamma - gamma) <= 0.02
    report(9, "degree-of-freedom scaling")


def test_10_simulator_consistency():
    start = time.monotonic()
    psi = PureState(np.array([math.sqrt(0.5), 0.5, 0.5], dtype=complex))
    probs = subspace_probs(psi, OrthogonalDecomposition.singletons(3))

    hits = 0
    for s in range(50):
        counts = sample_outcomes(probs, 1_000_000, seed=9000 + s)
        est = plugin_mu_estimate(counts, c=MINIMAL)
        if abs(est.estimate - 2.5) <= 5.0 * est.stderr:
            hits += 1
    assert hits >= 48

    medians = []
    for t in (1_000, 10_000, 100_000, 1_000_000):
        errors = []
        for s in range(50):
            freqs = empirical_probs(sample_outcomes(probs, t, seed=7000 + s))
            errors.append(abs(effnum(weights_from_probs(freqs), MINIMAL) - 2.5))
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2] > medians[3]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(10, f"simulator consistency ({hits}/50, {elapsed:.1f}s)")


def test_11_eigensolver_contract():
    rng = np.random.default_rng(1111)
    for _ in range(1_000):
        n = int(rng.integers(2, 17))
        rho = DensityMatrix(random_density(rng, n))
        es = hermitian_eigen(rho)
        assert np.max(np.abs(es.reconstruct() - rho.mat)) <= 1e-9
        oracle_vals, _ = jacobi_hermitian(rho.mat)
        assert np.max(np.abs(es.eigenvalues - oracle_vals)) <= 1e-9
    report(11, "eigensolver contract")


def test_12_permutation_invariance_of_the_continuum():
    # every integral is the cell volume times an exact sum, so relabelling
    # the cells changes no bit of an effective volume or a fraction
    rng = np.random.default_rng(1212)
    kernels = (MINIMAL, CountingFunction.canonical(0.5))
    for _ in range(50):
        cells = int(rng.integers(600, 5_001))
        grid = Grid(shape=(cells,), spacing=(1.0 / cells,))
        order = rng.permutation(cells)

        dens = rng.gamma(0.5, size=cells)
        amps = np.sqrt(dens / (dens.sum() * grid.cell_volume)).astype(complex)
        psi, moved = GridWaveFunction(grid, amps), GridWaveFunction(grid, amps[order])
        for c in kernels:
            assert effective_volume(moved, c) == effective_volume(psi, c)

        # three sectors, each eta vanishing on a random set of cells and P with it
        sectors = []
        for mass in rng.dirichlet(np.ones(3)):
            eta = rng.uniform(0.2, 2.0, size=cells) * (rng.random(cells) < 0.8)
            p = rng.gamma(0.5, size=cells) * (eta > 0.0)
            sectors.append((mass * p / (p.sum() * grid.cell_volume),
                            mass * eta / (eta.sum() * grid.cell_volume)))
        family = SectorFamily.from_grid(grid, sectors)
        permuted = SectorFamily.from_grid(grid, [(p[order], eta[order]) for p, eta in sectors])
        for c in kernels:
            assert relative_mu_continuum(permuted, c) == relative_mu_continuum(family, c)

        p, eta = sectors[0]
        p, eta = p / p.sum() / grid.cell_volume, eta / eta.sum() / grid.cell_volume
        cut = rng.random(cells) < 0.5
        result = partition_additivity_check(SpectralDensityPair.from_grid(grid, p, eta), cut,
                                            MINIMAL)
        moved_result = partition_additivity_check(
            SpectralDensityPair.from_grid(grid, p[order], eta[order]), cut[order], MINIMAL)
        assert moved_result.value == result.value
        assert moved_result.fractions == result.fractions
    report(12, "permutation invariance of the continuum")
