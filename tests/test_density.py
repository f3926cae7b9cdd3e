import json
import math

import numpy as np
import pytest
from conftest import FIXTURES
from oracles import (
    charpoly_eigvals_4x4,
    jacobi_hermitian,
    random_density,
    random_pure,
    random_unitary,
)

from effnum import (
    BipartiteStructure,
    CountingFunction,
    DensityMatrix,
    InvalidInput,
    InvariantViolation,
    PureState,
    WeightVector,
    effnum,
    hermitian_eigen,
    mu_entanglement,
    mu_entanglement_min,
    partial_trace,
    quantum_effnum,
    quantum_effnum_min,
    schmidt_weights,
)
from effnum.cli import main

MINIMAL = CountingFunction.minimal()


def bell_state() -> PureState:
    return PureState(np.array([math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)], dtype=complex))


def reduced_counts(psi: PureState, bp: BipartiteStructure, c) -> tuple[float, float]:
    """Reference entanglement counts of the two reductions, A kept and B
    kept: each reduced spectrum's k = min(dim_a, dim_b) largest entries
    counted as the weights k * rho_i."""
    k = min(bp.dim_a, bp.dim_b)
    joint = DensityMatrix.from_pure(psi)
    a, b = (effnum(WeightVector(k * partial_trace(joint, bp, keep).spectrum[:k]), c)
            for keep in "AB")
    return a, b


def werner_half() -> DensityMatrix:
    phi = np.outer(bell_state().amps, bell_state().amps.conj())
    return DensityMatrix(0.5 * phi + 0.5 * np.eye(4) / 4.0)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation):
            DensityMatrix(mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_finite_entries(self):
        mat = np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidInput, match="density matrix contains non-finite entries"):
            DensityMatrix(mat)

    def test_matrix_is_immutable(self):
        rho = DensityMatrix.maximally_mixed(3)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.0


class TestStoredSpectrum:
    def test_equals_hermitian_eigen_bit_for_bit(self):
        rng = np.random.default_rng(71)
        mats = [random_density(rng, int(rng.integers(2, 33))) for _ in range(20)]
        mats.append(DensityMatrix.from_pure(PureState(random_pure(rng, 6))).mat)
        mats.append(werner_half().mat)
        for mat in mats:
            rho = DensityMatrix(mat)
            assert np.array_equal(rho.spectrum, hermitian_eigen(rho).eigenvalues)
            assert np.all(np.diff(rho.spectrum) <= 0.0)

    def test_is_read_only(self):
        rho = werner_half()
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.0


class TestHermitianEigen:
    def test_diagonal_matrix_sorted_descending(self):
        rho = DensityMatrix(np.diag([0.1, 0.6, 0.3]).astype(complex))
        es = hermitian_eigen(rho)
        assert es.eigenvalues.tolist() == [0.6, 0.3, 0.1]

    def test_rank_one_example(self):
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        es = hermitian_eigen(rho)
        assert es.eigenvalues == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_against_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rho = DensityMatrix(random_density(rng, 4))
            ours = hermitian_eigen(rho).eigenvalues
            roots = charpoly_eigvals_4x4(rho.mat)
            assert np.max(np.abs(ours - roots)) < 1e-9

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 17))
            rho = DensityMatrix(random_density(rng, n))
            ours = hermitian_eigen(rho).eigenvalues
            theirs, _ = jacobi_hermitian(rho.mat)
            assert np.max(np.abs(ours - theirs)) < 1e-9

    def test_reconstruction_contract(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 17))
            rho = DensityMatrix(random_density(rng, n))
            es = hermitian_eigen(rho)
            assert np.max(np.abs(es.reconstruct() - rho.mat)) <= 1e-9

    def test_clamped_spectrum_is_normalized(self):
        rng = np.random.default_rng(17)
        rho = DensityMatrix(random_density(rng, 6))
        vals = hermitian_eigen(rho).eigenvalues
        assert np.all(vals >= 0.0)
        assert math.fsum(vals.tolist()) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_output(self):
        rng = np.random.default_rng(19)
        rho = DensityMatrix(random_density(rng, 5))
        a = hermitian_eigen(rho)
        b = hermitian_eigen(rho)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_phase_convention(self):
        rng = np.random.default_rng(23)
        rho = DensityMatrix(random_density(rng, 5))
        vecs = hermitian_eigen(rho).eigenvectors
        for j in range(5):
            col = vecs[:, j]
            first = next(x for x in col if abs(x) > 1e-12)
            assert abs(first.imag) < 1e-12
            assert first.real > 0.0

    def test_unitary_eigenvectors(self):
        rng = np.random.default_rng(29)
        rho = DensityMatrix(random_density(rng, 7))
        vecs = hermitian_eigen(rho).eigenvectors
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(7))) < 1e-10


class TestQuantumEffnum:
    def test_pure_state_counts_one(self):
        rng = np.random.default_rng(31)
        for n in (2, 5, 9):
            rho = DensityMatrix.from_pure(PureState(random_pure(rng, n)))
            assert quantum_effnum_min(rho) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_maximally_mixed_counts_everything(self, n):
        rho = DensityMatrix.maximally_mixed(n)
        for c in (MINIMAL, CountingFunction.canonical(0.4)):
            assert quantum_effnum(rho, c) == pytest.approx(float(n), abs=1e-10)

    def test_werner_spectrum_example(self):
        rho = werner_half()
        spectrum = hermitian_eigen(rho).eigenvalues
        assert spectrum == pytest.approx([0.625, 0.125, 0.125, 0.125], abs=1e-12)
        assert quantum_effnum_min(rho) == pytest.approx(2.5, abs=1e-10)

    def test_minimal_lower_bounds_canonical(self):
        rng = np.random.default_rng(37)
        alphas = np.arange(1, 11) / 10.0
        for _ in range(20):
            rho = DensityMatrix(random_density(rng, int(rng.integers(2, 13))))
            floor = quantum_effnum_min(rho)
            for a in alphas:
                assert floor <= quantum_effnum(rho, CountingFunction.canonical(a)) + 1e-12

    def test_basis_independence(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            rho = DensityMatrix(random_density(rng, n))
            u = random_unitary(rng, n)
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
            for c in (MINIMAL, CountingFunction.canonical(0.5)):
                assert abs(quantum_effnum(rotated, c) - quantum_effnum(rho, c)) < 1e-9

    def test_orthogonal_block_additivity(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            n1, n2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            f1 = float(rng.uniform(0.2, 0.8))
            f2 = 1.0 - f1
            rho1 = random_density(rng, n1)
            rho2 = random_density(rng, n2)
            combined = np.zeros((n1 + n2, n1 + n2), complex)
            combined[:n1, :n1] = f1 * rho1
            combined[n1:, n1:] = f2 * rho2
            rho = DensityMatrix(combined)
            n = n1 + n2
            for c in (MINIMAL, CountingFunction.canonical(0.5)):
                whole = quantum_effnum(rho, c)
                lam1 = hermitian_eigen(DensityMatrix(rho1)).eigenvalues
                lam2 = hermitian_eigen(DensityMatrix(rho2)).eigenvalues
                parts = effnum(
                    WeightVector(np.concatenate([n * f1 * lam1, n * f2 * lam2])), c
                )
                assert abs(whole - parts) < 1e-10


class TestPartialTrace:
    def test_product_state_reduces_exactly(self):
        rho_a = np.diag([0.75, 0.25]).astype(complex)
        rho_b = np.diag([0.5, 0.25, 0.25]).astype(complex)
        joint = DensityMatrix(np.kron(rho_a, rho_b))
        bp = BipartiteStructure(2, 3)
        assert np.array_equal(partial_trace(joint, bp, "A").mat, rho_a)
        assert np.array_equal(partial_trace(joint, bp, "B").mat, rho_b)

    def test_bell_state_reduces_to_maximally_mixed(self):
        joint = DensityMatrix.from_pure(bell_state())
        reduced = partial_trace(joint, BipartiteStructure(2, 2), "A")
        assert np.max(np.abs(reduced.mat - np.eye(2) / 2.0)) < 1e-12

    def test_schmidt_spectrum_matches_svd_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            amps = random_pure(rng, 6)
            psi = PureState(amps)
            reduced = partial_trace(DensityMatrix.from_pure(psi), BipartiteStructure(2, 3), "A")
            ours = hermitian_eigen(reduced).eigenvalues
            singular = np.linalg.svd(amps.reshape(2, 3), compute_uv=False)
            theirs = np.sort(singular**2)[::-1]
            assert np.max(np.abs(ours - theirs)) < 1e-9

    def test_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(59)
        rho = DensityMatrix(random_density(rng, 12))
        reduced = partial_trace(rho, BipartiteStructure(3, 4), "B")
        assert abs(np.trace(reduced.mat) - 1.0) < 1e-10
        assert np.min(np.linalg.eigvalsh(reduced.mat)) > -1e-10

    def test_inconsistent_factorization_rejected(self):
        rho = DensityMatrix.maximally_mixed(6)
        with pytest.raises(InvalidInput):
            partial_trace(rho, BipartiteStructure(2, 2), "A")

    def test_unknown_side_rejected(self):
        rho = DensityMatrix.maximally_mixed(4)
        with pytest.raises(InvalidInput):
            partial_trace(rho, BipartiteStructure(2, 2), "C")


class TestEntanglement:
    def test_product_state_shares_nothing(self):
        psi = PureState.basis_vector(0, 4)
        assert mu_entanglement_min(psi, BipartiteStructure(2, 2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_bell_state_shares_two(self):
        assert mu_entanglement_min(bell_state(), BipartiteStructure(2, 2)) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_tilted_state_example(self):
        psi = PureState(np.array([math.sqrt(0.8), 0.0, 0.0, math.sqrt(0.2)], complex))
        assert mu_entanglement_min(psi, BipartiteStructure(2, 2)) == pytest.approx(
            1.4, abs=1e-10
        )

    def test_sides_agree_for_unequal_dimensions(self):
        rng = np.random.default_rng(61)
        for dim_a, dim_b in ((2, 3), (3, 5), (4, 2), (8, 5)):
            bp = BipartiteStructure(dim_a, dim_b)
            psi = PureState(random_pure(rng, bp.dim))
            a, b = reduced_counts(psi, bp, MINIMAL)
            assert abs(a - b) < 1e-9
            assert abs(mu_entanglement_min(psi, bp) - a) < 1e-9
            assert 1.0 - 1e-12 <= a <= min(dim_a, dim_b) + 1e-12

    def test_sides_agree_for_canonical_kernels_loosely(self):
        # alpha < 1 kernels amplify ~1e-16 eigenvalue noise like w**alpha,
        # so the cross-side agreement is only good to ~(N*eps)**alpha
        rng = np.random.default_rng(67)
        c = CountingFunction.canonical(0.5)
        for _ in range(10):
            bp = BipartiteStructure(3, 5)
            psi = PureState(random_pure(rng, bp.dim))
            a, b = reduced_counts(psi, bp, c)
            assert abs(a - b) < 1e-6
            assert abs(mu_entanglement(psi, bp, c) - a) < 1e-6

    def test_known_schmidt_spectrum_in_2x3(self):
        amps = np.zeros(6, complex)
        amps[0] = math.sqrt(0.8)   # |0>|0>
        amps[4] = math.sqrt(0.2)   # |1>|1>
        psi = PureState(amps)
        bp = BipartiteStructure(2, 3)
        assert mu_entanglement_min(psi, bp) == pytest.approx(1.4, abs=1e-10)
        for count in reduced_counts(psi, bp, MINIMAL):
            assert count == pytest.approx(1.4, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            mu_entanglement_min(bell_state(), BipartiteStructure(2, 3))

    @pytest.mark.parametrize("dim_a, dim_b", [(2, 3), (3, 5), (8, 32), (16, 16)])
    def test_schmidt_weights_match_partial_trace_oracle(self, dim_a, dim_b):
        rng = np.random.default_rng(73 + dim_a * dim_b)
        bp = BipartiteStructure(dim_a, dim_b)
        k = min(dim_a, dim_b)
        for _ in range(3):
            psi = PureState(random_pure(rng, bp.dim))
            weights = schmidt_weights(psi, bp)
            assert weights.size == k
            joint = DensityMatrix.from_pure(psi)
            for keep in "AB":
                oracle = hermitian_eigen(partial_trace(joint, bp, keep)).eigenvalues[:k]
                assert np.max(np.abs(weights - oracle)) < 1e-12
            for count in reduced_counts(psi, bp, MINIMAL):
                assert abs(mu_entanglement_min(psi, bp) - count) < 1e-12

    def test_beyond_the_density_dimension_cap(self, tmp_path, capsys):
        rng = np.random.default_rng(79)
        bp = BipartiteStructure(64, 128)  # N = 8192 > DEFAULT_DIM_CAP
        amps = random_pure(rng, bp.dim)
        value = mu_entanglement_min(PureState(amps), bp)
        assert 1.0 <= value <= 64.0
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": bp.dim, "amps": [[z.real, z.imag] for z in amps]}))
        assert main(["entangle", str(path), "--dims", "64x128", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["side_a_min"] == payload["side_b_min"] == value


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of the numpy decompositions called while the test runs."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestDecompositionsPerCommand:
    def test_qnum_decomposes_once(self, linalg_calls, capsys):
        assert main(["qnum", str(FIXTURES / "density_werner.json")]) == 0
        assert linalg_calls == ["eigh"]

    def test_entangle_never_diagonalizes(self, linalg_calls, capsys):
        args = ["entangle", str(FIXTURES / "state_tilted.json"), "--dims", "2x2",
                "--cf", "alpha=0.5"]
        assert main(args) == 0
        assert linalg_calls == ["svd"]  # one SVD serves both kernels and both sides
