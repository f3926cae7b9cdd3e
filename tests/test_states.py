import math

import numpy as np
import pytest
from oracles import random_pure, random_unitary

from effnum import (
    CountingFunction,
    InvalidInput,
    MeasurementSetup,
    OrthogonalDecomposition,
    OrthonormalBasis,
    PureState,
    basis_change,
    metric_uncertainty,
    mu_uncertainty,
    mu_uncertainty_min,
    subspace_probs,
)

MINIMAL = CountingFunction.minimal()


def state(*amps) -> PureState:
    return PureState(np.array(amps, dtype=complex))


class TestSubspaceProbs:
    def test_basis_state_collapses_into_its_block(self):
        psi = PureState.basis_vector(0, 2)
        dec = OrthogonalDecomposition.singletons(2)
        assert subspace_probs(psi, dec).p.tolist() == [1.0, 0.0]

    def test_uniform_state_splits_evenly(self):
        psi = state(0.5, 0.5, 0.5, 0.5)
        dec = OrthogonalDecomposition(((0, 1), (2, 3)), 4)
        assert subspace_probs(psi, dec).p.tolist() == [0.5, 0.5]

    def test_two_block_projection_norms(self):
        psi = state(math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))
        dec = OrthogonalDecomposition(((0,), (1, 2)), 3)
        probs = subspace_probs(psi, dec)
        # direct projection-norm oracle
        expected = [abs(psi.amps[0]) ** 2, math.fsum(abs(a) ** 2 for a in psi.amps[1:])]
        assert probs.p.tolist() == expected
        assert probs.p == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        psi = PureState.basis_vector(0, 3)
        with pytest.raises(InvalidInput):
            subspace_probs(psi, OrthogonalDecomposition.singletons(2))

    def test_merging_blocks_contracts_probabilities(self):
        # dyadic amplitudes make the block sums exact in floating point
        psi = state(0.5, 0.5, math.sqrt(0.5))
        parts = subspace_probs(psi, OrthogonalDecomposition.singletons(3))
        merged = subspace_probs(psi, OrthogonalDecomposition(((0, 1), (2,)), 3))
        assert merged.p[0] == parts.p[0] + parts.p[1]
        assert merged.p[1] == parts.p[2]
        assert merged.p.size == 2


class TestMuUncertainty:
    def test_collapsed_state_counts_one(self):
        psi = PureState.basis_vector(2, 4)
        dec = OrthogonalDecomposition(((0, 1), (2, 3)), 4)
        assert mu_uncertainty(psi, dec, None, MINIMAL) >= 1.0
        collapsed = OrthogonalDecomposition(((2,), (0, 1, 3)), 4)
        assert mu_uncertainty(psi, collapsed, None, MINIMAL) == 1.0

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_even_split_counts_all_blocks(self, alpha):
        psi = state(0.5, 0.5, 0.5, 0.5)
        dec = OrthogonalDecomposition(((0, 1), (2, 3)), 4)
        assert mu_uncertainty(psi, dec, None, CountingFunction.canonical(alpha)) == 2.0

    def test_singleton_blocks_reduce_to_weight_count(self):
        psi = state(math.sqrt(0.5), 0.5, 0.5)
        dec = OrthogonalDecomposition.singletons(3)
        assert mu_uncertainty(psi, dec, None, MINIMAL) == 2.5

    def test_minimal_examples(self):
        psi = PureState.basis_vector(1, 3)
        assert mu_uncertainty_min(psi, OrthogonalDecomposition.singletons(3)) == 1.0

        root_half = math.sqrt(0.5)
        hadamard = OrthonormalBasis(np.array([[root_half, root_half], [root_half, -root_half]]))
        psi2 = PureState.basis_vector(0, 2)
        assert mu_uncertainty_min(psi2, OrthogonalDecomposition.singletons(2), hadamard) == 2.0

        psi3 = state(math.sqrt(0.7), math.sqrt(0.2), math.sqrt(0.1))
        value = mu_uncertainty_min(psi3, OrthogonalDecomposition.singletons(3))
        assert value == pytest.approx(1.9, abs=1e-12)

    def test_bounds_and_uniform_saturation(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 17))
            psi = PureState(random_pure(rng, n))
            dec = OrthogonalDecomposition.singletons(n)
            value = mu_uncertainty(psi, dec, None, MINIMAL)
            assert 1.0 - 1e-12 <= value <= n + 1e-12

    def test_minimal_lower_bounds_canonical(self):
        rng = np.random.default_rng(23)
        alphas = np.arange(1, 11) / 10.0
        for _ in range(40):
            n = int(rng.integers(2, 17))
            psi = PureState(random_pure(rng, n))
            dec = OrthogonalDecomposition.singletons(n)
            floor = mu_uncertainty_min(psi, dec)
            for a in alphas:
                c = CountingFunction.canonical(a)
                assert floor <= mu_uncertainty(psi, dec, None, c) + 1e-12

    def test_global_phase_invariance(self):
        psi = state(math.sqrt(0.7), math.sqrt(0.2), math.sqrt(0.1))
        dec = OrthogonalDecomposition.singletons(3)
        base = mu_uncertainty_min(psi, dec)
        for scalar in (-1.0, 1j, -1j):
            rotated = PureState(scalar * psi.amps)
            assert mu_uncertainty_min(rotated, dec) == base  # exact scalars
        wobbled = PureState(np.exp(0.73j) * psi.amps)
        assert mu_uncertainty_min(wobbled, dec) == pytest.approx(base, abs=1e-12)


class TestMetricUncertainty:
    def test_symmetric_two_point_spread(self):
        psi = state(math.sqrt(0.5), math.sqrt(0.5))
        setup = MeasurementSetup(OrthogonalDecomposition.singletons(2), np.array([[0.0], [1.0]]))
        assert metric_uncertainty(psi, setup) == 0.5

    def test_certain_state_has_zero_spread(self):
        psi = PureState.basis_vector(0, 2)
        setup = MeasurementSetup(OrthogonalDecomposition.singletons(2), np.array([[0.0], [1.0]]))
        assert metric_uncertainty(psi, setup) == 0.0

    def test_weighted_variance_example(self):
        psi = state(math.sqrt(0.5), 0.5, 0.5)
        setup = MeasurementSetup(
            OrthogonalDecomposition.singletons(3), np.array([[0.0], [1.0], [2.0]])
        )
        assert metric_uncertainty(psi, setup) == pytest.approx(math.sqrt(0.6875), abs=1e-12)

    def test_labels_move_metric_but_not_measure(self):
        psi = state(math.sqrt(0.5), 0.5, 0.5)
        dec = OrthogonalDecomposition.singletons(3)
        labels = np.array([[0.0], [1.0], [2.0]])
        setup_a = MeasurementSetup(dec, labels)
        setup_b = MeasurementSetup(dec, 2.0 * labels)
        # the measure uncertainty never reads the labels
        assert mu_uncertainty_min(psi, dec) == mu_uncertainty_min(psi, setup_b.decomposition)
        spread_a = metric_uncertainty(psi, setup_a)
        spread_b = metric_uncertainty(psi, setup_b)
        assert spread_b != spread_a
        assert spread_b == pytest.approx(2.0 * spread_a, rel=1e-12)

    def test_custom_metric_is_honored(self):
        taxicab = lambda x, y: float(np.sum(np.abs(x - y)))
        psi = state(math.sqrt(0.5), math.sqrt(0.5))
        setup = MeasurementSetup(
            OrthogonalDecomposition.singletons(2), np.array([[0.0, 0.0], [1.0, 1.0]]),
            metric=taxicab,
        )
        assert metric_uncertainty(psi, setup) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidInput):
            MeasurementSetup(
                OrthogonalDecomposition.singletons(2), np.array([[1.0], [1.0]])
            )

    @pytest.mark.parametrize("labels, pair", [
        ([[1.0], [0.0], [2.0], [0.0], [1.0]], (0, 4)),
        ([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], (0, 3)),
        ([[0.0, 1.0], [-0.0, 2.0], [0.0, 2.0]], (1, 2)),
    ])
    def test_duplicate_labels_name_the_first_pair(self, labels, pair):
        dec = OrthogonalDecomposition.singletons(len(labels))
        with pytest.raises(InvalidInput, match=f"tuples {pair[0]} and {pair[1]} coincide$"):
            MeasurementSetup(dec, np.array(labels))

    def test_first_pair_matches_the_pairwise_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            labels = rng.integers(0, 4, size=(m, int(rng.integers(1, 3)))).astype(float)
            first = next(((i, j) for i in range(m) for j in range(i + 1, m)
                          if np.array_equal(labels[i], labels[j])), None)
            dec = OrthogonalDecomposition.singletons(m)
            if first is None:
                MeasurementSetup(dec, labels)
            else:
                with pytest.raises(InvalidInput, match=f"tuples {first[0]} and {first[1]} "):
                    MeasurementSetup(dec, labels)


class TestBasisChange:
    def test_identity_basis_is_a_no_op(self):
        psi = state(math.sqrt(0.5), 0.5, 0.5)
        moved = basis_change(psi, OrthonormalBasis.identity(3))
        assert np.array_equal(moved.amps, psi.amps)

    def test_quarter_turn(self):
        rotation = OrthonormalBasis(np.array([[0.0, -1.0], [1.0, 0.0]]))
        moved = basis_change(PureState.basis_vector(0, 2), rotation)
        assert moved.amps == pytest.approx([0.0, -1.0])

    def test_round_trip_through_random_unitary(self):
        rng = np.random.default_rng(31)
        u = random_unitary(rng, 4)
        psi = PureState(random_pure(rng, 4))
        moved = basis_change(psi, OrthonormalBasis(u))
        back = u @ moved.amps
        assert np.max(np.abs(back - psi.amps)) < 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(InvalidInput):
            OrthonormalBasis(np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestDecomposition:
    def test_blocks_must_partition(self):
        with pytest.raises(InvalidInput):
            OrthogonalDecomposition(((0,), (0, 1)), 2)
        with pytest.raises(InvalidInput):
            OrthogonalDecomposition(((0,),), 2)
        with pytest.raises(InvalidInput):
            OrthogonalDecomposition(((0,), ()), 1)
        with pytest.raises(InvalidInput):
            OrthogonalDecomposition(((0, 2), (-1,)), 3)

    @pytest.mark.parametrize("index", [1.7, 1.0, True, np.float64(1.0), np.bool_(True)],
                             ids=["fraction", "integral-float", "bool", "numpy-float",
                                  "numpy-bool"])
    def test_non_integer_index_is_rejected(self, index):
        with pytest.raises(InvalidInput, match="block indices must be integers"):
            OrthogonalDecomposition(((0,), (index,)), 2)

    def test_index_beyond_the_integer_range_is_rejected(self):
        with pytest.raises(InvalidInput, match="partition"):
            OrthogonalDecomposition(((0,), (2**70,)), 2)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.intp])
    def test_numpy_integer_indices_are_accepted(self, kind):
        dec = OrthogonalDecomposition(((kind(2), 0), np.array([1], dtype=kind)), 3)
        assert dec.blocks == ((2, 0), (1,))
        assert {type(i) for block in dec.blocks for i in block} == {int}
        assert dec.flat.tolist() == [2, 0, 1]

    def test_block_probabilities_equal_per_block_fsum(self):
        rng = np.random.default_rng(9)
        dim = 3000
        psi = PureState(random_pure(rng, dim))
        cuts = np.sort(rng.choice(np.arange(1, dim), size=400, replace=False))
        blocks = tuple(tuple(b.tolist()) for b in np.split(rng.permutation(dim), cuts))
        sq = np.abs(psi.amps) ** 2
        expected = [math.fsum(sq[list(b)].tolist()) for b in blocks]
        got = subspace_probs(psi, OrthogonalDecomposition(blocks, dim)).p
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]

    def test_flat_indices_and_segments(self):
        dec = OrthogonalDecomposition(((2, 0), (3,), (1, 4)), 5)
        assert dec.flat.tolist() == [2, 0, 3, 1, 4]
        assert dec.segment.tolist() == [0, 0, 1, 2, 2]
        assert not dec.flat.flags.writeable and not dec.segment.flags.writeable

    def test_degenerate_blocks_model_degenerate_outcomes(self):
        psi = state(0.5, 0.5, 0.5, 0.5)
        degenerate = OrthogonalDecomposition(((0, 1, 2), (3,)), 4)
        assert subspace_probs(psi, degenerate).p.tolist() == [0.75, 0.25]
