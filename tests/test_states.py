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
    metric_uncertainty,
    mu_uncertainty,
    subspace_probs,
)
from effnum.counting import BLOCK
from effnum.states import DEFAULT_DIM_CAP, Blocks

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
        assert mu_uncertainty(psi, OrthogonalDecomposition.singletons(3), None, MINIMAL) == 1.0

        root_half = math.sqrt(0.5)
        hadamard = OrthonormalBasis(np.array([[root_half, root_half], [root_half, -root_half]]))
        psi2 = PureState.basis_vector(0, 2)
        assert mu_uncertainty(psi2, OrthogonalDecomposition.singletons(2), hadamard, MINIMAL) == 2.0

        psi3 = state(math.sqrt(0.7), math.sqrt(0.2), math.sqrt(0.1))
        value = mu_uncertainty(psi3, OrthogonalDecomposition.singletons(3), None, MINIMAL)
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
            floor = mu_uncertainty(psi, dec, None, MINIMAL)
            for a in alphas:
                c = CountingFunction.canonical(a)
                assert floor <= mu_uncertainty(psi, dec, None, c) + 1e-12

    def test_global_phase_invariance(self):
        psi = state(math.sqrt(0.7), math.sqrt(0.2), math.sqrt(0.1))
        dec = OrthogonalDecomposition.singletons(3)
        base = mu_uncertainty(psi, dec, None, MINIMAL)
        for scalar in (-1.0, 1j, -1j):
            rotated = PureState(scalar * psi.amps)
            assert mu_uncertainty(rotated, dec, None, MINIMAL) == base  # exact scalars
        wobbled = PureState(np.exp(0.73j) * psi.amps)
        assert mu_uncertainty(wobbled, dec, None, MINIMAL) == pytest.approx(base, abs=1e-12)


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
        assert mu_uncertainty(psi, dec, None, MINIMAL) == mu_uncertainty(
            psi, setup_b.decomposition, None, MINIMAL)
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

    @pytest.mark.parametrize("labels", [[[[1.0]], [[2.0]]], [[0.0], [1.0, 2.0]], [["a"], ["b"]],
                                        [[math.nan], [math.nan]], [[0.0], [math.inf]]],
                             ids=["three-d", "ragged", "not-numbers", "nan", "infinite"])
    def test_labels_that_are_not_a_table_are_rejected(self, labels):
        dec = OrthogonalDecomposition.singletons(2)
        with pytest.raises(InvalidInput, match="eigenvalue tuples must be a table of finite numbers"):
            MeasurementSetup(dec, labels)

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
    # subspace_probs reads the amplitudes <i|psi> in the given basis

    def test_identity_basis_is_a_no_op(self):
        psi = state(math.sqrt(0.5), 0.5, 0.5)
        dec = OrthogonalDecomposition.singletons(3)
        moved = subspace_probs(psi, dec, OrthonormalBasis.identity(3))
        assert np.array_equal(moved.p, subspace_probs(psi, dec).p)

    def test_quarter_turn(self):
        rotation = OrthonormalBasis(np.array([[0.0, -1.0], [1.0, 0.0]]))
        moved = subspace_probs(PureState.basis_vector(0, 2), OrthogonalDecomposition.singletons(2),
                               rotation)
        assert moved.p.tolist() == [0.0, 1.0]

    def test_round_trip_through_random_unitary(self):
        rng = np.random.default_rng(31)
        u = random_unitary(rng, 4)
        psi = PureState(random_pure(rng, 4))
        rotated = PureState(u @ psi.amps)  # coordinates psi.amps in the basis u
        moved = subspace_probs(rotated, OrthogonalDecomposition.singletons(4), OrthonormalBasis(u))
        assert np.max(np.abs(moved.p - np.abs(psi.amps) ** 2)) < 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(InvalidInput):
            OrthonormalBasis(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_dimension_over_the_cap_is_rejected_before_the_gram_product(self):
        # a read-only view of one zero: no 4097 x 4097 matrix is ever allocated
        zeros = np.broadcast_to(np.zeros(1, complex), (DEFAULT_DIM_CAP + 1,) * 2)
        with pytest.raises(InvalidInput, match="basis dimension 4097 exceeds the supported cap"):
            OrthonormalBasis(zeros)


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

    @pytest.mark.parametrize("dim", ["x", "2", 2.0, True, np.float64(2.0)])
    def test_non_integer_dimension_is_rejected(self, dim):
        with pytest.raises(InvalidInput, match="decomposition dimension must be an integer"):
            OrthogonalDecomposition(((0,), (1,)), dim)

    def test_numpy_integer_dimension_is_accepted(self):
        dec = OrthogonalDecomposition(((0,), (1,)), np.int64(2))
        assert dec.dim == 2 and type(dec.dim) is int

    def test_index_beyond_the_integer_range_is_rejected(self):
        with pytest.raises(InvalidInput, match="partition"):
            OrthogonalDecomposition(((0,), (2**70,)), 2)

    def test_blocks_give_the_decomposition_of_their_lists(self):
        groups = [[4, 0], [2], [1, 3, 5]]
        listed = OrthogonalDecomposition(groups, 6)
        flat = np.array([i for group in groups for i in group])
        given = OrthogonalDecomposition(Blocks(flat, np.array([2, 1, 3])), 6)
        assert given.m_count == listed.m_count == 3
        assert given.block.tolist() == listed.block.tolist() == [0, 2, 1, 2, 0, 2]

    @pytest.mark.parametrize("flat, sizes, message", [
        ([0.0, 1.0], [1, 1], "block indices must be integers, got float64"),
        ([0, 1], [2, 0], "decomposition blocks must be non-empty"),
        ([0, 1], [3, -1], "decomposition blocks must be non-empty"),
        ([0, 0], [1, 1], "partition"),
        ([0, 1], [1, 2], "partition"),
        ([0, 2], [1, 1], "partition"),
    ], ids=["float-indices", "empty-block", "negative-size", "repeated", "sizes-past-indices",
            "out-of-range"])
    def test_blocks_are_checked_as_lists_are(self, flat, sizes, message):
        with pytest.raises(InvalidInput, match=message):
            OrthogonalDecomposition(Blocks(np.array(flat), np.array(sizes)), 2)

    def test_many_blocks_are_labelled_in_several_passes(self):
        # more blocks than one labelling pass takes, each index once
        order = np.random.default_rng(5).permutation(3 * BLOCK)
        dec = OrthogonalDecomposition(Blocks(order, np.full(3 * BLOCK // 2, 2)), 3 * BLOCK)
        assert np.array_equal(dec.block[order], np.arange(3 * BLOCK) // 2)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.intp])
    def test_numpy_integer_indices_are_accepted(self, kind):
        dec = OrthogonalDecomposition(((kind(2), 0), np.array([1], dtype=kind)), 3)
        assert dec.m_count == 2 and type(dec.m_count) is int
        assert dec.block.tolist() == [0, 1, 0]
        assert not dec.block.flags.writeable

    def test_equality_is_identity(self):
        # fields alone would equate partitions that share dim and block count
        dec = OrthogonalDecomposition([[0, 1], [2]], 3)
        assert dec == dec
        assert dec != OrthogonalDecomposition([[0], [1, 2]], 3)

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

    def test_block_of_each_index(self):
        dec = OrthogonalDecomposition(((2, 0), (3,), (1, 4)), 5)
        assert dec.block.tolist() == [0, 2, 0, 1, 2]
        assert not dec.block.flags.writeable

    def test_degenerate_blocks_model_degenerate_outcomes(self):
        psi = state(0.5, 0.5, 0.5, 0.5)
        degenerate = OrthogonalDecomposition(((0, 1, 2), (3,)), 4)
        assert subspace_probs(psi, degenerate).p.tolist() == [0.75, 0.25]
