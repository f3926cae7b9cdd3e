import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_probs

from effnum import (
    CountingFunction,
    InvalidInput,
    ProbabilityVector,
    WeightVector,
    concat,
    effnum,
    effnum_min,
    exact_sums,
    product,
    validate_counting_function,
    weights_from_probs,
)
from effnum.counting import BLOCK, EXACT_SUM_CUTOFF, exact_total, tail_fit

MINIMAL = CountingFunction.minimal()
HALF = CountingFunction.canonical(0.5)


class TestWeightsFromProbs:
    @pytest.mark.parametrize(
        "p, expected",
        [
            ([1.0, 0.0], [2.0, 0.0]),
            ([0.25, 0.25, 0.25, 0.25], [1.0, 1.0, 1.0, 1.0]),
            ([0.5, 0.25, 0.25], [1.5, 0.75, 0.75]),
        ],
    )
    def test_examples(self, p, expected):
        w = weights_from_probs(ProbabilityVector(np.array(p)))
        assert w.w.tolist() == expected
        assert w.n == len(p)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInput):
            ProbabilityVector(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            ProbabilityVector(np.array([1.2, -0.2]))


class TestEffnum:
    def test_unit_weights_count_everything(self):
        w = WeightVector(np.ones(4))
        for c in (MINIMAL, HALF, CountingFunction.canonical(0.3)):
            assert effnum(w, c) == 4.0

    def test_minimal_kernel_example(self):
        w = WeightVector(np.array([1.5, 0.75, 0.75]))
        assert effnum(w, MINIMAL) == 2.5

    def test_half_exponent_example(self):
        w = WeightVector(np.array([1.5, 0.75, 0.75]))
        # elementwise oracle: min(w**0.5, 1) summed by hand
        expected = math.fsum(min(x**0.5, 1.0) for x in (1.5, 0.75, 0.75))
        value = effnum(w, HALF)
        assert value == expected
        assert value == pytest.approx(2.7320508075688772, abs=1e-12)

    @pytest.mark.parametrize(
        "w, expected",
        [
            ([2.0, 0.0], 1.0),
            ([2.0, 2.0, 0.0, 0.0], 2.0),
            ([1.0] * 7, 7.0),
        ],
    )
    def test_effnum_min_examples(self, w, expected):
        assert effnum_min(WeightVector(np.array(w))) == expected

    def test_zero_weights_contribute_nothing(self):
        w = WeightVector(np.array([2.0, 2.0, 0.0, 0.0]))
        nonzero_only = math.fsum(min(x, 1.0) for x in w.w if x > 0.0)
        assert effnum_min(w) == nonzero_only
        assert effnum(w, HALF) == math.fsum(min(x**0.5, 1.0) for x in w.w if x > 0.0)

    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e308, 1e308, -1e308]],
                             ids=["sum-beyond-range", "finite-sum"])
    def test_kernel_values_that_overflow_fsum_are_invalid_input(self, values):
        # math.fsum overflows on both, although the second's exact sum is finite
        c = CountingFunction.from_callable(lambda w: np.array(values))
        with pytest.raises(InvalidInput, match="overflow"):
            effnum(WeightVector(np.ones(len(values))), c)

    def test_kernel_values_of_both_infinities_are_invalid_input(self):
        # math.fsum raises ValueError on -inf + inf
        c = CountingFunction.from_callable(lambda w: np.array([np.inf, -np.inf]))
        with pytest.raises(InvalidInput, match="undefined"):
            effnum(WeightVector(np.array([1.0, 1.0])), c)

    def test_weight_sum_validated(self):
        with pytest.raises(InvalidInput):
            WeightVector(np.array([1.0, 0.5]))

    def test_weights_are_immutable(self):
        w = WeightVector(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            w.w[0] = 2.0


class TestConcatProduct:
    def test_concat_examples(self):
        a = WeightVector(np.array([1.0, 1.0]))
        joined = concat(a, a)
        assert joined.w.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert joined.n == 4

        b = concat(WeightVector(np.array([2.0, 0.0])), WeightVector(np.array([1.0])))
        assert b.w.tolist() == [2.0, 0.0, 1.0]

    def test_concat_additivity_separable_sum(self):
        w1 = WeightVector(np.array([1.5, 0.5]))
        w2 = WeightVector(np.array([0.25, 1.75]))
        assert effnum_min(concat(w1, w2)) == effnum_min(w1) + effnum_min(w2) == 2.75

    @pytest.mark.parametrize(
        "p, q, expected",
        [
            ([1.0], [0.5, 0.5], [0.5, 0.5]),
            ([0.5, 0.5], [0.5, 0.5], [0.25] * 4),
            ([0.5, 0.5], [0.75, 0.25], [0.375, 0.125, 0.375, 0.125]),
        ],
    )
    def test_product_examples(self, p, q, expected):
        joint = product(ProbabilityVector(np.array(p)), ProbabilityVector(np.array(q)))
        assert joint.p.tolist() == expected
        assert joint.n == len(p) * len(q)


class TestCanonicalFamily:
    def test_alpha_one_is_minimal_bitwise(self):
        rng = np.random.default_rng(7)
        w = WeightVector(5 * random_probs(rng, 5))
        assert effnum(w, CountingFunction.canonical(1.0)) == effnum_min(w)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_range_enforced(self, alpha):
        with pytest.raises(InvalidInput):
            CountingFunction.canonical(alpha)

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(11)
        alphas = np.arange(1, 11) / 10.0
        for _ in range(50):
            n = int(rng.integers(2, 65))
            w = WeightVector(n * random_probs(rng, n))
            values = [effnum(w, CountingFunction.canonical(a)) for a in alphas]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-12

    def test_minimality_over_random_weights(self):
        rng = np.random.default_rng(13)
        alphas = np.arange(1, 11) / 10.0
        for _ in range(300):
            n = int(rng.integers(2, 65))
            w = WeightVector(n * random_probs(rng, n))
            floor = effnum_min(w)
            for a in alphas:
                assert floor <= effnum(w, CountingFunction.canonical(a)) + 1e-12

    def test_range_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            w = WeightVector(n * random_probs(rng, n))
            for c in (MINIMAL, HALF):
                value = effnum(w, c)
                assert 1.0 - 1e-12 <= value <= n + 1e-12

    def test_continuity_under_small_perturbations(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(2, 33))
            base = random_probs(rng, n)
            w = WeightVector(n * base)
            bumped = base + rng.uniform(-1e-8, 1e-8, size=n)
            bumped = np.abs(bumped)
            w2 = WeightVector(n * (bumped / bumped.sum()))
            for c in (MINIMAL, HALF):
                assert abs(effnum(w, c) - effnum(w2, c)) < 1e-5


@given(
    values=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=32),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_permutation_symmetry_is_exact(values, seed):
    arr = np.array(values)
    n = arr.size
    w = WeightVector(n * arr / arr.sum())
    shuffled = WeightVector(np.random.default_rng(seed).permutation(w.w))
    for c in (MINIMAL, HALF):
        assert effnum(w, c) == effnum(shuffled, c)


class TestWeightCount:
    def test_n_is_the_number_of_entries(self):
        assert WeightVector(np.array([2.0, 0.0])).n == 2

    def test_trailing_zeros_raise_the_expected_sum(self):
        with pytest.raises(InvalidInput):
            WeightVector(np.array([1.0, 0.0]))


class TestTailFit:
    @pytest.mark.parametrize("k", [3, 4, 5, 7, 10])
    def test_exact_line_is_recovered_over_the_window(self, k):
        xs = [float(i) for i in range(k)]
        ys = [2.5 - 0.75 * x for x in xs]
        intercept, slope, residual, window = tail_fit(xs, ys)
        assert window == max(3, math.ceil(k / 2))
        assert intercept == pytest.approx(2.5, rel=1e-15)
        assert slope == pytest.approx(-0.75, rel=1e-15)
        assert residual <= 1e-15

    def test_points_before_the_window_are_ignored(self):
        xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [100.0, -40.0, 7.0, 1.0, 2.0, 3.0]
        intercept, slope, residual, window = tail_fit(xs, ys)
        assert window == 3
        assert (intercept, slope, residual) == (-2.0, 1.0, 0.0)

    @pytest.mark.parametrize("k", [3, 6, 9])
    def test_matches_polyfit_and_its_largest_misfit(self, k):
        rng = np.random.default_rng(k)
        xs = np.sort(rng.uniform(-1.0, 1.0, size=k))
        ys = rng.normal(size=k)
        intercept, slope, residual, window = tail_fit(xs, ys)
        x, y = xs[-window:], ys[-window:]
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(ref_slope, rel=1e-9, abs=1e-12)
        assert intercept == pytest.approx(ref_intercept, rel=1e-9, abs=1e-12)
        misfit = np.max(np.abs(ref_intercept + ref_slope * x - y))
        assert residual == pytest.approx(misfit, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("power", [-1000, -600, 0, 600, 1000])
    def test_power_of_two_scales_of_x_give_the_same_fit_bit_for_bit(self, power):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.uniform(0.5, 1.0, size=7))[::-1]
        ys = rng.normal(size=7)
        intercept, slope, residual, window = tail_fit(xs, ys)
        scaled = tail_fit(np.ldexp(xs, power), ys)
        assert scaled == (intercept, math.ldexp(slope, -power), residual, window)


@given(st.integers(min_value=2, max_value=64))
@settings(max_examples=30, deadline=None)
def test_uniform_weights_give_nominal_count(n):
    assert effnum_min(WeightVector(np.ones(n))) == float(n)


class TestValidation:
    def test_minimal_passes(self):
        assert validate_counting_function(MINIMAL).passed

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.9, 1.0])
    def test_canonical_passes(self, alpha):
        report = validate_counting_function(CountingFunction.canonical(alpha))
        assert report.passed, report.summary()

    def test_halved_kernel_fails_unit_value(self):
        c = CountingFunction.from_callable(lambda w: np.minimum(w / 2.0, 1.0))
        report = validate_counting_function(c)
        failed = {chk.name for chk in report.checks if not chk.passed}
        assert "one_at_unit" in failed

    def test_square_kernel_fails_domination(self):
        c = CountingFunction.from_callable(lambda w: np.minimum(w**2, 1.0))
        report = validate_counting_function(c)
        failed = {chk.name for chk in report.checks if not chk.passed}
        assert "dominates_minimal" in failed

    def test_jump_kernel_fails_continuity(self):
        c = CountingFunction.from_callable(
            lambda w: np.where(w >= 0.5, 1.0, np.minimum(w, 1.0))
        )
        report = validate_counting_function(c)
        failed = {chk.name for chk in report.checks if not chk.passed}
        assert failed == {"sampled_continuity"}

    def test_overshooting_kernel_fails_bound(self):
        c = CountingFunction.from_callable(lambda w: np.minimum(1.5 * w, 1.5))
        report = validate_counting_function(c)
        failed = {chk.name for chk in report.checks if not chk.passed}
        assert "bounded" in failed


def random_probs(rng, n):
    x = rng.gamma(1.0, size=n)
    return x / x.sum()


def _bits(values) -> list[str]:
    """Exact identity of each double, the sign of zero included."""
    return [float(v).hex() for v in values]


def _fsum_blocks(x, seg, m):
    return [math.fsum(x[seg == j].tolist()) for j in range(m)]


# Magnitudes of the inputs below: signed zeros, subnormals, the
# 1e-300..1e300 range, and doubles near 1e308, where sigma would overflow.
_ATOMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e307, 1.7e308]),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e-300, max_value=1e300),
)


@given(
    atoms=st.lists(_ATOMS, min_size=1, max_size=24),
    size=st.integers(min_value=0, max_value=3 * EXACT_SUM_CUTOFF),
    cancel=st.booleans(),
    m=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_exact_sums_equal_fsum_bit_for_bit(atoms, size, cancel, m, seed):
    """Whole-array and segmented sums against math.fsum, on mixed signs and
    sizes on both sides of the cutoff; with ``cancel`` half the values
    meet their negatives."""
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array(atoms), size=size) * rng.choice([-1.0, 1.0], size=size)
    if cancel:
        x = rng.permutation(np.concatenate([x, -x[: size // 2]]))
    seg = rng.integers(0, m, size=x.size)
    try:
        whole = math.fsum(x.tolist())
    except OverflowError:  # fsum's intermediate overflow; exact_sums defers to it
        with pytest.raises(OverflowError):
            exact_sums(x)
    else:
        assert _bits(exact_sums(x)) == _bits([whole])
    try:
        blocks = _fsum_blocks(x, seg, m)
    except OverflowError:
        return
    assert _bits(exact_sums(x, seg, m)) == _bits(blocks)


class TestExactSums:
    def test_two_to_the_twenty(self):
        rng = np.random.default_rng(2024)
        n = 2**20
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, size=n)
        x[: n // 4] = -x[n // 4 : n // 2]  # a quarter cancels exactly
        x = rng.permutation(x)
        assert _bits(exact_sums(x)) == _bits([math.fsum(x.tolist())])
        seg = rng.integers(0, 1024, size=n)
        order = np.argsort(seg, kind="stable")
        parts = np.split(x[order], np.cumsum(np.bincount(seg, minlength=1024))[:-1])
        assert _bits(exact_sums(x, seg, 1024)) == _bits(math.fsum(p.tolist()) for p in parts)

    @pytest.mark.parametrize("n", [EXACT_SUM_CUTOFF + 1, 2**20])
    def test_many_values_of_one_magnitude(self, n):
        x = np.random.default_rng(n).random(n)
        assert _bits(exact_sums(x)) == _bits([math.fsum(x.tolist())])
        seg = np.arange(n) % 3
        assert _bits(exact_sums(x, seg, 3)) == _bits(_fsum_blocks(x, seg, 3))

    def test_tie_broken_by_a_far_smaller_term(self):
        # 1 + 2**-53 is a tie that rounds down to 1 on its own; the third
        # term, two passes further down, makes the sum round up.
        x = np.zeros(EXACT_SUM_CUTOFF + 1)
        x[:3] = [1.0, 2.0**-53, 2.0**-106]
        assert exact_sums(x).item() == 1.0 + 2.0**-52
        seg = (np.arange(x.size) >= 3).astype(int)
        assert _bits(exact_sums(x, seg, 2)) == _bits([1.0 + 2.0**-52, 0.0])

    def test_empty_segments_sum_to_zero(self):
        x = np.full(EXACT_SUM_CUTOFF + 1, 0.5)
        assert _bits(exact_sums(x, np.zeros(x.size, int), 3)) == _bits([x.size / 2, 0.0, 0.0])

    @pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
    def test_non_finite_entries_follow_fsum(self, special):
        x = np.r_[np.ones(EXACT_SUM_CUTOFF), special]
        assert _bits(exact_sums(x)) == _bits([math.fsum(x.tolist())])

    def test_permutation_invariant_beyond_the_cutoff(self):
        rng = np.random.default_rng(7)
        p = rng.gamma(0.3, size=4096)
        w = WeightVector(4096 * p / p.sum())
        shuffled = WeightVector(rng.permutation(w.w))
        for c in (MINIMAL, HALF):
            assert effnum(w, c) == effnum(shuffled, c) == math.fsum(c(w.w).tolist())


def _weights(n):
    return n * random_probs(np.random.default_rng(n), n)


def _wide(n):
    """Signed values over 40 decades, a quarter cancelling exactly: many passes."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, size=n)
    x[: n // 4] = -x[n // 4 : 2 * (n // 4)]
    return x


class TestBlockedReduction:
    """exact_total applies its function a block at a time and rounds once."""

    # from the empty sum, fsum's 0.0, across EXACT_SUM_CUTOFF and BLOCK to many blocks
    @pytest.mark.parametrize("n", [0, 1, EXACT_SUM_CUTOFF, EXACT_SUM_CUTOFF + 1, BLOCK, BLOCK + 7,
                                   2**20])
    @pytest.mark.parametrize("f, values", [(MINIMAL, _weights), (HALF, _weights), (np.ravel, _wide)],
                             ids=["minimal", "canonical", "wide"])
    def test_equals_fsum_bit_for_bit(self, n, f, values):
        x = values(n)
        expected = math.fsum(np.ravel(f(x)).tolist())
        shuffled = np.random.default_rng(0).permutation(x)
        assert _bits([exact_total(f, x), exact_total(f, shuffled)]) == _bits([expected] * 2)

    def test_infinities_in_different_blocks_are_undefined(self):
        x = np.ones(2 * BLOCK)
        x[0], x[BLOCK] = np.inf, -np.inf
        with pytest.raises(InvalidInput, match="undefined"):
            exact_total(np.ravel, x)

    def test_sum_that_overflows_across_blocks(self):
        x = np.full(8 * BLOCK, 1.5 * 2.0**1005)
        assert exact_total(np.ravel, x[:BLOCK]) == 1.5 * 2.0**1021  # each block is finite
        with pytest.raises(InvalidInput, match="overflows"):
            exact_total(np.ravel, x)

    def test_a_user_kernel_sees_at_most_a_block(self):
        sizes = []

        def kernel(w):
            sizes.append(w.size)
            return np.minimum(w, 1.0)

        n = 3 * BLOCK + 5
        assert effnum(WeightVector(np.ones(n)), CountingFunction.from_callable(kernel)) == n
        assert sizes == [BLOCK, BLOCK, BLOCK, 5]

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_aligned_arrays_equal_fsum_bit_for_bit(self, n):
        eta, p = _weights(n) + 0.5, _wide(n)
        expected = math.fsum((eta * HALF(np.abs(p) / eta)).tolist())
        total = exact_total(lambda e, q: e * HALF(np.abs(q) / e), eta, p)
        assert _bits([total]) == _bits([expected])
