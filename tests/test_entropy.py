import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import random_probs, superadditivity_gap

from effnum import (
    CountingFunction,
    InvalidInput,
    ProbabilityVector,
    WeightVector,
    dfd_gamma_scan,
    io,
    mu_entropy,
    weights_from_probs,
)

MINIMAL = CountingFunction.minimal()


def probs(*values) -> ProbabilityVector:
    return ProbabilityVector(np.array(values))


class TestMuEntropy:
    def test_certain_distribution_has_zero_entropy(self):
        assert mu_entropy(probs(1.0, 0.0, 0.0), MINIMAL) == 0.0

    @pytest.mark.parametrize("n", [2, 4, 8, 17])
    def test_uniform_distribution_saturates(self, n):
        uniform = ProbabilityVector(np.full(n, 1.0 / n))
        assert mu_entropy(uniform, MINIMAL) == pytest.approx(math.log(n), abs=1e-12)

    def test_dyadic_example(self):
        assert mu_entropy(probs(0.5, 0.25, 0.25), MINIMAL) == math.log(2.5)

    def test_alpha_one_matches_minimal_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = ProbabilityVector(random_probs(rng, int(rng.integers(2, 33))))
            assert mu_entropy(p, CountingFunction.canonical(1.0)) == mu_entropy(p, MINIMAL)

    def test_alpha_half_example(self):
        value = mu_entropy(probs(0.5, 0.25, 0.25), CountingFunction.canonical(0.5))
        expected = math.log(math.fsum(min(x**0.5, 1.0) for x in (1.5, 0.75, 0.75)))
        assert value == expected
        assert value == pytest.approx(1.0050525387423810, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0001, -1.0])
    def test_alpha_validated(self, alpha):
        with pytest.raises(InvalidInput):
            superadditivity_gap(probs(0.5, 0.5), probs(0.5, 0.5), alpha)

    def test_bounds_and_uniform_maximality(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(2, 65))
            p = ProbabilityVector(random_probs(rng, n))
            s = mu_entropy(p, MINIMAL)
            assert -1e-12 <= s <= math.log(n) + 1e-12

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(37)
        alphas = np.arange(1, 11) / 10.0
        for _ in range(40):
            p = ProbabilityVector(random_probs(rng, int(rng.integers(2, 33))))
            values = [mu_entropy(p, CountingFunction.canonical(a)) for a in alphas]
            for smaller, larger in zip(values[1:], values[:-1]):
                assert smaller <= larger + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        p = random_probs(rng, 12)
        shuffled = rng.permutation(p)
        assert mu_entropy(ProbabilityVector(p), MINIMAL) == mu_entropy(
            ProbabilityVector(shuffled), MINIMAL
        )


class TestSuperadditivity:
    def test_uniform_times_uniform_is_tight(self):
        u4 = ProbabilityVector(np.full(4, 0.25))
        assert abs(superadditivity_gap(u4, u4, 1.0)) <= 1e-12

    def test_one_point_factor_is_tight(self):
        single = probs(1.0)
        q = probs(0.9, 0.1)
        assert superadditivity_gap(single, q, 0.7) == 0.0

    def test_skewed_pair_brute_force(self):
        p = probs(0.9, 0.1)
        gap = superadditivity_gap(p, p, 1.0)
        joint = [0.81, 0.09, 0.09, 0.01]
        lhs = math.log(math.fsum(min(4.0 * x, 1.0) for x in joint))
        rhs = 2.0 * math.log(math.fsum(min(2.0 * x, 1.0) for x in (0.9, 0.1)))
        assert gap == pytest.approx(lhs - rhs, abs=1e-14)
        assert gap >= -1e-12

    def test_random_triples_never_go_negative(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            p = ProbabilityVector(random_probs(rng, int(rng.integers(1, 17))))
            q = ProbabilityVector(random_probs(rng, int(rng.integers(1, 17))))
            alpha = float(rng.uniform(0.05, 1.0))
            assert superadditivity_gap(p, q, alpha) >= -1e-12


class TestDegreesOfFreedom:
    # dfd_gamma_scan's k_eq is the degree-of-freedom density S / log n; for
    # K degrees of dimension kappa, n = kappa**K and K_eq = k_eq * K

    def test_uniform_uses_every_degree(self):
        family = [(3**k, ProbabilityVector(np.full(3**k, 3.0**-k))) for k in (1, 2, 3, 4)]
        for k, step in zip((1, 2, 3, 4), dfd_gamma_scan(family, MINIMAL).steps):
            assert step.k_eq * k == pytest.approx(k, abs=1e-12)

    def test_certain_state_freezes_everything(self):
        family = [(3**k, ProbabilityVector(np.r_[1.0, np.zeros(3**k - 1)])) for k in (1, 2, 3)]
        # 1 + log2(1/n) / log2(n) rounds to within an ulp of 0
        for step in dfd_gamma_scan(family, MINIMAL).steps:
            assert step.k_eq == pytest.approx(0.0, abs=1e-15)

    def test_partial_support_example(self):
        # uniform on sqrt(n) of n states: half the degrees of freedom
        family = []
        for n in (16, 64, 256):
            p = np.zeros(n)
            p[:math.isqrt(n)] = 1.0 / math.isqrt(n)
            family.append((n, ProbabilityVector(p)))
        for step in dfd_gamma_scan(family, MINIMAL).steps:
            assert step.k_eq == pytest.approx(0.5, abs=1e-12)

    def test_consistency_with_entropy(self):
        rng = np.random.default_rng(47)
        family = [(n, ProbabilityVector(random_probs(rng, n))) for n in (8, 16, 32)]
        for (n, p), step in zip(family, dfd_gamma_scan(family, MINIMAL).steps):
            left = step.k_eq * math.log(n)
            assert math.isclose(left, mu_entropy(p, MINIMAL), rel_tol=1e-15, abs_tol=1e-15)

    def test_dimension_mismatch_rejected(self):
        family = [(2, probs(0.5, 0.5)), (4, probs(0.5, 0.5)), (8, np.full(8, 0.125))]
        with pytest.raises(InvalidInput, match="claims n=4 but has 2 entries"):
            dfd_gamma_scan(family, MINIMAL)


def uniform_power_family(gamma: float, exponents) -> list:
    family = []
    for j in exponents:
        n = 2**j
        support = min(n, math.ceil(n ** (1.0 - gamma)))
        p = np.zeros(n)
        p[:support] = 1.0 / support
        family.append((n, ProbabilityVector(p)))
    return family


class TestGammaScan:
    def test_uniform_family_has_no_decay(self):
        result = dfd_gamma_scan(uniform_power_family(0.0, range(2, 11)), MINIMAL)
        assert result.gamma == 0.0
        assert all(s.k_eq == 1.0 for s in result.steps)

    def test_concentrated_family_decays_fastest(self):
        result = dfd_gamma_scan(uniform_power_family(1.0, range(2, 11)), MINIMAL)
        assert result.gamma == 1.0
        assert all(s.k_eq == 0.0 for s in result.steps)

    def test_square_root_support_family(self):
        result = dfd_gamma_scan(uniform_power_family(0.5, range(4, 15)), MINIMAL)
        assert abs(result.gamma - 0.5) < 0.02
        assert result.residual < 0.05

    def test_small_families_rejected(self):
        with pytest.raises(InvalidInput):
            dfd_gamma_scan(uniform_power_family(0.0, [2, 3]), MINIMAL)

    def test_non_increasing_sizes_rejected(self):
        family = uniform_power_family(0.0, [2, 3, 4])
        family.append(family[0])
        with pytest.raises(InvalidInput):
            dfd_gamma_scan(family, MINIMAL)

    def test_single_state_member_rejected(self):
        # k_eq divides by log2(n), which vanishes at n = 1
        family = [(1, probs(1.0)), (2, probs(0.5, 0.5)), (4, probs(0.25, 0.25, 0.25, 0.25))]
        with pytest.raises(InvalidInput):
            dfd_gamma_scan(family, MINIMAL)

    def test_reports_per_step_table(self):
        result = dfd_gamma_scan(uniform_power_family(0.5, range(4, 12)), MINIMAL)
        assert [s.n for s in result.steps] == [2**j for j in range(4, 12)]
        for s in result.steps:
            assert 0.0 < s.ratio <= 1.0
            assert 0.0 <= s.k_eq <= 1.0 + 1e-12

    @given(
        sizes=st.lists(st.integers(2, 64), min_size=3, max_size=20, unique=True).map(sorted),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([1.0, 0.5, 0.2]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_gamma_is_minus_the_polyfit_slope_over_the_window(self, sizes, seed, alpha):
        rng = np.random.default_rng(seed)
        family = [(n, ProbabilityVector(random_probs(rng, n))) for n in sizes]
        result = dfd_gamma_scan(family, CountingFunction.canonical(alpha))
        window = max(3, math.ceil(len(sizes) / 2))
        assert result.window == window
        x = [math.log2(s.n) for s in result.steps][-window:]
        y = [math.log2(s.ratio) for s in result.steps][-window:]
        slope = np.polyfit(x, y, 1)[0]
        # the floor covers slopes near zero, where two correct fits differ
        # by ~1e-16 but by more than 1e-12 relative
        assert -result.gamma == pytest.approx(slope, rel=1e-12, abs=1e-14)


def _family_file(tmp_path, exponents, gamma=0.375):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"kind": "uniform-power", "gamma": gamma,
                                "exponents": list(exponents)}))
    return path


def _traced_peak(call):
    """Bytes ``call()`` allocates at its peak, its result dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BOTH_KERNELS = pytest.mark.parametrize("c", [MINIMAL, CountingFunction.canonical(0.5)],
                                       ids=["minimal", "canonical"])


class TestStreamedFamily:
    # a uniform-power family is built member by member as the scan reaches it

    @BOTH_KERNELS
    def test_scan_holds_one_member_at_a_time(self, tmp_path, c):
        # holding every member until the scan counted them peaked at 5.1x, and
        # copying each fresh array into its value object and reducing all n
        # weights at once at 3.1x
        path = _family_file(tmp_path, range(10, 19))
        dfd_gamma_scan(io.load_dfd_family(path), c)  # warm-up: first-use imports and caches
        peak = _traced_peak(lambda: dfd_gamma_scan(io.load_dfd_family(path), c))
        largest = 2**18 * np.dtype(float).itemsize
        assert peak < 2.5 * largest, peak / largest

    @BOTH_KERNELS
    def test_one_shot_family_gives_the_steps_of_a_list(self, tmp_path, c):
        family = uniform_power_family(0.375, range(4, 12))
        listed = dfd_gamma_scan(family, c)
        assert dfd_gamma_scan((member for member in family), c) == listed
        assert dfd_gamma_scan(io.load_dfd_family(_family_file(tmp_path, range(4, 12))), c) == listed

    @pytest.mark.parametrize("gamma", [0.0, 0.375, 0.5, 1.0])
    def test_a_uniform_member_is_the_weights_of_its_distribution(self, gamma):
        for n, p in uniform_power_family(gamma, range(1, 13)):
            member = io._uniform_on_support(n, gamma)
            assert isinstance(member, WeightVector)
            assert member.w.tobytes() == weights_from_probs(p).w.tobytes()

    def test_check_builds_no_member(self, tmp_path):
        # building every member (2**23 floats in all) peaked at 100 MB
        path = _family_file(tmp_path, range(2, 23))
        io.check_file(path)  # warm-up: first-use imports and caches
        assert io.check_file(path) == "family"
        assert _traced_peak(lambda: io.check_file(path)) < 2**20
