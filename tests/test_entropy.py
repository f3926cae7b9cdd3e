import math

import numpy as np
import pytest
from oracles import random_probs

from effnum import (
    CountingFunction,
    DofModel,
    InvalidInput,
    ProbabilityVector,
    dfd,
    dfd_gamma_scan,
    k_equivalent,
    mu_entropy,
    mu_entropy_alpha,
    mu_entropy_min,
    superadditivity_gap,
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
        assert mu_entropy_min(probs(0.5, 0.25, 0.25)) == math.log(2.5)

    def test_alpha_one_matches_minimal_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = ProbabilityVector(random_probs(rng, int(rng.integers(2, 33))))
            assert mu_entropy_alpha(p, 1.0) == mu_entropy_min(p)

    def test_alpha_half_example(self):
        value = mu_entropy_alpha(probs(0.5, 0.25, 0.25), 0.5)
        expected = math.log(math.fsum(min(x**0.5, 1.0) for x in (1.5, 0.75, 0.75)))
        assert value == expected
        assert value == pytest.approx(1.0050525387423810, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0001, -1.0])
    def test_alpha_validated(self, alpha):
        with pytest.raises(InvalidInput):
            mu_entropy_alpha(probs(0.5, 0.5), alpha)

    def test_bounds_and_uniform_maximality(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(2, 65))
            p = ProbabilityVector(random_probs(rng, n))
            s = mu_entropy_min(p)
            assert -1e-12 <= s <= math.log(n) + 1e-12

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(37)
        alphas = np.arange(1, 11) / 10.0
        for _ in range(40):
            p = ProbabilityVector(random_probs(rng, int(rng.integers(2, 33))))
            values = [mu_entropy_alpha(p, a) for a in alphas]
            for smaller, larger in zip(values[1:], values[:-1]):
                assert smaller <= larger + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        p = random_probs(rng, 12)
        shuffled = rng.permutation(p)
        model = DofModel(kappa=2, k_count=1)  # unused here; direct entropies
        assert mu_entropy_min(ProbabilityVector(p)) == mu_entropy_min(
            ProbabilityVector(shuffled)
        )
        del model


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
    def test_uniform_uses_every_degree(self):
        model = DofModel(kappa=2, k_count=4)
        uniform = ProbabilityVector(np.full(16, 1.0 / 16.0))
        assert k_equivalent(uniform, model, MINIMAL) == pytest.approx(4.0, abs=1e-12)
        assert dfd(uniform, model, MINIMAL) == pytest.approx(1.0, abs=1e-12)

    def test_certain_state_freezes_everything(self):
        model = DofModel(kappa=3, k_count=2)
        certain = ProbabilityVector(np.r_[1.0, np.zeros(8)])
        assert k_equivalent(certain, model, MINIMAL) == 0.0
        assert dfd(certain, model, MINIMAL) == 0.0

    def test_partial_support_example(self):
        model = DofModel(kappa=2, k_count=4)
        p = np.zeros(16)
        p[:4] = 0.25
        pv = ProbabilityVector(p)
        assert k_equivalent(pv, model, MINIMAL) == pytest.approx(2.0, abs=1e-12)
        assert dfd(pv, model, MINIMAL) == pytest.approx(0.5, abs=1e-12)

    def test_consistency_with_entropy(self):
        rng = np.random.default_rng(47)
        model = DofModel(kappa=2, k_count=5)
        p = ProbabilityVector(random_probs(rng, 32))
        left = k_equivalent(p, model, MINIMAL) * math.log(2)
        assert math.isclose(left, mu_entropy(p, MINIMAL), rel_tol=1e-15, abs_tol=1e-15)

    def test_big_models_use_exact_integers(self):
        assert DofModel(kappa=3, k_count=40).n == 3**40

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            k_equivalent(probs(0.5, 0.5), DofModel(kappa=2, k_count=2), MINIMAL)

    @pytest.mark.parametrize("kappa, k", [(1, 3), (2, 0)])
    def test_model_validation(self, kappa, k):
        with pytest.raises(InvalidInput):
            DofModel(kappa=kappa, k_count=k)


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
