import math
from fractions import Fraction

import numpy as np
import pytest

from effnum import (
    CountingFunction,
    InvalidInput,
    OrthogonalDecomposition,
    OutcomeSequence,
    PureState,
    effnum,
    empirical_fractions,
    empirical_probs,
    plugin_mu_estimate,
    sample_outcomes,
    weights_from_probs,
)

MINIMAL = CountingFunction.minimal()


def three_outcome_state() -> tuple[PureState, OrthogonalDecomposition]:
    amps = np.array([math.sqrt(0.5), 0.5, 0.5], dtype=complex)
    return PureState(amps), OrthogonalDecomposition.singletons(3)


class TestSampling:
    def test_certain_state_repeats_one_outcome(self):
        psi = PureState.basis_vector(1, 3)
        dec = OrthogonalDecomposition.singletons(3)
        seq = sample_outcomes(psi, dec, None, 500, seed=9)
        assert np.all(seq.trials == 1)

    def test_fixed_seed_replays_bit_identically(self):
        psi, dec = three_outcome_state()
        a = sample_outcomes(psi, dec, None, 10_000, seed=123)
        b = sample_outcomes(psi, dec, None, 10_000, seed=123)
        assert np.array_equal(a.trials, b.trials)
        assert a.generator == b.generator

    def test_different_seeds_differ(self):
        psi, dec = three_outcome_state()
        a = sample_outcomes(psi, dec, None, 1000, seed=1)
        b = sample_outcomes(psi, dec, None, 1000, seed=2)
        assert not np.array_equal(a.trials, b.trials)

    def test_even_split_frequencies_within_binomial_bound(self):
        psi = PureState(np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex))
        dec = OrthogonalDecomposition.singletons(2)
        t = 1_000_000
        seq = sample_outcomes(psi, dec, None, t, seed=2024)
        freqs = empirical_probs(seq)
        bound = 5.0 * math.sqrt(0.25 / t)
        assert abs(freqs.p[0] - 0.5) < bound
        assert abs(freqs.p[1] - 0.5) < bound

    def test_outcome_labels_follow_trials(self):
        psi, dec = three_outcome_state()
        labels = np.array([[0.0], [1.0], [2.0]])
        seq = sample_outcomes(psi, dec, None, 50, seed=7, eigtuples=labels)
        assert seq.labels.shape == (50, 1)
        assert np.array_equal(seq.labels[:, 0], seq.trials.astype(float))

    def test_trial_count_validated(self):
        psi, dec = three_outcome_state()
        with pytest.raises(InvalidInput):
            sample_outcomes(psi, dec, None, 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_generator_key_range_rejected(self, seed):
        psi, dec = three_outcome_state()
        with pytest.raises(InvalidInput):
            sample_outcomes(psi, dec, None, 10, seed=seed)

    def test_sequence_indices_validated(self):
        with pytest.raises(InvalidInput):
            OutcomeSequence(trials=np.array([0, 3]), seed=0, m_count=3)


class TestEmpiricalFrequencies:
    def test_constant_sequence(self):
        seq = OutcomeSequence(trials=np.zeros(10, dtype=np.int64), seed=0, m_count=3)
        assert empirical_probs(seq).p.tolist() == [1.0, 0.0, 0.0]

    def test_alternating_sequence(self):
        seq = OutcomeSequence(trials=np.array([0, 1, 0, 1]), seed=0, m_count=2)
        assert empirical_probs(seq).p.tolist() == [0.5, 0.5]

    def test_fractions_sum_to_one_exactly(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            t = int(rng.integers(100, 5000))
            trials = rng.integers(0, m, size=t)
            seq = OutcomeSequence(trials=trials, seed=0, m_count=m)
            fractions = empirical_fractions(seq)
            assert sum(fractions, start=Fraction(0)) == 1

    def test_block_count_must_cover_observed_indices(self):
        seq = OutcomeSequence(trials=np.array([0, 1, 2]), seed=0, m_count=3)
        with pytest.raises(InvalidInput):
            empirical_fractions(seq, m=2)


class TestPluginEstimate:
    def test_certain_state_is_noiseless(self):
        psi = PureState.basis_vector(0, 2)
        dec = OrthogonalDecomposition.singletons(2)
        seq = sample_outcomes(psi, dec, None, 1000, seed=5)
        est = plugin_mu_estimate(seq, c=MINIMAL)
        assert est.estimate == 1.0
        assert est.stderr == 0.0

    def test_uniform_four_outcomes_approach_from_below(self):
        psi = PureState(np.full(4, 0.5, dtype=complex))
        dec = OrthogonalDecomposition.singletons(4)
        estimates = []
        for t in (1000, 10_000, 100_000, 1_000_000):
            seq = sample_outcomes(psi, dec, None, t, seed=31)
            estimates.append(plugin_mu_estimate(seq, c=MINIMAL).estimate)
        assert all(e < 4.0 for e in estimates)
        assert estimates[-1] > estimates[0]
        assert 4.0 - estimates[-1] < 0.01

    def test_three_outcome_state_within_five_stderr(self):
        psi, dec = three_outcome_state()
        seq = sample_outcomes(psi, dec, None, 100_000, seed=404)
        est = plugin_mu_estimate(seq, c=MINIMAL)
        assert abs(est.estimate - 2.5) < 5.0 * est.stderr

    def test_estimates_are_reproducible(self):
        psi, dec = three_outcome_state()
        seq = sample_outcomes(psi, dec, None, 5000, seed=17)
        a = plugin_mu_estimate(seq, c=MINIMAL)
        b = plugin_mu_estimate(seq, c=MINIMAL)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_error_shrinks_with_more_trials(self):
        psi, dec = three_outcome_state()
        seeds = range(9)
        medians = []
        for t in (1000, 10_000, 100_000):
            errors = []
            for s in seeds:
                seq = sample_outcomes(psi, dec, None, t, seed=1000 + s)
                freqs = empirical_probs(seq)
                errors.append(abs(effnum(weights_from_probs(freqs), MINIMAL) - 2.5))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]

    def test_short_sequences_rejected(self):
        psi, dec = three_outcome_state()
        seq = sample_outcomes(psi, dec, None, 50, seed=3)
        with pytest.raises(InvalidInput):
            plugin_mu_estimate(seq, c=MINIMAL)
