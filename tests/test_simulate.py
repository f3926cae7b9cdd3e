import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from effnum import (
    CountingFunction,
    InvalidInput,
    InvariantViolation,
    OrthogonalDecomposition,
    OutcomeSequence,
    ProbabilityVector,
    PureState,
    effnum,
    empirical_fractions,
    empirical_probs,
    plugin_mu_estimate,
    sample_outcomes,
    weights_from_probs,
)
from effnum import cli, io, simulate, states
from effnum.simulate import DEFAULT_BOOTSTRAP, PluginEstimate, _indexed_search

from conftest import FIXTURES

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


def reference_plugin_mu_estimate(seq: OutcomeSequence, c: CountingFunction) -> PluginEstimate:
    """The per-replica bootstrap loop, with validated objects for every
    replica and frequencies from exact rationals: the reference that the
    bootstrap must match bit for bit."""
    freqs = ProbabilityVector(np.array([float(f) for f in empirical_fractions(seq)]))
    estimate = effnum(weights_from_probs(freqs), c)
    t = seq.t_count
    replicas = np.empty(DEFAULT_BOOTSTRAP)
    for r in range(DEFAULT_BOOTSTRAP):
        rng = Generator(Philox(seed=SeedSequence(seq.seed, spawn_key=(1, r))))
        counts = rng.multinomial(t, freqs.p / float(np.sum(freqs.p)))
        replicas[r] = effnum(weights_from_probs(ProbabilityVector(counts / t)), c)
    return PluginEstimate(estimate, float(np.std(replicas, ddof=1)), DEFAULT_BOOTSTRAP)


def guarded_cdf(p) -> np.ndarray:
    cumulative = np.cumsum(np.asarray(p, dtype=float))
    cumulative[-1] = max(cumulative[-1], 1.0)
    return cumulative


def bucket_count(m: int) -> int:
    """The guide table's size: the least power of two >= 2M."""
    k = 1
    while k < 2 * m:
        k *= 2
    return k


def probe_uniforms(cumulative: np.ndarray) -> np.ndarray:
    """Uniforms on every edge the search can get wrong: each bucket bound
    k/K and its neighbours, each CDF entry below 1 and its neighbours, 0
    and the largest double below 1."""
    k = bucket_count(cumulative.size)
    edges = np.concatenate([np.arange(k) / k, cumulative[cumulative < 1.0], [0.0]])
    below, above = np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)
    probes = np.concatenate([edges, below, above, [1.0 - 2.0**-53]])
    return probes[(probes >= 0.0) & (probes < 1.0)]


@st.composite
def block_probabilities(draw):
    """Probabilities with zero blocks anywhere, leading and trailing ones
    included, normalized in floating point so the CDF may end below 1."""
    inner = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1,
                          max_size=40).filter(lambda w: sum(w) > 0.0))
    weights = [0.0] * draw(st.integers(0, 3)) + inner + [0.0] * draw(st.integers(0, 3))
    return np.array(weights) / math.fsum(weights)


class TestIndexedSearch:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=block_probabilities(),
           uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    @example(p=np.array([1.0]), uniforms=[])
    @example(p=np.array([0.0, 0.0, 1.0, 0.0, 0.0]), uniforms=[])
    @example(p=np.full(10, 0.1), uniforms=[])
    def test_equals_searchsorted(self, p, uniforms):
        cumulative = guarded_cdf(p)
        u = np.concatenate([probe_uniforms(cumulative), uniforms])
        expected = np.searchsorted(cumulative, u, side="right")
        assert np.array_equal(_indexed_search(cumulative, u), expected)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 10, 12, 24, 100])
    def test_cdf_on_the_rounded_edges_of_n_buckets(self, n):
        # u just below a rounded j/n can have u*n round up to j: with n
        # buckets that are not a power of two, bucket j would then start
        # past an entry at j/n that u does not reach.
        cumulative = np.append(np.arange(1, n) / n, 1.0)
        u = probe_uniforms(cumulative)
        expected = np.searchsorted(cumulative, u, side="right")
        assert np.array_equal(_indexed_search(cumulative, u), expected)

    def test_cdf_that_rounds_below_one(self):
        p = np.full(10, 0.1)
        assert np.cumsum(p)[-1] < 1.0  # before the guard
        cumulative = guarded_cdf(p)
        u = np.concatenate([probe_uniforms(cumulative), np.linspace(0.99, 1.0 - 2.0**-53, 101)])
        expected = np.searchsorted(cumulative, u, side="right")
        assert np.array_equal(_indexed_search(cumulative, u), expected)
        assert _indexed_search(cumulative, np.array([1.0 - 2.0**-53]))[0] == 9

    def test_one_block(self):
        u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        assert _indexed_search(np.array([1.0]), u).tolist() == [0, 0, 0]

    def test_sampler_equals_the_searchsorted_sampler(self):
        rng = np.random.default_rng(4096)
        amps = rng.normal(size=8192) + 1j * rng.normal(size=8192)
        psi = PureState(amps / np.linalg.norm(amps))
        dec = OrthogonalDecomposition(rng.permutation(8192).reshape(4096, 2).tolist(), 8192)
        seq = sample_outcomes(psi, dec, None, 200_000, seed=11)
        cumulative = guarded_cdf(states.subspace_probs(psi, dec).p)
        uniforms = Generator(Philox(key=np.uint64(11))).random(200_000)
        assert np.array_equal(seq.trials, np.searchsorted(cumulative, uniforms, side="right"))


class TestBootstrapMatchesTheReferenceLoop:
    @pytest.fixture(scope="class")
    def sequence(self):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        psi = PureState(amps / np.linalg.norm(amps))
        return sample_outcomes(psi, OrthogonalDecomposition.singletons(4096), None,
                               100_000, seed=2018)

    @pytest.mark.parametrize("c", [
        MINIMAL,
        CountingFunction.canonical(0.5),
        CountingFunction.from_callable(lambda w: np.minimum(np.log1p(w) / math.log(2.0), 1.0)),
    ], ids=["minimal", "canonical-0.5", "user"])
    def test_bit_identical(self, sequence, c):
        assert plugin_mu_estimate(sequence, c) == reference_plugin_mu_estimate(sequence, c)

    def test_small_block_count_bit_identical(self):
        psi, dec = three_outcome_state()
        seq = sample_outcomes(psi, dec, None, 10_000, seed=8)
        for c in (MINIMAL, CountingFunction.canonical(0.5)):
            assert plugin_mu_estimate(seq, c) == reference_plugin_mu_estimate(seq, c)

    def test_a_replica_that_loses_trials_is_an_invariant_violation(self, monkeypatch):
        class ShortGenerator(Generator):
            def multinomial(self, n, pvals, size=None):
                return super().multinomial(n - 1, pvals, size)

        monkeypatch.setattr(simulate, "Generator", ShortGenerator)
        psi, dec = three_outcome_state()
        seq = sample_outcomes(psi, dec, None, 1000, seed=8)
        with pytest.raises(InvariantViolation):
            plugin_mu_estimate(seq, MINIMAL)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(t=st.integers(1, 2**24), data=st.data())
def test_float_frequency_is_the_rounded_fraction(t, data):
    ks = data.draw(st.lists(st.integers(0, t), min_size=1, max_size=8))
    freqs = np.array(ks, dtype=np.int64) / t
    assert freqs.tolist() == [float(Fraction(k, t)) for k in ks]


def test_simulate_computes_the_collapse_probabilities_once(monkeypatch, capsys):
    calls, subspace_probs = [], states.subspace_probs

    def counted(*args):
        calls.append(args)
        return subspace_probs(*args)

    monkeypatch.setattr(cli.states, "subspace_probs", counted)
    monkeypatch.setattr(simulate, "subspace_probs", counted)
    code = cli.main(["simulate", str(FIXTURES / "state_uniform4.json"),
                     str(FIXTURES / "dec_singletons4.json"), "--trials", "1000,100000"])
    assert code == 0 and len(calls) == 1


def test_runs_of_a_trial_table_are_independent_streams(monkeypatch, capsys):
    runs, sample = [], simulate._sample

    def recorded(*args):
        runs.append(sample(*args))
        return runs[-1]

    monkeypatch.setattr(simulate, "_sample", recorded)
    state, dec = FIXTURES / "state_uniform4.json", FIXTURES / "dec_singletons4.json"
    code = cli.main(["simulate", str(state), str(dec), "--trials", "1000,100000", "--seed", "7"])
    assert code == 0 and [seq.t_count for seq in runs] == [1000, 100000]
    # runs keyed by the seed alone would make the shorter one a prefix of the longer
    assert not np.array_equal(runs[0].trials, runs[1].trials[:1000])
    psi = io.load_state(state)
    alone = sample_outcomes(psi, *io.load_decomposition(dec, psi.dim), 1000, seed=7)
    assert np.array_equal(runs[0].trials, alone.trials)
