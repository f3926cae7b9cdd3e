import gc
import math
import tracemalloc
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
    OutcomeCounts,
    ProbabilityVector,
    PureState,
    effnum,
    empirical_probs,
    plugin_mu_estimate,
    sample_outcomes,
    subspace_probs,
    weights_from_probs,
)
from effnum import cli, io, simulate, states
from effnum.counting import BLOCK
from effnum.simulate import DEFAULT_BOOTSTRAP, SAMPLE_BLOCK, PluginEstimate, _indexed_search

from conftest import FIXTURES
from oracles import empirical_fractions

MINIMAL = CountingFunction.minimal()


def three_outcome_probs() -> ProbabilityVector:
    amps = np.array([math.sqrt(0.5), 0.5, 0.5], dtype=complex)
    return subspace_probs(PureState(amps), OrthogonalDecomposition.singletons(3))


class TestSampling:
    def test_certain_state_repeats_one_outcome(self):
        probs = subspace_probs(PureState.basis_vector(1, 3), OrthogonalDecomposition.singletons(3))
        counts = sample_outcomes(probs, 500, seed=9)
        assert counts.counts.tolist() == [0, 500, 0] and counts.t_count == 500

    def test_fixed_seed_replays_bit_identically(self):
        a = sample_outcomes(three_outcome_probs(), 10_000, seed=123)
        b = sample_outcomes(three_outcome_probs(), 10_000, seed=123)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        a = sample_outcomes(three_outcome_probs(), 1000, seed=1)
        b = sample_outcomes(three_outcome_probs(), 1000, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_even_split_frequencies_within_binomial_bound(self):
        psi = PureState(np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex))
        probs = subspace_probs(psi, OrthogonalDecomposition.singletons(2))
        t = 1_000_000
        freqs = empirical_probs(sample_outcomes(probs, t, seed=2024))
        bound = 5.0 * math.sqrt(0.25 / t)
        assert abs(freqs.p[0] - 0.5) < bound
        assert abs(freqs.p[1] - 0.5) < bound

    def test_trial_count_validated(self):
        with pytest.raises(InvalidInput):
            sample_outcomes(three_outcome_probs(), 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_generator_key_range_rejected(self, seed):
        with pytest.raises(InvalidInput):
            sample_outcomes(three_outcome_probs(), 10, seed=seed)

    @pytest.mark.parametrize("seed, says", [(-3, "lie in"), (2**64, "lie in"),
                                            (1.5, "be an integer"), ("7", "be an integer"),
                                            (True, "be an integer")])
    def test_sequence_seed_validated(self, seed, says):
        with pytest.raises(InvalidInput, match=f"seed must {says}"):
            plugin_mu_estimate(OutcomeCounts([100], seed=seed), MINIMAL)
        with pytest.raises(InvalidInput, match=f"seed must {says}"):
            sample_outcomes(three_outcome_probs(), 10, seed=seed)

    @pytest.mark.parametrize("seed", [0, np.uint64(2**64 - 1), np.int32(7)])
    def test_sequence_seed_may_be_a_numpy_integer(self, seed):
        counts = OutcomeCounts([1, 1], seed=seed)
        assert type(counts.seed) is int and counts.seed == seed

    @pytest.mark.parametrize("run, says", [(-1, "be non-negative"), (1.5, "be an integer"),
                                           ("1", "be an integer"), (True, "be an integer")])
    def test_run_must_be_a_non_negative_integer(self, run, says):
        with pytest.raises(InvalidInput, match=f"run must {says}"):
            OutcomeCounts([100], seed=0, run=run)
        with pytest.raises(InvalidInput, match=f"run must {says}"):
            sample_outcomes(three_outcome_probs(), 10, seed=0, run=run)

    def test_counts_validated(self):
        for counts, says in [([1, -1, 3], "non-negative"), ([0, 0], "from 1 to"),
                             ([2**53, 1], "from 1 to"), ([2**62, 2**62], "from 1 to"),
                             ([2**63 - 1, 2**63 - 1, 3], "from 1 to"),
                             ([], "non-empty vector"), ([[1, 2]], "non-empty vector"),
                             (np.array([2**63], dtype=np.uint64), "non-negative")]:
            with pytest.raises(InvalidInput, match=says):
                OutcomeCounts(counts, seed=0)

    @pytest.mark.parametrize("count", [3.0, 2.5, "3", True])
    def test_block_count_must_be_an_integer(self, count):
        with pytest.raises(InvalidInput, match="counts must be a non-empty vector of integers"):
            OutcomeCounts([count, count], seed=0)


class TestEmpiricalFrequencies:
    def test_constant_sequence(self):
        assert empirical_probs(OutcomeCounts([10, 0, 0], seed=0)).p.tolist() == [1.0, 0.0, 0.0]

    def test_alternating_sequence(self):
        assert empirical_probs(OutcomeCounts([2, 2], seed=0)).p.tolist() == [0.5, 0.5]

    def test_fractions_sum_to_one_exactly(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            t = int(rng.integers(100, 5000))
            counts = OutcomeCounts(np.bincount(rng.integers(0, m, size=t), minlength=m), seed=0)
            assert counts.t_count == t
            assert sum(empirical_fractions(counts), start=Fraction(0)) == 1


class TestPluginEstimate:
    def test_certain_state_is_noiseless(self):
        probs = subspace_probs(PureState.basis_vector(0, 2), OrthogonalDecomposition.singletons(2))
        est = plugin_mu_estimate(sample_outcomes(probs, 1000, seed=5), c=MINIMAL)
        assert est.estimate == 1.0
        assert est.stderr == 0.0

    def test_uniform_four_outcomes_approach_from_below(self):
        probs = subspace_probs(PureState(np.full(4, 0.5, dtype=complex)),
                               OrthogonalDecomposition.singletons(4))
        estimates = []
        for t in (1000, 10_000, 100_000, 1_000_000):
            counts = sample_outcomes(probs, t, seed=31)
            estimates.append(plugin_mu_estimate(counts, c=MINIMAL).estimate)
        assert all(e < 4.0 for e in estimates)
        assert estimates[-1] > estimates[0]
        assert 4.0 - estimates[-1] < 0.01

    def test_three_outcome_state_within_five_stderr(self):
        counts = sample_outcomes(three_outcome_probs(), 100_000, seed=404)
        est = plugin_mu_estimate(counts, c=MINIMAL)
        assert abs(est.estimate - 2.5) < 5.0 * est.stderr

    def test_estimates_are_reproducible(self):
        counts = sample_outcomes(three_outcome_probs(), 5000, seed=17)
        a = plugin_mu_estimate(counts, c=MINIMAL)
        b = plugin_mu_estimate(counts, c=MINIMAL)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_error_shrinks_with_more_trials(self):
        probs = three_outcome_probs()
        seeds = range(9)
        medians = []
        for t in (1000, 10_000, 100_000):
            errors = []
            for s in seeds:
                freqs = empirical_probs(sample_outcomes(probs, t, seed=1000 + s))
                errors.append(abs(effnum(weights_from_probs(freqs), MINIMAL) - 2.5))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]

    def test_short_sequences_rejected(self):
        counts = sample_outcomes(three_outcome_probs(), 50, seed=3)
        with pytest.raises(InvalidInput):
            plugin_mu_estimate(counts, c=MINIMAL)


def reference_plugin_mu_estimate(counts: OutcomeCounts, c: CountingFunction) -> PluginEstimate:
    """The per-replica bootstrap loop, with validated objects for every
    replica and frequencies from exact rationals: the reference that the
    bootstrap must match bit for bit."""
    freqs = ProbabilityVector(np.array([float(f) for f in empirical_fractions(counts)]))
    estimate = effnum(weights_from_probs(freqs), c)
    t = counts.t_count
    replicas = np.empty(DEFAULT_BOOTSTRAP)
    for r in range(DEFAULT_BOOTSTRAP):
        rng = Generator(Philox(seed=SeedSequence(counts.seed, spawn_key=(1 + counts.run, r))))
        drawn = rng.multinomial(t, freqs.p / float(np.sum(freqs.p)))
        replicas[r] = effnum(weights_from_probs(ProbabilityVector(drawn / t)), c)
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
        probs = subspace_probs(psi, dec)
        uniforms = Generator(Philox(key=np.uint64(11))).random(200_000)
        expected = np.searchsorted(guarded_cdf(probs.p), uniforms, side="right")
        trials = np.concatenate(list(simulate._index_chunks(probs, 200_000, 11, 0)))
        assert np.array_equal(trials, expected)
        assert np.array_equal(sample_outcomes(probs, 200_000, seed=11).counts,
                              np.bincount(expected, minlength=4096))


class TestBootstrapMatchesTheReferenceLoop:
    @pytest.fixture(scope="class")
    def counts(self):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        psi = PureState(amps / np.linalg.norm(amps))
        return sample_outcomes(subspace_probs(psi, OrthogonalDecomposition.singletons(4096)),
                               100_000, seed=2018)

    @pytest.mark.parametrize("c", [
        MINIMAL,
        CountingFunction.canonical(0.5),
        CountingFunction.from_callable(lambda w: np.minimum(np.log1p(w) / math.log(2.0), 1.0)),
    ], ids=["minimal", "canonical-0.5", "user"])
    def test_bit_identical(self, counts, c):
        assert plugin_mu_estimate(counts, c) == reference_plugin_mu_estimate(counts, c)

    @pytest.mark.parametrize("m", [64, 1000])
    def test_replicas_summed_in_batches_bit_identical(self, m):
        # 64 or 4 replicas per exact_sums call, and a shorter last batch
        rng = np.random.default_rng(m)
        amps = rng.normal(size=m) + 1j * rng.normal(size=m)
        psi = PureState(amps / np.linalg.norm(amps))
        counts = sample_outcomes(subspace_probs(psi, OrthogonalDecomposition.singletons(m)),
                                 20_000, seed=m)
        for c in (MINIMAL, CountingFunction.canonical(0.5)):
            assert plugin_mu_estimate(counts, c) == reference_plugin_mu_estimate(counts, c)

    def test_small_block_count_bit_identical(self):
        counts = sample_outcomes(three_outcome_probs(), 10_000, seed=8)
        for c in (MINIMAL, CountingFunction.canonical(0.5)):
            assert plugin_mu_estimate(counts, c) == reference_plugin_mu_estimate(counts, c)

    def test_each_run_resamples_from_its_own_streams(self, counts):
        later = OutcomeCounts(counts.counts, counts.seed, run=1)
        first, second = plugin_mu_estimate(counts, MINIMAL), plugin_mu_estimate(later, MINIMAL)
        assert first.estimate == second.estimate and first.stderr != second.stderr
        assert second == reference_plugin_mu_estimate(later, MINIMAL)
        # run 0 keeps the replica streams SeedSequence(seed, spawn_key=(1, r)) and their value
        assert counts.run == 0 and first == reference_plugin_mu_estimate(counts, MINIMAL)
        assert math.isclose(first.stderr, 5.248561348196808, rel_tol=1e-13)

    def test_a_replica_that_loses_trials_is_an_invariant_violation(self, monkeypatch):
        class ShortGenerator(Generator):
            def multinomial(self, n, pvals, size=None):
                return super().multinomial(n - 1, pvals, size)

        # simulate imports its generator from numpy.random on each call
        monkeypatch.setattr(np.random, "Generator", ShortGenerator)
        counts = sample_outcomes(three_outcome_probs(), 1000, seed=8)
        with pytest.raises(InvariantViolation):
            plugin_mu_estimate(counts, MINIMAL)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(t=st.integers(1, 2**24), data=st.data())
def test_float_frequency_is_the_rounded_fraction(t, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, t), max_size=7)))
    counts = OutcomeCounts(np.diff([0, *cuts, t]), seed=0)
    assert empirical_probs(counts).p.tolist() == [float(f) for f in empirical_fractions(counts)]


def test_the_generator_id_names_the_philox_that_runs():
    # Philox NxW-10 holds a counter of N words and a key of N/2, each of W bits
    state = Philox().state["state"]
    counter, key = state["counter"], state["key"]
    assert 2 * key.size == counter.size and key.dtype == counter.dtype
    name = f"philox{counter.size}x{8 * counter.dtype.itemsize}-10/inverse-cdf"
    assert simulate.GENERATOR_ID == name == "philox4x64-10/inverse-cdf"


def test_simulate_computes_the_collapse_probabilities_once(monkeypatch, capsys):
    calls, original = [], states.subspace_probs

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli.states, "subspace_probs", counted)
    code = cli.main(["simulate", str(FIXTURES / "state_uniform4.json"),
                     str(FIXTURES / "dec_singletons4.json"), "--trials", "1000,100000"])
    assert code == 0 and len(calls) == 1


def test_runs_of_a_trial_table_are_independent_streams(monkeypatch, capsys):
    runs, index_chunks = [], simulate._index_chunks

    def recorded(*args):
        runs.append([])
        for chunk in index_chunks(*args):
            runs[-1].append(chunk)
            yield chunk

    monkeypatch.setattr(simulate, "_index_chunks", recorded)
    state, dec = FIXTURES / "state_uniform4.json", FIXTURES / "dec_singletons4.json"
    code = cli.main(["simulate", str(state), str(dec), "--trials", "1000,100000", "--seed", "7"])
    trials = [np.concatenate(chunks) for chunks in runs]
    assert code == 0 and [run.size for run in trials] == [1000, 100000]
    # runs keyed by the seed alone would make the shorter one a prefix of the longer
    assert not np.array_equal(trials[0], trials[1][:1000])
    psi = io.load_state(state)
    probs = subspace_probs(psi, io.load_decomposition(dec, psi.dim)[0])
    # run 0 is the unjumped stream, and its counts are those of sample_outcomes alone
    assert np.array_equal(trials[0], np.concatenate(list(index_chunks(probs, 1000, 7, 0))))
    alone = sample_outcomes(probs, 1000, seed=7)
    assert np.array_equal(np.bincount(trials[0], minlength=4), alone.counts)


class TestStreamedSampler:
    """The trials are drawn and binned ``simulate.SAMPLE_BLOCK`` at a time."""

    @pytest.mark.parametrize("run", [0, 1])
    @pytest.mark.parametrize("t", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK + 1, BLOCK // 4 - 1,
                                   BLOCK // 4 + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_chunks_equal_one_draw(self, t, run):
        p = np.random.default_rng(t).gamma(0.5, size=1000)
        probs = ProbabilityVector(p / p.sum())
        uniforms = Generator(Philox(key=np.uint64(7)).jumped(run)).random(t)
        chunks = list(simulate._index_chunks(probs, t, 7, run))
        assert [chunk.size for chunk in chunks[:-1]] == [SAMPLE_BLOCK] * (len(chunks) - 1)
        assert 1 <= chunks[-1].size <= SAMPLE_BLOCK
        assert np.array_equal(np.concatenate(chunks),
                              _indexed_search(guarded_cdf(probs.p), uniforms))

    def test_counts_bin_the_trials_of_sample_outcomes(self):
        probs, t = three_outcome_probs(), 3 * BLOCK + 5
        trials = np.concatenate(list(simulate._index_chunks(probs, t, 12, 0)))
        counts = sample_outcomes(probs, t, seed=12)
        assert np.array_equal(counts.counts, np.bincount(trials, minlength=3))
        assert (counts.t_count, counts.m_count, counts.seed, counts.run) == (t, 3, 12, 0)

    def test_simulate_holds_one_block_of_trials(self, capsys):
        # drawing all 10**6 trials at once peaked at 24 MiB, blocks of 2**16 at 2.1 MiB
        argv = ["simulate", str(FIXTURES / "state_uniform4.json"),
                str(FIXTURES / "dec_singletons4.json"), "--trials", "1000000", "--seed", "7"]
        assert cli.main(argv) == 0  # warm-up: first-use imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 2**20, peak
