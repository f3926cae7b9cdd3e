"""Library objects are immutable, pickle and copy, and records keep their fields.

Every value class that ``effnum`` exports is built once here.  Assigning or
deleting an attribute after construction raises AttributeError, and a
pickle or deepcopy round trip gives an equal, still immutable object.  Every
array a value object holds is a read-only copy of its own, also after a
pickle, deepcopy or copy.  The result records are NamedTuples whose
``_fields`` fix the order of their json keys and csv columns.
"""

import copy
import functools
import gc
import json
import pickle
import tracemalloc

import numpy as np
import pytest

import effnum
from effnum import continuum, counting, entropy, io, simulate
from effnum.counting import Frozen

from conftest import FIXTURES

GRID = effnum.Grid(shape=(4,), spacing=(0.25,))
DEC = effnum.OrthogonalDecomposition([[0, 1], [2]], 3)
UNIFORM = np.full(4, 1.0)

VALUES = {
    effnum.CountingFunction: lambda: effnum.CountingFunction.minimal(),
    effnum.ProbabilityVector: lambda: effnum.ProbabilityVector([0.25, 0.75]),
    effnum.WeightVector: lambda: effnum.WeightVector([0.5, 1.5]),
    effnum.PureState: lambda: effnum.PureState.basis_vector(1, 3),
    effnum.OrthonormalBasis: lambda: effnum.OrthonormalBasis.identity(3),
    effnum.OrthogonalDecomposition: lambda: DEC,
    effnum.MeasurementSetup: lambda: effnum.MeasurementSetup(DEC, [[0.0], [1.0]]),
    effnum.DensityMatrix: lambda: effnum.DensityMatrix.maximally_mixed(3),
    effnum.Eigensystem: lambda: effnum.hermitian_eigen(effnum.DensityMatrix.maximally_mixed(2)),
    effnum.BipartiteStructure: lambda: effnum.BipartiteStructure(2, 3),
    effnum.Grid: lambda: GRID,
    effnum.GridWaveFunction: lambda: effnum.GridWaveFunction(GRID, UNIFORM.astype(complex)),
    effnum.SectorFamily: lambda: effnum.SectorFamily.from_grid(GRID, [(UNIFORM, UNIFORM)]),
    effnum.SpectralDensityPair: lambda: effnum.SpectralDensityPair.from_grid(GRID, UNIFORM,
                                                                            UNIFORM),
    effnum.OutcomeCounts: lambda: effnum.OutcomeCounts([1, 0, 2], seed=5, run=1),
}

# Each record's fields, in the order of its json keys and csv columns.
RECORDS = {
    counting.ConditionCheck: ("name", "passed", "detail"),
    counting.CountingFunctionReport: ("checks",),
    entropy.ScanStep: ("n", "ratio", "k_eq"),
    entropy.GammaScanResult: ("steps", "gamma", "residual", "window"),
    continuum.RefinementRow: ("level", "m_count", "spacing", "ratio"),
    continuum.RefinementResult: ("rows", "extrapolated", "residual", "window"),
    simulate.PluginEstimate: ("estimate", "stderr", "n_bootstrap"),
}
RECORDS_BUILT = {
    counting.CountingFunctionReport: lambda: effnum.validate_counting_function(
        effnum.CountingFunction.minimal()),
    entropy.GammaScanResult: lambda: effnum.dfd_gamma_scan(
        [(n, np.full(n, 1.0 / n)) for n in (2, 4, 8)], effnum.CountingFunction.minimal()),
    continuum.RefinementResult: lambda: effnum.refine_sequence(
        effnum.constant_refinement_problem([1.0, 1.0]), 3, effnum.CountingFunction.minimal()),
    simulate.PluginEstimate: lambda: simulate.PluginEstimate(2.0, 0.1, 200),
    # two functions that pickle by name
    effnum.RefinementProblem: lambda: effnum.RefinementProblem(np.ones, float),
}
FACTORIES = VALUES | RECORDS_BUILT
# Round trips by test id: one object of each class, and a built-in kernel
# that binds its exponent.
ROUND_TRIPS = {cls.__name__: make for cls, make in FACTORIES.items()} | {
    "canonical(0.5)": lambda: effnum.CountingFunction.canonical(0.5),
}
COPIES = {"constructed": lambda o: o, "pickle": lambda o: pickle.loads(pickle.dumps(o)),
          "deepcopy": copy.deepcopy, "copy": copy.copy}


def exported_classes() -> set[type]:
    exported = (getattr(effnum, name) for name in effnum.__all__)
    return {v for v in exported if isinstance(v, type) and not issubclass(v, Exception)}


def same(a, b) -> bool:
    """Equal type and contents, arrays and nested value objects included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, Frozen):
        return vars(a).keys() == vars(b).keys() and all(map(same, vars(a).values(),
                                                            vars(b).values()))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, functools.partial):
        return a.func is b.func and same(a.args, b.args) and a.keywords == b.keywords
    return a == b


def arrays(obj, nested=True):
    """Every array an object holds, in tuples and, if ``nested``, in nested
    value objects too."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for value in obj:
            yield from arrays(value, nested)
    elif isinstance(obj, Frozen):
        for value in vars(obj).values():
            if nested or not isinstance(value, Frozen):
                yield from arrays(value, nested)


def test_every_exported_class_is_covered():
    assert exported_classes() == set(FACTORIES)


@pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda c: c.__name__)
def test_attributes_cannot_be_assigned_or_deleted(cls):
    obj = FACTORIES[cls]()
    assert type(obj) is cls
    name = next(iter(vars(obj) if isinstance(obj, Frozen) else obj._fields))
    before = getattr(obj, name)
    for mutate in (lambda: setattr(obj, name, 0), lambda: delattr(obj, name),
                   lambda: setattr(obj, "added", 0)):
        with pytest.raises(AttributeError):
            mutate()
    assert getattr(obj, name) is before and not hasattr(obj, "added")


@pytest.mark.parametrize("name", list(ROUND_TRIPS))
@pytest.mark.parametrize("round_trip", ["pickle", "deepcopy"])
def test_pickle_and_deepcopy_round_trip(name, round_trip):
    obj = ROUND_TRIPS[name]()
    back = COPIES[round_trip](obj)
    assert back is not obj and same(back, obj)
    if isinstance(back, Frozen):
        with pytest.raises(AttributeError):
            back.added = 0


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
@pytest.mark.parametrize("how", list(COPIES))
def test_arrays_are_private_and_read_only(cls, how):
    obj = VALUES[cls]()
    back = COPIES[how](obj)
    assert all(not a.flags.writeable and a.flags.c_contiguous for a in arrays(back))
    if back is not obj:  # a copy shares none of its own arrays with the original
        assert not any(np.shares_memory(a, b)
                       for a in arrays(back, nested=False) for b in arrays(obj))


def _from(build, *given):
    return build(*given), given


# Each value class that takes arrays, built from arrays its caller keeps:
# (object, the caller's arrays).
FROM_CALLER = {
    effnum.ProbabilityVector: lambda: _from(effnum.ProbabilityVector, np.array([0.25, 0.75])),
    effnum.WeightVector: lambda: _from(effnum.WeightVector, np.array([0.5, 1.5])),
    effnum.PureState: lambda: _from(effnum.PureState, np.array([0.0, 1.0, 0.0], dtype=complex)),
    effnum.OrthonormalBasis: lambda: _from(effnum.OrthonormalBasis, np.eye(3, dtype=complex)),
    effnum.OrthogonalDecomposition: lambda: _from(
        lambda a, b: effnum.OrthogonalDecomposition([a, b], 3), np.array([0, 1]), np.array([2])),
    effnum.MeasurementSetup: lambda: _from(functools.partial(effnum.MeasurementSetup, DEC),
                                           np.array([[0.0], [1.0]])),
    effnum.DensityMatrix: lambda: _from(effnum.DensityMatrix, np.eye(3, dtype=complex) / 3),
    effnum.Eigensystem: lambda: _from(effnum.Eigensystem, np.array([0.5, 0.5]),
                                      np.eye(2, dtype=complex)),
    effnum.Grid: lambda: _from(effnum.Grid, np.array([4]), np.array([0.25]), np.array([1.0])),
    effnum.GridWaveFunction: lambda: _from(functools.partial(effnum.GridWaveFunction, GRID),
                                           UNIFORM.astype(complex)),
    effnum.SectorFamily: lambda: _from(lambda p, eta: effnum.SectorFamily([p], [eta], GRID),
                                       UNIFORM.copy(), UNIFORM.copy()),
    effnum.SpectralDensityPair: lambda: _from(
        functools.partial(effnum.SpectralDensityPair.from_grid, GRID), UNIFORM.copy(),
        UNIFORM.copy()),
    effnum.OutcomeCounts: lambda: _from(functools.partial(effnum.OutcomeCounts, seed=5),
                                        np.array([1, 0, 2])),
}


def test_every_value_class_that_takes_arrays_is_covered():
    no_arrays = {effnum.CountingFunction, effnum.BipartiteStructure}
    assert set(FROM_CALLER) == set(VALUES) - no_arrays


@pytest.mark.parametrize("cls", list(FROM_CALLER), ids=lambda c: c.__name__)
def test_the_caller_keeps_its_arrays(cls):
    obj, given = FROM_CALLER[cls]()
    held = [a.copy() for a in arrays(obj)]
    assert not any(np.shares_memory(a, b) for a in given for b in arrays(obj))
    assert all(a.flags.writeable for a in given)  # never frozen on the caller's side
    for a in given:
        a[...] = 7
    assert all(np.array_equal(a, b) for a, b in zip(arrays(obj), held, strict=True))


# Library builders that hand their freshly built array to the value object.
HANDED_OVER = {
    "weights_from_probs": lambda: effnum.weights_from_probs(effnum.ProbabilityVector([0.25, 0.75])),
    "spectral_weights": lambda: effnum.spectral_weights(effnum.DensityMatrix.maximally_mixed(3)),
    "entanglement_weights": lambda: effnum.entanglement_weights(
        effnum.PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)),
        effnum.BipartiteStructure(2, 2)),
    "uniform_on_support": lambda: io._uniform_on_support(8, 0.5),
    "from_pure": lambda: effnum.DensityMatrix.from_pure(effnum.PureState.basis_vector(1, 3)),
    "maximally_mixed": lambda: effnum.DensityMatrix.maximally_mixed(3),
    "partial_trace": lambda: effnum.partial_trace(effnum.DensityMatrix.maximally_mixed(6),
                                                  effnum.BipartiteStructure(2, 3), "A"),
    "sample_outcomes": lambda: effnum.sample_outcomes(effnum.ProbabilityVector([0.25, 0.75]), 10,
                                                      seed=1),
}


@pytest.mark.parametrize("name", list(HANDED_OVER))
@pytest.mark.parametrize("how", list(COPIES))
def test_handed_over_arrays_are_read_only_and_copies_own_theirs(name, how):
    obj = HANDED_OVER[name]()
    back = COPIES[how](obj)
    assert all(not a.flags.writeable and a.flags.c_contiguous for a in arrays(back))
    if back is not obj:
        assert not any(np.shares_memory(a, b) for a in arrays(back) for b in arrays(obj))


@pytest.mark.parametrize("build, given", [
    (effnum.weights_from_probs, lambda: effnum.ProbabilityVector(np.full(2**20, 2.0**-20))),
    (functools.partial(io._uniform_on_support, gamma=0.5), lambda: 2**20),
], ids=["weights_from_probs", "uniform_on_support"])
def test_a_builder_stores_its_array_once(build, given):
    # a copy into the value object peaked at 2.1x the array
    given = given()
    build(given)  # warm-up: first-use imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        build(given)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20 * np.dtype(float).itemsize, peak / 2**23


def _basis_decomposition(tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({"groups": [[0], [1]],
                                "basis": {"rows": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}}))
    return io.load_decomposition(path, 2)[1]


# Each reader of a complex array: (the object it reads, given a temporary
# directory; the array that object keeps).
READERS = {
    "state": (lambda tmp: io.load_state(FIXTURES / "state_bell.json"), lambda o: o.amps),
    "density": (lambda tmp: io.load_density(FIXTURES / "density_werner.json"), lambda o: o.mat),
    "basis": (_basis_decomposition, lambda o: o.vectors),
    "grid wave function": (lambda tmp: io.load_grid_wavefunction(FIXTURES / "grid_gauss1d.json"),
                           lambda o: o.values),
}


@pytest.mark.parametrize("name", list(READERS))
def test_a_reader_hands_its_array_over(monkeypatch, tmp_path, name):
    load, kept = READERS[name]
    read, complex_array = [], io._complex_array

    def spy(*args):
        read.append(complex_array(*args))
        return read[-1]

    monkeypatch.setattr(io, "_complex_array", spy)
    obj = load(tmp_path)
    assert kept(obj) is read[-1] and not kept(obj).flags.writeable


# Each reader of a listed float member that a command keeps: (its loader,
# the document, the array the object it reads keeps).
FLOAT_READERS = {
    "constant weights": (io.load_refine_problem, {"kind": "constant", "weights": [0.5, 1.5]},
                         lambda read: read[0].weights(1)),
    "family member": (io.load_dfd_family,
                      {"kind": "explicit", "members": [{"n": 2, "p": [0.25, 0.75]}]},
                      lambda read: list(read)[0][1].p),
}


@pytest.mark.parametrize("name", list(FLOAT_READERS))
def test_a_float_reader_hands_its_array_over(monkeypatch, tmp_path, name):
    load, doc, kept = FLOAT_READERS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    read, float_array = [], io._float_array

    def spy(*args):
        read.append(float_array(*args))
        return read[-1]

    monkeypatch.setattr(io, "_float_array", spy)
    arr = kept(load(path))
    assert arr is read[-1] and not arr.flags.writeable


def test_arrays_are_copied_from_the_caller():
    p, eta, values = np.array([0.25, 0.75]), np.ones(4), np.ones((2, 2), complex)
    vector, family = effnum.ProbabilityVector(p), effnum.SectorFamily([eta], [eta], GRID)
    psi = effnum.GridWaveFunction(effnum.Grid(shape=(2, 2), spacing=(0.5, 0.5)), values)
    p[:], eta[:], values[:] = 0.0, 0.0, 0.0
    assert list(vector.p) == [0.25, 0.75]
    assert list(family.ps[0]) == list(family.etas[0]) == list(psi.values) == [1.0] * 4


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_records_keep_their_field_order(cls):
    assert issubclass(cls, tuple) and cls._fields == RECORDS[cls]


def test_refinement_result_keeps_its_fit_order():
    result = RECORDS_BUILT[continuum.RefinementResult]()
    assert result.fit_order == 1 and tuple(result._asdict()) == RECORDS[type(result)]
    assert list(result.rows[1]) == [2, 2, 0.5, 1.0]
