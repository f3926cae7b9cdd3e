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
import pickle

import numpy as np
import pytest

import effnum
from effnum import continuum, counting, entropy, simulate
from effnum.counting import Frozen

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
    effnum.OutcomeSequence: lambda: effnum.OutcomeSequence([0, 2, 1], seed=5, m_count=3, run=1),
}

# Each record's fields, in the order of its json keys and csv columns.
RECORDS = {
    counting.ConditionCheck: ("name", "passed", "detail"),
    counting.CountingFunctionReport: ("checks",),
    entropy.ScanStep: ("n", "ratio", "k_eq"),
    entropy.GammaScanResult: ("steps", "gamma", "residual", "window"),
    continuum.PartitionAdditivityResult: ("value", "split_value", "gap", "fractions"),
    continuum.ReparamCheckResult: ("value", "mapped_value", "discrepancy", "error_bound"),
    continuum.RefinementRow: ("level", "m_count", "spacing", "ratio"),
    continuum.RefinementResult: ("rows", "extrapolated", "residual", "window"),
    simulate.PluginEstimate: ("estimate", "stderr", "n_bootstrap"),
}
RECORDS_BUILT = {
    counting.CountingFunctionReport: lambda: effnum.validate_counting_function(
        effnum.CountingFunction.minimal()),
    entropy.GammaScanResult: lambda: effnum.dfd_gamma_scan(
        [(n, np.full(n, 1.0 / n)) for n in (2, 4, 8)], effnum.CountingFunction.minimal()),
    continuum.PartitionAdditivityResult: lambda: effnum.partition_additivity_check(
        VALUES[effnum.SpectralDensityPair](), np.arange(4) < 2, effnum.CountingFunction.minimal()),
    continuum.ReparamCheckResult: lambda: continuum.ReparamCheckResult(1.0, 1.0, 0.0, 1e-14),
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


def test_arrays_are_copied_from_the_caller():
    p, eta = np.array([0.25, 0.75]), np.ones(4)
    vector, family = effnum.ProbabilityVector(p), effnum.SectorFamily([eta], [eta], GRID)
    p[:], eta[:] = 0.0, 0.0
    assert list(vector.p) == [0.25, 0.75]
    assert list(family.ps[0]) == list(family.etas[0]) == [1.0] * 4


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_records_keep_their_field_order(cls):
    assert issubclass(cls, tuple) and cls._fields == RECORDS[cls]


def test_refinement_result_keeps_its_fit_order():
    result = RECORDS_BUILT[continuum.RefinementResult]()
    assert result.fit_order == 1 and tuple(result._asdict()) == RECORDS[type(result)]
    assert list(result.rows[1]) == [2, 2, 0.5, 1.0]
