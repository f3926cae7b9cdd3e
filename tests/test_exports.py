"""Every name the package exports resolves to its submodule's object.

The package serves these names on first access from lazily loaded
submodules, so each is checked by name: ``from effnum import <name>``,
``dir(effnum)`` and ``effnum.__all__``.
"""

import importlib

import pytest

import effnum

EXPORTED = {
    "errors": "ConvergenceError EffnumError InvalidInput InvariantViolation",
    "counting": "CountingFunction CountingFunctionReport ProbabilityVector WeightVector concat "
                "effnum effnum_min exact_sums product validate_counting_function "
                "weights_from_probs",
    "states": "MeasurementSetup OrthogonalDecomposition OrthonormalBasis PureState "
              "metric_uncertainty mu_uncertainty subspace_probs",
    "entropy": "GammaScanResult dfd_gamma_scan mu_entropy",
    "density": "BipartiteStructure DensityMatrix Eigensystem entanglement_weights hermitian_eigen "
               "mu_entanglement partial_trace quantum_effnum schmidt_weights spectral_weights",
    "continuum": "Grid GridWaveFunction RefinementProblem RefinementResult SectorFamily "
                 "SpectralDensityPair constant_refinement_problem effective_volume "
                 "interval_refinement_problem refine_sequence relative_mu_continuum riemann_sum",
    "simulate": "OutcomeCounts PluginEstimate empirical_probs plugin_mu_estimate sample_outcomes",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


def test_the_export_list_is_complete():
    assert len(NAMES) == 52
    assert sorted(effnum.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_an_exported_name_is_its_submodules_object(module, name):
    namespace = {}
    exec(f"from effnum import {name}", namespace)
    home = importlib.import_module(f"effnum.{module}")
    assert namespace[name] is getattr(home, name) is getattr(effnum, name)
    assert name in dir(effnum)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        effnum.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from effnum import no_such_name", {})
    assert not hasattr(effnum, "Frozen")


# A kernel-suffixed wrapper is its function called with the kernel; the next
# were second paths to a quantity one of the exported functions computes; the
# last are identity checkers and an exact-rational oracle that no command
# runs, now in tests/oracles.py.
GONE = ["quantum_effnum_min", "mu_entanglement_min", "mu_uncertainty_min", "mu_entropy_min",
        "mu_entropy_alpha", "mixed_relative_mu", "effective_jordan_content", "DofModel",
        "k_equivalent", "dfd", "basis_change", "OutcomeSequence", "PartitionAdditivityResult",
        "partition_additivity_check", "ReparamCheckResult", "reparametrization_check",
        "superadditivity_gap", "empirical_fractions"]


@pytest.mark.parametrize("name", GONE)
def test_a_removed_name_does_not_resolve(name):
    assert name not in effnum.__all__ and name not in dir(effnum)
    assert not any(hasattr(importlib.import_module(f"effnum.{module}"), name)
                   for module in EXPORTED)
    with pytest.raises(ImportError):
        exec(f"from effnum import {name}", {})
