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
    "states": "MeasurementSetup OrthogonalDecomposition OrthonormalBasis PureState basis_change "
              "metric_uncertainty mu_uncertainty mu_uncertainty_min subspace_probs",
    "entropy": "DofModel GammaScanResult dfd dfd_gamma_scan k_equivalent mu_entropy "
               "mu_entropy_alpha mu_entropy_min superadditivity_gap",
    "density": "BipartiteStructure DensityMatrix Eigensystem entanglement_weights hermitian_eigen "
               "mu_entanglement mu_entanglement_min partial_trace quantum_effnum "
               "quantum_effnum_min schmidt_weights",
    "continuum": "Grid GridWaveFunction PartitionAdditivityResult RefinementProblem "
                 "RefinementResult ReparamCheckResult SectorFamily SpectralDensityPair "
                 "constant_refinement_problem effective_jordan_content effective_volume "
                 "interval_refinement_problem mixed_relative_mu partition_additivity_check "
                 "refine_sequence relative_mu_continuum reparametrization_check riemann_sum",
    "simulate": "OutcomeSequence PluginEstimate empirical_fractions empirical_probs "
                "plugin_mu_estimate sample_outcomes",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


def test_the_export_list_is_complete():
    assert len(NAMES) == 68
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
