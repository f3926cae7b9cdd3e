"""Effective-number analysis of quantum states, density matrices and
probability distributions: measurement uncertainty expressed as outcome
abundance, the entropies it induces, entanglement via the state content of
reduced density matrices, continuum effective volumes, and a reproducible
Monte Carlo measurement simulator.

Every submodule but ``cli`` is registered lazily: it is in ``sys.modules``
and on the package from the start, and is compiled and run when one of its
attributes is first read.  The names in ``__all__`` are served from their
submodules by :func:`__getattr__`.  ``cli`` is left out because ``runpy``
warns when ``python -m effnum.cli`` finds it already in ``sys.modules``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConvergenceError", "EffnumError", "InvalidInput", "InvariantViolation"),
    "counting": (
        "CountingFunction",
        "CountingFunctionReport",
        "ProbabilityVector",
        "WeightVector",
        "concat",
        "effnum",
        "effnum_min",
        "exact_sums",
        "product",
        "validate_counting_function",
        "weights_from_probs",
    ),
    "states": (
        "MeasurementSetup",
        "OrthogonalDecomposition",
        "OrthonormalBasis",
        "PureState",
        "metric_uncertainty",
        "mu_uncertainty",
        "subspace_probs",
    ),
    "entropy": (
        "GammaScanResult",
        "dfd_gamma_scan",
        "mu_entropy",
    ),
    "density": (
        "BipartiteStructure",
        "DensityMatrix",
        "Eigensystem",
        "entanglement_weights",
        "hermitian_eigen",
        "mu_entanglement",
        "partial_trace",
        "quantum_effnum",
        "schmidt_weights",
        "spectral_weights",
    ),
    "continuum": (
        "Grid",
        "GridWaveFunction",
        "RefinementProblem",
        "RefinementResult",
        "SectorFamily",
        "SpectralDensityPair",
        "constant_refinement_problem",
        "effective_volume",
        "interval_refinement_problem",
        "refine_sequence",
        "relative_mu_continuum",
        "riemann_sum",
    ),
    "simulate": (
        "OutcomeCounts",
        "PluginEstimate",
        "empirical_probs",
        "plugin_mu_estimate",
        "sample_outcomes",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _register(module: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in (*_EXPORTS, "io", "decode"):
    _register(_module)
del _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
