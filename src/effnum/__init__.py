"""Effective-number analysis of quantum states, density matrices and
probability distributions: measurement uncertainty expressed as outcome
abundance, the entropies it induces, entanglement via the state content of
reduced density matrices, continuum effective volumes, and a reproducible
Monte Carlo measurement simulator."""

from .counting import (
    CountingFunction,
    CountingFunctionReport,
    ProbabilityVector,
    WeightVector,
    concat,
    effnum,
    effnum_min,
    exact_sums,
    product,
    validate_counting_function,
    weights_from_probs,
)
from .states import (
    MeasurementSetup,
    OrthogonalDecomposition,
    OrthonormalBasis,
    PureState,
    basis_change,
    metric_uncertainty,
    mu_uncertainty,
    mu_uncertainty_min,
    subspace_probs,
)
from .entropy import (
    DofModel,
    GammaScanResult,
    dfd,
    dfd_gamma_scan,
    k_equivalent,
    mu_entropy,
    mu_entropy_alpha,
    mu_entropy_min,
    superadditivity_gap,
)
from .density import (
    BipartiteStructure,
    DensityMatrix,
    Eigensystem,
    density_from_ensemble,
    entanglement_weights,
    hermitian_eigen,
    mu_entanglement,
    mu_entanglement_min,
    partial_trace,
    quantum_effnum,
    quantum_effnum_min,
    quantum_mu_entropy,
    quantum_mu_entropy_min,
    schmidt_weights,
)
from .continuum import (
    Grid,
    GridWaveFunction,
    PartitionAdditivityResult,
    RefinementLevel,
    RefinementResult,
    ReparamCheckResult,
    SectorFamily,
    SpectralDensityPair,
    constant_refinement_problem,
    effective_jordan_content,
    effective_volume,
    effective_volume_density,
    interval_refinement_problem,
    mixed_relative_mu,
    partition_additivity_check,
    refine_sequence,
    relative_mu_continuum,
    reparametrization_check,
    riemann_sum,
)
from .simulate import (
    OutcomeSequence,
    PluginEstimate,
    empirical_fractions,
    empirical_probs,
    plugin_mu_estimate,
    sample_outcomes,
)
from .errors import ConvergenceError, EffnumError, InvalidInput, InvariantViolation

__version__ = "0.1.0"
