"""Singlet spin correlations in space and time.

A simulation and analysis toolkit for entangled spin-1/2 pairs whose
wave function has both a spin part and a spatial part:

* :mod:`bellspace.spin` - exact singlet correlations, joint outcome
  probabilities and CHSH statistics;
* :mod:`bellspace.spatial` - Gaussian packets, detector regions, the
  localization factor g and wave-packet spreading;
* :mod:`bellspace.lhv` - local-hidden-variable models with bounded response
  functions, including the cosine family reproducing g*cos(alpha - beta);
* :mod:`bellspace.feasibility` - exact local-correlation-polytope membership
  with Bell-inequality certificates and the maximal feasible scaling;
* :mod:`bellspace.qkd` - a two-particle key-distribution simulation with
  CHSH-based eavesdropper detection under localized detectors;
* :mod:`bellspace.config` - the strict reader every JSON config block goes
  through;
* :mod:`bellspace.cli` - the ``bellspace`` command-line front end.
"""

__version__ = "0.1.0"

from .feasibility import (
    BellCertificate,
    CorrelationTarget,
    FeasibilityResult,
    FeasibilitySolverError,
    canonical_cosine_target,
    chsh_certificate,
    cosine_target,
    local_polytope_membership,
    max_feasible_scale,
    verify_certificate,
)
from .lhv import (
    CorrelationEstimate,
    HiddenVariableModel,
    cosine_model,
    model_chsh,
    model_expectation_exact,
    model_expectation_mc,
    random_bounded_model,
)
from .qkd import (
    ChshPair,
    LhvEveChannel,
    QkdConfig,
    QkdSessionReport,
    QuantumLocalizedChannel,
    RoundLog,
    RoundRecord,
    decide_verdict,
    detectability_threshold_report,
    run_session,
)
from .rng import DEFAULT_SEED, make_generator, split_generators
from .spatial import (
    BoxRegion,
    GaussianPacket,
    LocalizationFactor,
    QuadratureError,
    SpatialSetup,
    expanded_width,
    g_decay_curve,
    g_factor_product,
    g_factor_quadrature,
    packet_probability_in_box,
    product_density,
    separated_gaussian_setup,
    setup_from_dict,
    setup_g_factor,
)
from .spin import (
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_BOUND,
    ChshSettings,
    OutcomePair,
    UnitVector3,
    alice_direction,
    bob_direction,
    canonical_chsh_settings,
    chsh_statistic,
    joint_outcome_probability,
    quantum_chsh,
    singlet_correlation,
    unit_from_planar_angle,
)

__all__ = [
    "__version__",
    "DEFAULT_SEED",
    "CHSH_CLASSICAL_BOUND",
    "CHSH_QUANTUM_BOUND",
    "BellCertificate",
    "BoxRegion",
    "ChshPair",
    "ChshSettings",
    "CorrelationEstimate",
    "CorrelationTarget",
    "FeasibilityResult",
    "FeasibilitySolverError",
    "GaussianPacket",
    "HiddenVariableModel",
    "LhvEveChannel",
    "LocalizationFactor",
    "OutcomePair",
    "QkdConfig",
    "QkdSessionReport",
    "QuadratureError",
    "QuantumLocalizedChannel",
    "RoundLog",
    "RoundRecord",
    "SpatialSetup",
    "UnitVector3",
    "alice_direction",
    "bob_direction",
    "canonical_chsh_settings",
    "canonical_cosine_target",
    "chsh_certificate",
    "chsh_statistic",
    "cosine_model",
    "cosine_target",
    "decide_verdict",
    "detectability_threshold_report",
    "expanded_width",
    "g_decay_curve",
    "g_factor_product",
    "g_factor_quadrature",
    "joint_outcome_probability",
    "local_polytope_membership",
    "make_generator",
    "max_feasible_scale",
    "model_chsh",
    "model_expectation_exact",
    "model_expectation_mc",
    "packet_probability_in_box",
    "product_density",
    "quantum_chsh",
    "random_bounded_model",
    "run_session",
    "separated_gaussian_setup",
    "setup_from_dict",
    "setup_g_factor",
    "singlet_correlation",
    "split_generators",
    "unit_from_planar_angle",
    "verify_certificate",
]
