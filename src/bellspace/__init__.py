"""Singlet spin correlations in space and time.

A simulation and analysis toolkit for entangled spin-1/2 pairs whose
wave function has both a spin part and a spatial part:

* :mod:`bellspace.spin` - exact singlet correlations, joint outcome
  probabilities, CHSH statistics and the detectability regimes of g;
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

The public names below are loaded on first access (PEP 562), each from the
one submodule that defines it, so ``import bellspace`` loads neither numpy
nor scipy; ``bellspace.qkd`` and the other submodule names resolve the same
way.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "feasibility": "BellCertificate CorrelationTarget FeasibilityResult "
        "FeasibilitySolverError canonical_cosine_target chsh_certificate cosine_target "
        "local_polytope_membership max_feasible_scale verify_certificate",
        "lhv": "CorrelationEstimate HiddenVariableModel cosine_model model_chsh "
        "model_expectation_exact model_expectation_mc random_bounded_model",
        "qkd": "ChshPair LhvEveChannel QkdConfig QkdSessionReport QuantumLocalizedChannel "
        "Behaviour RoundLog RoundRecord decide_verdict run_session",
        "rng": "DEFAULT_SEED make_generator split_generators",
        "spatial": "BoxRegion GaussianPacket LocalizationFactor QuadratureError SpatialSetup "
        "expanded_width g_decay_curve g_factor_quadrature "
        "packet_probability_in_box product_density separated_gaussian_setup "
        "setup_g_factor",
        "spin": "CHSH_CLASSICAL_BOUND CHSH_QUANTUM_BOUND ChshSettings OutcomePair "
        "UnitVector3 alice_direction bob_direction canonical_chsh_settings "
        "chsh_statistic detectability_threshold_report joint_outcome_probability "
        "quantum_chsh singlet_correlation",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset({"cli", "config", "feasibility", "lhv", "qkd", "rng", "spatial", "spin"})

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
