"""Epidemic thresholds on periodically evolving one-dimensional habitats.

Simulation of a susceptible/infected reaction-diffusion system with
logistic susceptible growth on a periodically stretching interval, the
basic reproduction number of its periodic linearization, and desk-scale
verification of the comparison, limit, and threshold theory.
"""

from .analysis import classify_stability, sweep_diffusivity, sweep_length, verify_limit
from .dfe import solve_dfe
from .engine import LinearEquationSpec
from .model import (
    CoefficientProfile,
    EvolutionRate,
    InitialSpec,
    ModelConfig,
    config_from_dict,
    config_to_dict,
    evaluate_coefficient,
    validate_config,
)
from .presets import load_preset, preset_names
from .quadrature import mean_inverse_rho_squared
from .spectral import (
    closed_form_r0,
    compute_r0,
    invasion_eigenvalue,
    period_map_spectral_radius,
    r0_bounds,
    r0_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientProfile",
    "EvolutionRate",
    "InitialSpec",
    "LinearEquationSpec",
    "ModelConfig",
    "classify_stability",
    "closed_form_r0",
    "compute_r0",
    "config_from_dict",
    "config_to_dict",
    "evaluate_coefficient",
    "invasion_eigenvalue",
    "load_preset",
    "mean_inverse_rho_squared",
    "period_map_spectral_radius",
    "preset_names",
    "r0_bounds",
    "r0_closed_form",
    "solve_dfe",
    "sweep_diffusivity",
    "sweep_length",
    "validate_config",
    "verify_limit",
]
