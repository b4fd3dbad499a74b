"""Periodic quadrature over one period of the domain evolution."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .model import EvolutionRate

MIN_SAMPLES = 8

_ERR_TOO_FEW = "periodic samples need at least {minimum} panels, got {count}"


def mean_inverse_rho_squared(rho: EvolutionRate, panels: int = 256) -> float:
    """Period average of rho(t)**-2, the quantity scaling separable rates.

    Uses the composite trapezoid rule on panels+1 uniform closed samples,
    which is spectrally accurate for a smooth periodic integrand.

    Args:
        rho: domain evolution rate.
        panels: number of trapezoid panels over one period (at least 8).

    Returns:
        (1/T) * integral over [0, T] of rho(t)**-2.

    Raises:
        ValueError: fewer than 8 panels.
        ConfigurationError: rho is not a valid T-periodic rate.
    """
    if panels < MIN_SAMPLES:
        raise ValueError(_ERR_TOO_FEW.format(minimum=MIN_SAMPLES, count=panels))
    errors = rho.validate()
    if errors:
        raise ConfigurationError(errors)
    times = np.linspace(0.0, rho.period, panels + 1)
    values = np.asarray(rho.value(times), dtype=float) ** -2.0
    return float(np.trapezoid(values, dx=rho.period / panels)) / rho.period
