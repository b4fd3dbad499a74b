"""Periodic quadrature and the period mean of rho^-2."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evosis.model import EvolutionRate
from evosis.quadrature import PeriodicSamples, mean_inverse_rho_squared, periodic_integral, sample_periodic

QUARTER_TURN = math.pi / 2

# Bessel identity: mean over one period of exp(-2k(1 - cos)) = exp(-2k) I0(2k).
MEAN_INV_RHO2 = {
    0.35: 0.559305526507068,
    0.30: 0.599327203079896,
    -0.15: 1.380401899956716,
    -0.20: 1.552097074199726,
}

# integral of sin^2(4t) over [0, pi/2]
SIN_SQUARED_INTEGRAL = math.pi / 4


def _rate(amplitude: float) -> EvolutionRate:
    return EvolutionRate(kind="exp-cosine", period=QUARTER_TURN,
                         amplitude=amplitude, frequency=4.0)


# ---- sample container ----

def test_samples_require_enough_panels():
    with pytest.raises(ValueError, match="at least"):
        PeriodicSamples.from_values(np.ones(5), 1.0)


def test_samples_require_closed_endpoints():
    values = np.linspace(0.0, 1.0, 17)
    with pytest.raises(ValueError, match="endpoints differ"):
        PeriodicSamples.from_values(values, 1.0)


def test_samples_require_finite_values():
    values = np.ones(17)
    values[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        PeriodicSamples.from_values(values, 1.0)


def test_samples_times_span_period():
    samples = PeriodicSamples.from_values(np.ones(17), 2.0)
    assert samples.times[0] == 0.0
    assert samples.times[-1] == pytest.approx(2.0, abs=1e-15)


def test_sample_periodic_counts_panels():
    samples = sample_periodic(lambda t: np.cos(4.0 * t), QUARTER_TURN, 32)
    assert samples.values.size == 33


# ---- integrals ----

def test_periodic_integral_is_spectrally_accurate():
    samples = sample_periodic(lambda t: np.sin(4.0 * t) ** 2, QUARTER_TURN, 64)
    assert periodic_integral(samples) == pytest.approx(SIN_SQUARED_INTEGRAL, abs=1e-12)


def test_mean_inverse_rho_squared_constant_domain():
    rate = EvolutionRate(kind="constant-one", period=1.0)
    assert mean_inverse_rho_squared(rate) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("amplitude", sorted(MEAN_INV_RHO2))
def test_mean_inverse_rho_squared_matches_bessel_identity(amplitude):
    value = mean_inverse_rho_squared(_rate(amplitude), panels=256)
    assert value == pytest.approx(MEAN_INV_RHO2[amplitude], abs=1e-12)


def test_mean_inverse_rho_squared_converges_fast():
    coarse = mean_inverse_rho_squared(_rate(0.35), panels=8)
    assert coarse == pytest.approx(MEAN_INV_RHO2[0.35], abs=1e-6)
