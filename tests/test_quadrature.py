"""Periodic quadrature and the period mean of rho^-2."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evosis.errors import ConfigurationError
from evosis.model import EvolutionRate
from evosis.quadrature import mean_inverse_rho_squared

QUARTER_TURN = math.pi / 2

# Bessel identity: mean over one period of exp(-2k(1 - cos)) = exp(-2k) I0(2k).
MEAN_INV_RHO2 = {
    0.35: 0.559305526507068,
    0.30: 0.599327203079896,
    -0.15: 1.380401899956716,
    -0.20: 1.552097074199726,
}


def _rate(amplitude: float, frequency: float = 4.0) -> EvolutionRate:
    return EvolutionRate(kind="exp-cosine", period=QUARTER_TURN,
                         amplitude=amplitude, frequency=frequency)


# ---- checks on the request ----

def test_samples_require_enough_panels():
    with pytest.raises(ValueError, match="at least 8 panels, got 4"):
        mean_inverse_rho_squared(_rate(0.35), panels=4)


def test_samples_require_closed_endpoints():
    # three quarter turns per period: rho(T) != rho(0)
    with pytest.raises(ConfigurationError, match="frequency"):
        mean_inverse_rho_squared(_rate(0.35, frequency=3.0))


def test_samples_require_finite_values():
    # exp(2 * 400) overflows at the half period
    with pytest.raises(ConfigurationError, match="finite"):
        mean_inverse_rho_squared(_rate(400.0))


def test_sample_periodic_counts_panels():
    # on closed periodic samples the trapezoid rule is the mean of the
    # first `panels` samples
    rate = _rate(0.35)
    times = np.arange(32) * (QUARTER_TURN / 32)
    expected = float(np.mean(rate.value(times) ** -2.0))
    assert mean_inverse_rho_squared(rate, panels=32) == pytest.approx(expected, rel=1e-14)


# ---- period means ----

def test_periodic_integral_is_spectrally_accurate():
    assert mean_inverse_rho_squared(_rate(0.35), panels=64) == pytest.approx(MEAN_INV_RHO2[0.35], abs=1e-14)


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
