"""Sweeps, extreme-parameter limits, and threshold classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evosis.analysis import (
    classify_stability,
    limit_target,
    sweep_diffusivity,
    sweep_length,
    verify_limit,
)
from evosis.engine import trapezoid_weights
from evosis.errors import ConfigurationError, NotApplicableError
from evosis.model import evaluate_coefficient
from evosis.presets import load_preset

# ---- frozen limit targets for the designed standard configuration ----
# beta(z) = 0.4 - 0.15 exp(-z/2), gamma(z) = 0.2 + 0.2 exp(-z/2),
# rho = exp(0.2(1 - cos 2t)), L = 1 (independent high-precision quadrature)
TARGET_SMALL_DIFFUSIVITY = 1.033757384868516
TARGET_LARGE_DIFFUSIVITY = 0.824026946815691
TARGET_SMALL_LENGTH = 0.625
TARGET_LARGE_LENGTH = 2.0


# ---- monotone sweeps ----

def test_diffusivity_sweep_standard_orientation(designed_config):
    table = sweep_diffusivity(designed_config(), (0.05, 0.1, 0.2, 0.4))
    assert table.verdict == "strictly-decreasing"
    assert table.violation_indices == ()
    assert table.param == "d_I"
    assert table.r0_values[0] > table.r0_values[-1]


def test_length_sweep_standard_orientation(designed_config):
    table = sweep_length(designed_config(), (0.5, 1.0, 2.0, 4.0))
    assert table.verdict == "strictly-increasing"
    assert table.r0_values[-1] > 1.0 > table.r0_values[0]


def test_length_sweep_mirrored_orientation(designed_config):
    table = sweep_length(designed_config(mirrored=True), (0.5, 1.0, 2.0, 4.0))
    assert table.verdict == "strictly-decreasing"
    assert table.violation_indices == ()


def test_diffusivity_sweep_mirrored_orientation(designed_config):
    table = sweep_diffusivity(designed_config(mirrored=True), (0.05, 0.1, 0.2, 0.4))
    assert table.verdict == "strictly-decreasing"


def test_sweep_rejects_unsorted_or_short_sequences(designed_config):
    config = designed_config()
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep_diffusivity(config, (0.4, 0.1))
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep_length(config, (1.0,))


# ---- limit targets ----

def test_limit_targets_match_independent_quadrature(designed_config):
    config = designed_config()
    assert limit_target(config, "small-diffusivity") == pytest.approx(
        TARGET_SMALL_DIFFUSIVITY, abs=1e-9)
    assert limit_target(config, "large-diffusivity") == pytest.approx(
        TARGET_LARGE_DIFFUSIVITY, rel=1e-4)
    assert limit_target(config, "small-length") == pytest.approx(
        TARGET_SMALL_LENGTH, abs=1e-12)
    assert limit_target(config, "large-length") == pytest.approx(
        TARGET_LARGE_LENGTH, abs=1e-12)


def test_large_diffusivity_target_equals_the_full_table_value():
    """The node sums beta @ w and gamma @ w over compact coefficient tables
    round exactly as over materialized full tables (here beta is one value
    and gamma one column)."""
    config = load_preset("example1-evolving")
    nodes = config.grid.nodes
    times = np.linspace(0.0, config.T, 513)
    beta, gamma = (np.array(np.broadcast_to(evaluate_coefficient(getattr(config, name), config.rho, nodes,
                                                                 times[:, None]), (times.size, nodes.size)))
                   for name in ("beta", "gamma"))
    w = trapezoid_weights(config.grid)
    dt = times[1] - times[0]
    expected = float(np.trapezoid(beta @ w, dx=dt) / np.trapezoid(gamma @ w, dx=dt))
    assert limit_target(config, "large-diffusivity") == expected


@pytest.mark.parametrize("check", [limit_target, lambda config, kind: verify_limit(config, kind, (0.1, 0.05))],
                         ids=["limit_target", "verify_limit"])
def test_limit_target_rejects_unknown_kind(designed_config, check):
    with pytest.raises(ValueError, match="unknown limit kind 'huge-period'"):
        check(designed_config(), "huge-period")


def test_limit_target_needs_finite_far_field():
    with pytest.raises(NotApplicableError, match="far-field"):
        limit_target(load_preset("example4-a"), "large-length")


def test_verify_limit_small_length_sequence(designed_config):
    report = verify_limit(designed_config(), "small-length", (0.5, 0.1, 0.01))
    assert report.target == pytest.approx(TARGET_SMALL_LENGTH, abs=1e-12)
    assert report.gaps_monotone
    assert not report.flagged
    assert report.final_gap < 0.01


def test_verify_limit_rejects_wrong_ordering(designed_config):
    config = designed_config()
    with pytest.raises(ValueError, match="monotonically"):
        verify_limit(config, "small-length", (0.01, 0.1))
    with pytest.raises(ValueError, match="monotonically"):
        verify_limit(config, "large-length", (4.0, 2.0))


# ---- threshold classification ----

def test_classifier_reports_near_threshold_without_simulating(preset_r0):
    config = load_preset("example1-fixed")
    verdict = classify_stability(config, r0=preset_r0["example1-fixed"])
    assert verdict.classification == "near-threshold"
    assert verdict.periods_run == 0
    assert verdict.stop_reason == "not-run"
    assert math.isnan(verdict.sup_I_final)
    assert not verdict.flagged


def test_classifier_detects_extinction(preset_r0):
    config = load_preset("example4-a").with_resolution(64, 320)
    verdict = classify_stability(config, horizon_periods=60,
                                 r0=preset_r0["example4-a"])
    assert verdict.classification == "extinction"
    assert verdict.sup_I_final < 1e-4
    assert verdict.first_extinct_period is not None
    assert verdict.first_extinct_period <= 60
    assert verdict.stop_reason == "extinct" and verdict.periods_run < 60
    assert not verdict.flagged


def test_classifier_detects_persistence(preset_r0):
    config = load_preset("example2-fixed").with_resolution(64, 320)
    verdict = classify_stability(config, horizon_periods=30,
                                 r0=preset_r0["example2-fixed"])
    assert verdict.classification == "persistence"
    assert verdict.persistence_floor > 1e-3
    assert verdict.periods_run == 30
    assert verdict.stop_reason == "horizon"
    assert not verdict.flagged


def test_classifier_reports_inconclusive_between_the_two_levels():
    """Six periods of example4-a leave the infected sup at 4.08e-4, still
    decaying: above the extinction level 1e-4, and the smallest of the last
    five period ends is the same value, below the persistence floor 1e-3."""
    config = load_preset("example4-a").with_resolution(32, 200)
    verdict = classify_stability(config, horizon_periods=6, r0=0.497)
    assert verdict.classification == "inconclusive"
    assert 1e-4 < verdict.sup_I_final < 1e-3
    assert verdict.persistence_floor == verdict.sup_I_final
    assert verdict.periods_run == 6
    assert verdict.stop_reason == "horizon"
    assert verdict.first_extinct_period is None
    assert not verdict.flagged


def test_classifier_computes_r0_when_missing():
    config = load_preset("example2-fixed").with_resolution(48, 192)
    verdict = classify_stability(config, horizon_periods=20)
    assert verdict.r0 == pytest.approx(1.4, abs=1e-4)
    assert verdict.classification == "persistence"


def test_classifier_rejects_a_horizon_below_one_period():
    config = load_preset("example4-a").with_resolution(16, 32)
    with pytest.raises(ConfigurationError, match="periods"):
        classify_stability(config, horizon_periods=0, r0=0.5)
