"""Bundled example configurations."""

from __future__ import annotations

import json

import pytest

from evosis.errors import ConfigurationError
from evosis.model import config_to_dict
from evosis.presets import load_preset, preset_names, preset_text

EXPECTED_NAMES = (
    "example1-fixed",
    "example1-evolving",
    "example2-fixed",
    "example2-evolving",
    "example3-a",
    "example3-b",
    "example4-a",
    "example4-b",
)


def test_preset_catalogue_is_complete():
    assert preset_names() == EXPECTED_NAMES


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_every_preset_loads_with_default_resolution(name):
    config = load_preset(name)
    assert config.grid_points == 200
    assert config.steps_per_period == 2000
    assert config.d_I > 0
    assert config.T > 0


@pytest.mark.parametrize("pair", [
    ("example1-fixed", "example1-evolving"),
    ("example2-fixed", "example2-evolving"),
])
def test_fixed_and_evolving_variants_differ_only_in_domain_motion(pair):
    fixed_doc = config_to_dict(load_preset(pair[0]))
    evolving_doc = config_to_dict(load_preset(pair[1]))
    assert fixed_doc["rho"]["kind"] == "constant-one"
    assert evolving_doc["rho"]["kind"] == "exp-cosine"
    fixed_doc.pop("rho")
    evolving_doc.pop("rho")
    assert fixed_doc == evolving_doc


def test_faster_motion_variant_shares_coefficients_with_base_case():
    # example3-a revisits the example-1 coefficients under the same motion
    # law; the pair documents that the two entry points stay in sync.
    assert config_to_dict(load_preset("example3-a")) == config_to_dict(
        load_preset("example1-evolving"))


def test_preset_text_round_trips_through_json():
    for name in EXPECTED_NAMES:
        document = json.loads(preset_text(name))
        assert isinstance(document, dict)
        assert "beta" in document


def test_unknown_preset_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown name"):
        preset_text("example9-z")
    with pytest.raises(ConfigurationError, match="unknown name"):
        load_preset("")
