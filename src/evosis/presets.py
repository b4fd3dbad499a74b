"""Bundled ready-to-run configurations.

Each preset is a JSON document in the package's presets/ directory using
the schema described in docs/config_schema.md. The fixed/evolving pairs
share every rate except the domain evolution, so their reproduction
numbers isolate the effect of the periodic motion.
"""

from __future__ import annotations

import json
from importlib import resources

from .errors import ConfigurationError
from .model import ModelConfig, config_from_dict, validate_config

PRESET_NAMES = (
    "example1-fixed",
    "example1-evolving",
    "example2-fixed",
    "example2-evolving",
    "example3-a",
    "example3-b",
    "example4-a",
    "example4-b",
)

# example3-a is the same document as example1-evolving; the name stays
# because the reproduction table reports it.
_PRESET_FILES = {"example3-a": "example1-evolving"}

_ERR_UNKNOWN = "preset: unknown name {name!r}; available: {names}"


def preset_names() -> tuple[str, ...]:
    return PRESET_NAMES


def preset_text(name: str) -> str:
    """Raw JSON text of a bundled preset."""
    if name not in PRESET_NAMES:
        raise ConfigurationError([_ERR_UNKNOWN.format(name=name, names=list(PRESET_NAMES))])
    stem = _PRESET_FILES.get(name, name)
    return (resources.files("evosis") / "presets" / f"{stem}.json").read_text(encoding="utf-8")


def load_preset(name: str) -> ModelConfig:
    """Loads and validates a bundled preset by name."""
    return validate_config(config_from_dict(json.loads(preset_text(name))))
