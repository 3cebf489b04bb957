"""Flat key = value configuration files and shipped emitter presets.

One ``key = value`` per line with ``#`` comments; a repeated key's last
line wins, and command line flags win over files.  ``_KEYS`` maps each key
to its ``EmitterModel`` field, a key left out taking the field's default;
modes follow as ``mode1`` to ``modeN`` with no gap, and any other key is
refused.  Presets are ordinary config files in the package's ``presets/``.
"""

from __future__ import annotations

from dataclasses import MISSING, astuple, fields, replace
from importlib import resources

from .core import EmitterModel, PhononMode, ValidationError

PRESET_NAMES = ("weak_coupling", "strong_coupling")

# config key -> EmitterModel field, in the order model_to_config writes them
_KEYS = {
    "zpl_energy_ev": "zpl_energy",
    "equilibrium_angle_deg": "equilibrium_angle",
    "equilibrium_dipole": "equilibrium_dipole",
    "zpl_linewidth_mev": "zpl_linewidth", "zpl_profile": "zpl_profile",
    "acoustic_coupling": "acoustic_coupling",
    "acoustic_cutoff_mev": "acoustic_cutoff", "temperature_k": "temperature",
    "strain_bias": "strain_bias", "acoustic_gradient": "acoustic_gradient",
    "acoustic_grad_direction_deg": "acoustic_grad_direction",
    "orientation_jitter": "orientation_jitter",
}
_DEFAULTS = {f.name: f.default for f in fields(EmitterModel)}


def parse_config(text: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, eq, value = raw.split("#", 1)[0].partition("=")
        if not eq and key.strip():
            raise ValidationError(f"config line {lineno} is not 'key = value'")
        if eq:
            cfg[key.strip()] = value.strip()
    return cfg


def read_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError:
        raise ValidationError(f"{path} is not UTF-8 text") from None


def _to_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from None


def model_from_config(cfg: dict, **overrides) -> EmitterModel:
    """A parsed config as an EmitterModel; overrides other than None win."""
    cfg = {**cfg, **{k: str(v) for k, v in overrides.items() if v is not None}}
    modes, values = [], {}
    while (key := f"mode{len(modes) + 1}") in cfg:
        parts = cfg.pop(key).split(",")
        if len(parts) != 5:
            raise ValidationError(
                f"{key} must be 'energy_mev, hr, dq, grad, grad_dir_deg'")
        modes.append(PhononMode(*(_to_float(key, p) for p in parts)))
    if unknown := sorted(map(repr, set(cfg) - set(_KEYS))):
        raise ValidationError(f"unknown config key {', '.join(unknown)}")
    for key, name in _KEYS.items():
        if key in cfg:              # a text field has a text default
            values[name] = (cfg[key] if isinstance(_DEFAULTS[name], str)
                            else _to_float(key, cfg[key]))
        elif _DEFAULTS[name] is MISSING:
            raise ValidationError(f"missing config key {key!r}")
    return EmitterModel(modes=tuple(modes), **values)


def _text(value) -> str:
    return value if isinstance(value, str) else f"{value:.12g}"


def model_to_config(model: EmitterModel) -> dict:
    """The config of ``model``, its acoustic direction resolved."""
    model = replace(model, acoustic_grad_direction=model.acoustic_direction)
    cfg = {key: _text(getattr(model, name)) for key, name in _KEYS.items()}
    for k, m in enumerate(model.modes, start=1):
        cfg[f"mode{k}"] = ", ".join(map(_text, astuple(m)))
    return cfg


def load_preset(name: str, **overrides) -> EmitterModel:
    """Load a shipped preset by name; overrides win over file values."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; available: "
                              f"{', '.join(PRESET_NAMES)}")
    return model_from_config(read_config(
        resources.files("vibropol") / "presets" / f"{name}.cfg"), **overrides)
