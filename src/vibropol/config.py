"""Flat key = value configuration files and shipped emitter presets.

The format is one ``key = value`` per line with ``#`` comments; command
line flags override file values.  Presets live in the package's
``presets/`` directory and are ordinary config files, so every
calibration constant is versioned and visible.
"""

from __future__ import annotations

from importlib import resources

from .core import EmitterModel, PhononMode, ValidationError

PRESET_NAMES = ("weak_coupling", "strong_coupling")


def parse_config(text: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _to_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from None


def _get_float(cfg: dict, key: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ValidationError(f"missing config key {key!r}")
        return default
    return _to_float(key, cfg[key])


def model_from_config(cfg: dict, **overrides) -> EmitterModel:
    """Build an EmitterModel from a parsed config, flags winning."""
    cfg = dict(cfg)
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = str(val)
    modes = []
    k = 1
    while f"mode{k}" in cfg:
        parts = [p.strip() for p in cfg[f"mode{k}"].split(",")]
        if len(parts) != 5:
            raise ValidationError(
                f"mode{k} must be 'energy_mev, hr, dq, grad, grad_dir_deg'")
        vals = [_to_float(f"mode{k}", p) for p in parts]
        modes.append(PhononMode(*vals))
        k += 1
    acoustic_dir = cfg.get("acoustic_grad_direction_deg")
    return EmitterModel(
        zpl_energy=_get_float(cfg, "zpl_energy_ev"),
        equilibrium_angle=_get_float(cfg, "equilibrium_angle_deg", 0.0),
        equilibrium_dipole=_get_float(cfg, "equilibrium_dipole", 1.0),
        modes=tuple(modes),
        zpl_linewidth=_get_float(cfg, "zpl_linewidth_mev"),
        acoustic_coupling=_get_float(cfg, "acoustic_coupling", 0.0),
        acoustic_cutoff=_get_float(cfg, "acoustic_cutoff_mev", 2.0),
        temperature=_get_float(cfg, "temperature_k", 300.0),
        strain_bias=_get_float(cfg, "strain_bias", 0.0),
        zpl_profile=cfg.get("zpl_profile", "lorentzian"),
        acoustic_gradient=_get_float(cfg, "acoustic_gradient", 0.0),
        acoustic_grad_direction=(
            _to_float("acoustic_grad_direction_deg", acoustic_dir)
            if acoustic_dir is not None else None),
        orientation_jitter=_get_float(cfg, "orientation_jitter", 0.0),
    )


def model_to_config(model: EmitterModel) -> dict:
    cfg = {
        "zpl_energy_ev": f"{model.zpl_energy:.12g}",
        "equilibrium_angle_deg": f"{model.equilibrium_angle:.12g}",
        "equilibrium_dipole": f"{model.equilibrium_dipole:.12g}",
        "zpl_linewidth_mev": f"{model.zpl_linewidth:.12g}",
        "zpl_profile": model.zpl_profile,
        "acoustic_coupling": f"{model.acoustic_coupling:.12g}",
        "acoustic_cutoff_mev": f"{model.acoustic_cutoff:.12g}",
        "temperature_k": f"{model.temperature:.12g}",
        "strain_bias": f"{model.strain_bias:.12g}",
        "acoustic_gradient": f"{model.acoustic_gradient:.12g}",
        "acoustic_grad_direction_deg": f"{model.acoustic_direction:.12g}",
        "orientation_jitter": f"{model.orientation_jitter:.12g}",
    }
    for k, m in enumerate(model.modes, start=1):
        cfg[f"mode{k}"] = ", ".join(f"{v:.12g}" for v in (
            m.energy_mev, m.partial_hr, m.partial_dq,
            m.grad_magnitude, m.grad_direction))
    return cfg


def load_preset(name: str, **overrides) -> EmitterModel:
    """Load a shipped preset by name; overrides win over file values."""
    try:
        text = (resources.files("vibropol") / "presets"
                / f"{name}.cfg").read_text(encoding="utf-8")
    except (FileNotFoundError, ModuleNotFoundError):
        raise ValidationError(f"unknown preset {name!r}; available: "
                              f"{', '.join(PRESET_NAMES)}") from None
    return model_from_config(parse_config(text), **overrides)
