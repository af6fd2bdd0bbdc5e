"""Configuration ingestion: JSON with dB-suffixed keys -> SecrecyConfig."""

from __future__ import annotations

import dataclasses
import json

from .channels import FsoLinkParams, RfChannelParams
from .cun_cdf import PowerConstraints
from .errors import ConfigError, CunsecError
from .secrecy import SecrecyConfig

__all__ = ["config_from_dict", "config_to_dict", "load_config", "replace_by_path"]

_RF_KEYS = {"alpha", "mu", "avg_snr_db"}
_FSO_KEYS = {"alpha_o", "beta_o", "g", "omega_total", "epsilon", "s",
             "avg_snr_db", "blockage_p", "electrical_snr_db"}
_POWER_KEYS = {"psi_q_db", "psi_t_db", "scenario"}
_TOP_KEYS = {"rf_sr", "rf_sp", "rf_se", "fso", "power", "target_rate"}


def _check_keys(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _rf(d, where):
    _check_keys(d, _RF_KEYS, where)
    missing = _RF_KEYS - set(d)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")
    try:
        return RfChannelParams(alpha=d["alpha"], mu=d["mu"],
                               avg_snr_db=d["avg_snr_db"])
    except CunsecError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(d):
    """Build and fully validate a SecrecyConfig from a plain dict."""
    if not isinstance(d, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys(d, _TOP_KEYS, "top level")
    for key in ("rf_sr", "rf_sp", "rf_se", "fso", "power"):
        if key not in d:
            raise ConfigError(f"missing section {key!r}")
    fso_d = dict(d["fso"])
    _check_keys(fso_d, _FSO_KEYS, "fso")
    fso_d.setdefault("s", 1)
    fso_d.setdefault("blockage_p", 0.0)
    pow_d = dict(d["power"])
    _check_keys(pow_d, _POWER_KEYS, "power")
    pow_d.setdefault("scenario", "I")
    try:
        fso = FsoLinkParams(**fso_d)
        pc = PowerConstraints(**pow_d)
        return SecrecyConfig(
            rf_sr=_rf(d["rf_sr"], "rf_sr"),
            rf_sp=_rf(d["rf_sp"], "rf_sp"),
            rf_se=_rf(d["rf_se"], "rf_se"),
            fso=fso,
            pc=pc,
            target_rate=d.get("target_rate", 0.05),
        )
    except ConfigError:
        raise
    except CunsecError as exc:
        raise ConfigError(str(exc)) from exc
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg):
    out = {
        "rf_sr": dataclasses.asdict(cfg.rf_sr),
        "rf_sp": dataclasses.asdict(cfg.rf_sp),
        "rf_se": dataclasses.asdict(cfg.rf_se),
        "fso": dataclasses.asdict(cfg.fso),
        "power": dataclasses.asdict(cfg.pc),
        "target_rate": cfg.target_rate,
    }
    if out["fso"]["electrical_snr_db"] is None:
        del out["fso"]["electrical_snr_db"]
    if out["power"]["psi_t_db"] is None:
        del out["power"]["psi_t_db"]
    return out


def load_config(path):
    """Load a JSON config file into a validated SecrecyConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error in {path} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    return config_from_dict(data)


_SECTION_FIELDS = {
    "rf_sr": "rf_sr", "rf_sp": "rf_sp", "rf_se": "rf_se",
    "fso": "fso", "power": "pc", "pc": "pc",
}


def _field_path(cfg, dotted):
    """(config attribute, field name) of the scalar field at a dotted path,
    e.g. ('pc', 'psi_q_db') for 'power.psi_q_db', or (None, 'target_rate');
    ConfigError unless the path names a dataclass field (not a property or
    a method)."""
    if dotted == "target_rate":
        return None, dotted
    parts = dotted.split(".")
    if len(parts) != 2 or parts[0] not in _SECTION_FIELDS:
        raise ConfigError(
            f"axis path {dotted!r} must be 'target_rate' or "
            f"'<section>.<field>' with section in {sorted(_SECTION_FIELDS)}")
    attr = _SECTION_FIELDS[parts[0]]
    names = [f.name for f in dataclasses.fields(getattr(cfg, attr))]
    if parts[1] not in names:
        raise ConfigError(f"{parts[0]} has no field {parts[1]!r}; "
                          f"pick from {names}")
    return attr, parts[1]


def replace_by_path(cfg, dotted, value):
    """Return a config with one scalar field replaced, e.g. 'power.psi_q_db'.

    'target_rate' is addressed without a section prefix.
    """
    attr, name = _field_path(cfg, dotted)
    if attr is None:
        return dataclasses.replace(cfg, target_rate=float(value))
    try:
        new_section = dataclasses.replace(getattr(cfg, attr), **{name: value})
    except CunsecError as exc:
        raise ConfigError(str(exc)) from exc
    return dataclasses.replace(cfg, **{attr: new_section})
