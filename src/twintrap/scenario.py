"""Scenario files: declarative system descriptions in YAML.

A scenario fixes the two trapped objects, the cavity, the environment, and
the drive, plus numerical settings for time evolution.  Units at this
boundary are SI; drive strengths and frequencies may alternatively be given
relative to the trap amplitude E0 and the mechanical frequencies, which is
how the regression scenarios shipped in ``twintrap/scenarios`` are written.

Schema (``schema_version: 1``)::

    schema_version: 1
    objects:                 # one entry (duplicated) or two
      - kind: microdisk | nanosphere
        diameter / thickness / radius: m
        relative_permittivity: float
        density: kg/m^3      # or mass: kg
        mechanical_quality: float
        recoil_scale: float in (0, 1]
    cavity:
      length: m
      trap_wavelength: m
      control_wavelengths: [m, m]
      finesse_eff: [f0, f1, f2]
      mode_waist: m          # optional, default calibrated value
      phases_over_pi: [[p11, p12], [p21, p22]]
      # or: phase_base_over_pi: [p11, p21]; antinode_offsets: [n1, n2]
    environment:
      temperature: K
      pressure: mbar         # optional, informational
    drive:
      trap_input_power_w: W          # or trap_amplitude_rad_s
      control_fractions: [f1, f2]    # of E0; or control_amplitudes_rad_s
      modulation_fractions: [f1, f2] # of E0; or modulation_amplitudes_rad_s
      modulation_frequency_sum_units: x   # w_D = x (Omega_1 + Omega_2)
      # or: modulation_frequency_rad_s
      detunings_omega1_units: [d1, d2]    # Delta_i = d_i Omega_1
      # or: detunings_rad_s
    numerics:                # all optional
      t_max_tau: float       # evolution horizon, units of tau = 4 pi/(W1+W2)
      steps_per_period: int
      store_per_period: int
    sweep:                   # optional, used by the sweep command
      axis: detuning | control_fraction
      values: [...]          # same relative units as the drive section
      # (no mod_frequency axis: sweep solves CW steady states, which carry
      # no modulation; scan the drive frequency with one evolve per value)

Unknown keys anywhere in the tree are rejected.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import model
from .model import ConfigError
from .pipeline import System

SCHEMA_VERSION = 1

#: Directory of regression scenarios shipped with the package.
SHIPPED_DIR = Path(__file__).parent / "scenarios"

SWEEP_AXES = ("detuning", "control_fraction")


@dataclass(frozen=True)
class Numerics:
    """Evolution horizon and sampling controls."""

    t_max_tau: float = 200.0
    steps_per_period: int | None = None
    store_per_period: int = 32


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario, ready to instantiate ``System`` objects."""

    objects: tuple[model.ObjectSpec, model.ObjectSpec]
    geometry: model.CavityGeometry
    environment: model.Environment
    trap_amplitude: float
    control_amplitudes: tuple[float, float]
    modulation_amplitudes: tuple[float, float]
    # Relative drive frequencies; exactly one of each (relative, absolute)
    # pair is set, the other is None.
    mod_frequency_sum_units: float | None
    mod_frequency_rad_s: float | None
    detunings_omega1_units: tuple[float, float] | None
    detunings_rad_s: tuple[float, float] | None
    numerics: Numerics = Numerics()
    sweep: SweepSpec | None = None

    def system(self,
               detuning: float | None = None,
               control_fraction: float | None = None,
               mod_frequency: float | None = None,
               recoil_scale: float | None = None,
               diffusion_high_t: bool = False) -> System:
        """Instantiate the dynamical system, optionally overriding one axis.

        Overrides use the relative units of the drive section: ``detuning``
        in units of Omega_1, ``control_fraction`` as a fraction of E0
        (applied to both control modes), ``mod_frequency`` in units of
        Omega_1 + Omega_2.
        """
        objects = self.objects
        if recoil_scale is not None:
            objects = tuple(dataclasses.replace(o, recoil_scale=recoil_scale)
                            for o in objects)

        e0 = self.trap_amplitude
        cw = self.control_amplitudes
        if control_fraction is not None:
            cw = (control_fraction * e0, control_fraction * e0)

        # ``derive_params`` reads only the trap amplitude of the drive, so a
        # derivation with placeholder detunings is already the final one and
        # fixes the Omega_j that the relative drive units refer to.
        probe = model.DriveSpec(trap_amplitude=e0, cw_amplitudes=cw,
                                detunings=(1.0, 1.0))
        params = model.derive_params(objects, self.geometry,
                                     self.environment, probe)
        w1, w2 = params.omega_mech

        if detuning is not None:
            detunings = (detuning * w1, detuning * w1)
        elif self.detunings_omega1_units is not None:
            detunings = tuple(d * w1 for d in self.detunings_omega1_units)
        else:
            detunings = self.detunings_rad_s

        if mod_frequency is not None:
            omega_d = mod_frequency * (w1 + w2)
        elif self.mod_frequency_sum_units is not None:
            omega_d = self.mod_frequency_sum_units * (w1 + w2)
        elif self.mod_frequency_rad_s is not None:
            omega_d = self.mod_frequency_rad_s
        else:
            omega_d = 0.0

        drive = model.DriveSpec(trap_amplitude=e0, cw_amplitudes=cw,
                                mod_amplitudes=self.modulation_amplitudes,
                                mod_frequency=omega_d, detunings=detunings)
        return System(params=params, drive=drive,
                      diffusion_high_t=diffusion_high_t)


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a pair")
    return (float(value[0]), float(value[1]))


def _one_of(section: dict, keys: tuple[str, ...], where: str) -> str:
    present = [k for k in keys if k in section]
    if len(present) != 1:
        raise ConfigError(f"{where} needs exactly one of {keys}")
    return present[0]


def _parse_object(entry: dict, index: int) -> model.ObjectSpec:
    where = f"objects[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping")
    _require_keys(entry, {"kind", "diameter", "thickness", "radius",
                          "relative_permittivity", "density", "mass",
                          "mechanical_quality", "recoil_scale"}, where)
    try:
        kind = model.ObjectKind(entry.get("kind"))
    except ValueError:
        raise ConfigError(f"{where}: kind must be 'microdisk' or 'nanosphere'")
    kwargs = {k: float(entry[k]) for k in
              ("diameter", "thickness", "radius", "density", "mass",
               "mechanical_quality", "recoil_scale") if k in entry}
    return model.ObjectSpec(kind=kind,
                            relative_permittivity=float(
                                entry["relative_permittivity"]),
                            **kwargs)


def _parse_cavity(section: dict) -> model.CavityGeometry:
    _require_keys(section, {"length", "trap_wavelength", "control_wavelengths",
                            "finesse_eff", "mode_waist", "phases_over_pi",
                            "phase_base_over_pi", "antinode_offsets"},
                  "cavity")
    for key in ("length", "trap_wavelength", "control_wavelengths",
                "finesse_eff"):
        if key not in section:
            raise ConfigError(f"cavity.{key} is required")
    finesse = section["finesse_eff"]
    if not isinstance(finesse, (list, tuple)) or len(finesse) != 3:
        raise ConfigError("cavity.finesse_eff must list three values")
    kwargs = {}
    if "mode_waist" in section:
        kwargs["mode_waist"] = float(section["mode_waist"])
    if "phases_over_pi" in section:
        rows = section["phases_over_pi"]
        if (not isinstance(rows, (list, tuple)) or len(rows) != 2):
            raise ConfigError("cavity.phases_over_pi must be a 2x2 table")
        kwargs["phases"] = tuple(
            tuple(math.pi * p for p in _pair(row, "cavity.phases_over_pi row"))
            for row in rows)
    if "phase_base_over_pi" in section:
        base = _pair(section["phase_base_over_pi"], "cavity.phase_base_over_pi")
        kwargs["phase_base"] = (math.pi * base[0], math.pi * base[1])
    if "antinode_offsets" in section:
        offs = section["antinode_offsets"]
        kwargs["antinode_offsets"] = (int(offs[0]), int(offs[1]))
    return model.CavityGeometry(
        length=float(section["length"]),
        trap_wavelength=float(section["trap_wavelength"]),
        control_wavelengths=_pair(section["control_wavelengths"],
                                  "cavity.control_wavelengths"),
        finesse_eff=tuple(float(f) for f in finesse),
        **kwargs)


def _parse_environment(section: dict) -> model.Environment:
    _require_keys(section, {"temperature", "pressure", "air_molecular_mass"},
                  "environment")
    if "temperature" not in section:
        raise ConfigError("environment.temperature is required")
    kwargs = {k: float(section[k]) for k in ("pressure", "air_molecular_mass")
              if k in section}
    return model.Environment(temperature=float(section["temperature"]),
                             **kwargs)


def _parse_numerics(section: dict) -> Numerics:
    _require_keys(section, {"t_max_tau", "steps_per_period",
                            "store_per_period"}, "numerics")
    kwargs = {}
    if "t_max_tau" in section:
        kwargs["t_max_tau"] = float(section["t_max_tau"])
    if "steps_per_period" in section:
        kwargs["steps_per_period"] = int(section["steps_per_period"])
    if "store_per_period" in section:
        kwargs["store_per_period"] = int(section["store_per_period"])
    return Numerics(**kwargs)


def _parse_sweep(section: dict) -> SweepSpec:
    _require_keys(section, {"axis", "values"}, "sweep")
    axis = section.get("axis")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis must be one of {SWEEP_AXES}; steady "
                          "states carry no modulation, so scan the modulation "
                          "frequency with one evolve run per value")
    values = section.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError("sweep.values must be a non-empty list")
    return SweepSpec(axis=axis, values=tuple(float(v) for v in values))


def parse_scenario(doc: dict) -> Scenario:
    """Validate a parsed YAML document and build a Scenario."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a mapping")
    _require_keys(doc, {"schema_version", "objects", "cavity", "environment",
                        "drive", "numerics", "sweep"}, "scenario")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    for key in ("objects", "cavity", "environment", "drive"):
        if key not in doc:
            raise ConfigError(f"scenario.{key} is required")

    entries = doc["objects"]
    if not isinstance(entries, list) or len(entries) not in (1, 2):
        raise ConfigError("objects must list one or two entries")
    objs = [_parse_object(e, i) for i, e in enumerate(entries)]
    if len(objs) == 1:
        objs = objs * 2
    geometry = _parse_cavity(doc["cavity"])
    environment = _parse_environment(doc["environment"])

    drive = doc["drive"]
    if not isinstance(drive, dict):
        raise ConfigError("drive must be a mapping")
    _require_keys(drive, {"trap_input_power_w", "trap_amplitude_rad_s",
                          "control_fractions", "control_amplitudes_rad_s",
                          "modulation_fractions",
                          "modulation_amplitudes_rad_s",
                          "modulation_frequency_sum_units",
                          "modulation_frequency_rad_s",
                          "detunings_omega1_units", "detunings_rad_s"},
                  "drive")

    trap_key = _one_of(drive, ("trap_input_power_w", "trap_amplitude_rad_s"),
                       "drive")
    kappa0 = model.cavity_linewidth(geometry.finesse_eff[0], geometry.length)
    if trap_key == "trap_input_power_w":
        e0 = model.input_power_to_amplitude(float(drive[trap_key]), kappa0,
                                            geometry.trap_wavelength)
    else:
        e0 = float(drive[trap_key])

    cw_key = _one_of(drive, ("control_fractions", "control_amplitudes_rad_s"),
                     "drive")
    cw = _pair(drive[cw_key], f"drive.{cw_key}")
    if cw_key == "control_fractions":
        cw = (cw[0] * e0, cw[1] * e0)

    mod = (0.0, 0.0)
    if "modulation_fractions" in drive and \
            "modulation_amplitudes_rad_s" in drive:
        raise ConfigError("drive: give modulation in fractions or rad/s, "
                          "not both")
    if "modulation_fractions" in drive:
        frac = _pair(drive["modulation_fractions"],
                     "drive.modulation_fractions")
        mod = (frac[0] * e0, frac[1] * e0)
    elif "modulation_amplitudes_rad_s" in drive:
        mod = _pair(drive["modulation_amplitudes_rad_s"],
                    "drive.modulation_amplitudes_rad_s")

    mod_sum = mod_abs = None
    if any(mod):
        freq_key = _one_of(drive, ("modulation_frequency_sum_units",
                                   "modulation_frequency_rad_s"), "drive")
        freq = float(drive[freq_key])
        if freq <= 0:
            raise ConfigError("modulation frequency must be positive")
        if freq_key == "modulation_frequency_sum_units":
            mod_sum = freq
        else:
            mod_abs = freq
    elif ("modulation_frequency_sum_units" in drive or
          "modulation_frequency_rad_s" in drive):
        raise ConfigError("modulation frequency given without modulation "
                          "amplitude")

    det_key = _one_of(drive, ("detunings_omega1_units", "detunings_rad_s"),
                      "drive")
    det = _pair(drive[det_key], f"drive.{det_key}")
    det_rel = det if det_key == "detunings_omega1_units" else None
    det_abs = det if det_key == "detunings_rad_s" else None

    numerics = _parse_numerics(doc.get("numerics") or {})
    sweep = _parse_sweep(doc["sweep"]) if "sweep" in doc else None

    return Scenario(objects=tuple(objs), geometry=geometry,
                    environment=environment, trap_amplitude=e0,
                    control_amplitudes=cw, modulation_amplitudes=mod,
                    mod_frequency_sum_units=mod_sum,
                    mod_frequency_rad_s=mod_abs,
                    detunings_omega1_units=det_rel, detunings_rad_s=det_abs,
                    numerics=numerics, sweep=sweep)


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    text = Path(path).read_text()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from exc
    return parse_scenario(doc)


def shipped_scenario(name: str) -> Path:
    """Path of a regression scenario bundled with the package."""
    path = SHIPPED_DIR / f"{name}.yaml"
    if not path.exists():
        known = sorted(p.stem for p in SHIPPED_DIR.glob("*.yaml"))
        raise ConfigError(f"no shipped scenario {name!r}; known: {known}")
    return path
