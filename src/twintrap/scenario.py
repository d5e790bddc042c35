"""Scenario files: declarative system descriptions in YAML.

A scenario fixes the two trapped objects, the cavity, the environment, and
the drive, plus numerical settings for time evolution.  Units at this
boundary are SI; drive strengths and frequencies may alternatively be given
relative to the trap amplitude E0 and the mechanical frequencies, which is
how the regression scenarios shipped in ``twintrap/scenarios`` are written.
Loading derives the parameters once and resolves the relative units into
one SI drive; the ``pipeline`` verbs run the resulting ``Scenario``, and
``Scenario.system`` overrides of the detuning or control fraction change
only its drive.

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
    numerics:                # all optional, all positive
      t_max_tau: float       # evolution horizon, units of tau = 4 pi/(W1+W2)
      steps_per_period: int  # of effective and evolve; by default effective
                             # takes pipeline.period_grid's and evolve the
                             # fewest its measured step error allows
                             # (pipeline.evolve_grid)
      store_per_period: int
    sweep:                   # optional, used by the sweep command
      axis: detuning | control_fraction
      values: [...]          # same relative units as the drive section
      # (no mod_frequency axis: sweep solves CW steady states, which carry
      # no modulation; scan the drive frequency with one evolve per value)

Unknown keys anywhere in the tree are rejected.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import model
from .model import ConfigError

SCHEMA_VERSION = 1

#: Directory of regression scenarios shipped with the package.
SHIPPED_DIR = Path(__file__).parent / "scenarios"

SWEEP_AXES = ("detuning", "control_fraction")

#: libyaml's parser where PyYAML was built with it (a 1500-value sweep
#: parses in 0.013 s, against 0.10 s in pure Python); both loaders build
#: the document with the same safe constructor.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

#: Largest rate a scenario may hold, in rad/s: about 4.25e37.  A drift
#: whose entries are within it has ||A||_inf <= 8 RATE_MAX, so its powers up
#: to A^8, which the Routh-Hurwitz table of ``dynamics`` takes, stay finite,
#: and so do the time step and the cavity response kappa^2 + Delta^2.  On
#: ``fig1_cw`` the table first overflows at a detuning between 7e39 and
#: 7e40 rad/s.
RATE_MAX = sys.float_info.max ** (1 / 8) / 8


def require_rate(name: str, rate: float) -> None:
    """Refuse a ``rate`` in rad/s above ``RATE_MAX`` with a ``ConfigError``
    that starts with ``name`` and the rate."""
    if not rate <= RATE_MAX:
        raise ConfigError(f"{name} {rate:.6g} rad/s is out of range: rates "
                          f"must be at most {RATE_MAX:.3g} rad/s")


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
    """A fully validated scenario: the parameters derived once from the
    objects, cavity and environment, and the drive resolved to SI units."""

    objects: tuple[model.ObjectSpec, model.ObjectSpec]
    geometry: model.CavityGeometry
    environment: model.Environment
    params: model.DerivedParams
    drive: model.DriveSpec
    numerics: Numerics = Numerics()
    sweep: SweepSpec | None = None

    def __post_init__(self):
        require_rate(*self.fastest_rate())

    def fastest_rate(self) -> tuple[str, float]:
        """The fastest of the rates max(Omega, |Delta|, kappa, w_D), in
        rad/s, with its name.  A scenario is refused where it is built
        when this is above ``RATE_MAX``."""
        p, d = self.params, self.drive
        return max((("trap frequency", float(np.max(p.omega_mech))),
                    ("detuning", float(np.max(np.abs(d.detunings)))),
                    ("cavity linewidth", float(np.max(p.kappa))),
                    ("modulation frequency", d.mod_frequency)),
                   key=lambda item: item[1])

    def system(self,
               detuning: float | None = None,
               control_fraction: float | None = None,
               recoil_scale: float | None = None) -> Scenario:
        """This scenario, optionally with one axis overridden, as the
        ``pipeline`` verbs run it.

        Overrides use the relative units of the drive section: ``detuning``
        in units of Omega_1, ``control_fraction`` as a fraction of E0
        (applied to both control modes).  They change only the drive; a
        ``recoil_scale`` override replaces the objects and the parameters
        derived from them, which leaves the trap frequencies, and so the SI
        drive, unchanged.
        """
        objects, params, drive = self.objects, self.params, self.drive
        if recoil_scale is not None:
            objects = tuple(replace(o, recoil_scale=recoil_scale)
                            for o in objects)
            params = model.derive_params(objects, self.geometry,
                                         self.environment, drive.trap_amplitude)
        if detuning is not None:
            _, (d,) = self.drive_stack("detuning", [detuning])
            drive = replace(drive, detunings=tuple(d.tolist()))
        if control_fraction is not None:
            (e,), _ = self.drive_stack("control_fraction", [control_fraction])
            drive = replace(drive, cw_amplitudes=tuple(e.tolist()))
        return replace(self, objects=objects, params=params, drive=drive)

    def drive_stack(self, axis: str, values) -> tuple[np.ndarray, np.ndarray]:
        """The (B, 2) CW amplitudes and effective detunings of the drive
        with ``axis`` (one of ``SWEEP_AXES``) set to each of the B
        ``values``, in the relative units of ``system``'s overrides.
        ``system`` takes its overrides from here, so each row is the drive
        of ``system(**{axis: value})``.  The modulation is not part of the
        stack: the callers check the drive is CW.  A value that scales to a
        non-finite rate is a ``ConfigError`` naming it, as in ``DriveSpec``,
        and so is a detuning above ``RATE_MAX``, as in ``Scenario``.
        """
        values = np.asarray(values, dtype=float)[:, None]
        cw = np.tile(self.drive.cw_amplitudes, (len(values), 1))
        detunings = np.tile(self.drive.detunings, (len(values), 1))
        with np.errstate(over="ignore"):
            if axis == "detuning":
                detunings[:] = values * self.params.omega_mech[0]
            elif axis == "control_fraction":
                cw[:] = values * self.drive.trap_amplitude
            else:
                raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, "
                                  f"not {axis!r}")
        finite = np.isfinite(cw).all(axis=1) & np.isfinite(detunings).all(axis=1)
        if not finite.all():
            value = values[finite.argmin(), 0]
            raise ConfigError(f"{axis} {value:.6g} is not finite in rad/s: "
                              "drive amplitudes, modulation frequency and "
                              "detunings must be finite")
        if axis == "detuning":
            k = int(np.argmax(np.abs(values)))
            require_rate(f"detuning {values[k, 0]:.6g} Omega_1 =",
                         abs(float(detunings[k, 0])))
        return cw, detunings


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    """Refuse a section that is not a mapping or has keys not ``allowed``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value, where: str, whole: bool = False) -> float | int:
    """``value`` as a float, or as an int when ``whole``; a value that is
    not a finite number (or not a whole one) is a ``ConfigError``."""
    try:
        if isinstance(value, bool):   # float() would read true as 1
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be a number, not {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number, not {value!r}")
    if not whole:
        return number
    if not number.is_integer():
        raise ConfigError(f"{where} must be a whole number, not {value!r}")
    return int(number)


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a pair")
    return (_number(value[0], where), _number(value[1], where))


def _one_of(section: dict, keys: tuple[str, ...], where: str) -> str:
    present = [k for k in keys if k in section]
    if len(present) != 1:
        raise ConfigError(f"{where} needs exactly one of {keys}")
    return present[0]


def _parse_object(entry: dict, index: int) -> model.ObjectSpec:
    where = f"objects[{index}]"
    _require_keys(entry, {"kind", "diameter", "thickness", "radius",
                          "relative_permittivity", "density", "mass",
                          "mechanical_quality", "recoil_scale"}, where)
    try:
        kind = model.ObjectKind(entry.get("kind"))
    except ValueError:
        raise ConfigError(f"{where}: kind must be 'microdisk' or 'nanosphere'")
    if "relative_permittivity" not in entry:
        raise ConfigError(f"{where}.relative_permittivity is required")
    kwargs = {k: _number(entry[k], f"{where}.{k}") for k in
              ("diameter", "thickness", "radius", "density", "mass",
               "mechanical_quality", "recoil_scale", "relative_permittivity")
              if k in entry}
    return model.ObjectSpec(kind=kind, **kwargs)


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
        kwargs["mode_waist"] = _number(section["mode_waist"],
                                       "cavity.mode_waist")
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
        kwargs["antinode_offsets"] = tuple(
            _number(o, "cavity.antinode_offsets", whole=True)
            for o in _pair(section["antinode_offsets"],
                           "cavity.antinode_offsets"))
    return model.CavityGeometry(
        length=_number(section["length"], "cavity.length"),
        trap_wavelength=_number(section["trap_wavelength"],
                                "cavity.trap_wavelength"),
        control_wavelengths=_pair(section["control_wavelengths"],
                                  "cavity.control_wavelengths"),
        finesse_eff=tuple(_number(f, "cavity.finesse_eff") for f in finesse),
        **kwargs)


def _parse_environment(section: dict) -> model.Environment:
    _require_keys(section, {"temperature", "pressure"}, "environment")
    if "temperature" not in section:
        raise ConfigError("environment.temperature is required")
    kwargs = {k: _number(section[k], f"environment.{k}")
              for k in ("temperature", "pressure") if k in section}
    return model.Environment(**kwargs)


def _parse_numerics(section: dict) -> Numerics:
    _require_keys(section, {"t_max_tau", "steps_per_period",
                            "store_per_period"}, "numerics")
    kwargs = {key: _number(section[key], f"numerics.{key}",
                           whole=key != "t_max_tau")
              for key in ("t_max_tau", "steps_per_period", "store_per_period")
              if key in section}
    for key, value in kwargs.items():
        if not value > 0:
            raise ConfigError(f"numerics.{key} must be positive")
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
    values = tuple(_number(v, "sweep.values") for v in values)
    if axis == "control_fraction" and min(values) < 0:
        raise ConfigError("sweep.values must be non-negative control "
                          f"fractions, not {min(values)!r}")
    return SweepSpec(axis=axis, values=values)


def parse_scenario(doc: dict) -> Scenario:
    """Validate a parsed YAML document and build a Scenario."""
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
    objs = tuple(_parse_object(e, i) for i, e in enumerate(entries))
    if len(objs) == 1:
        objs = objs * 2
    geometry = _parse_cavity(doc["cavity"])
    environment = _parse_environment(doc["environment"])

    drive = doc["drive"]
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
    e0 = _number(drive[trap_key], f"drive.{trap_key}")
    if e0 <= 0:
        raise ConfigError("trap mode must be driven (zero trap power gives "
                          "no trap)")
    if trap_key == "trap_input_power_w":
        kappa0 = model.cavity_linewidth(geometry.finesse_eff[0],
                                        geometry.length)
        e0 = model.input_power_to_amplitude(e0, kappa0,
                                            geometry.trap_wavelength)

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

    freq_key, omega_d = None, 0.0
    if any(mod):
        freq_key = _one_of(drive, ("modulation_frequency_sum_units",
                                   "modulation_frequency_rad_s"), "drive")
        omega_d = _number(drive[freq_key], f"drive.{freq_key}")
        if omega_d <= 0:
            raise ConfigError("modulation frequency must be positive")
    elif ("modulation_frequency_sum_units" in drive or
          "modulation_frequency_rad_s" in drive):
        raise ConfigError("modulation frequency given without modulation "
                          "amplitude")

    det_key = _one_of(drive, ("detunings_omega1_units", "detunings_rad_s"),
                      "drive")
    det = _pair(drive[det_key], f"drive.{det_key}")

    numerics = _parse_numerics(doc.get("numerics") or {})
    sweep = _parse_sweep(doc["sweep"]) if "sweep" in doc else None

    # The schema holds; derive the parameters once.  They depend on the
    # drive through the trap amplitude alone, and their trap frequencies
    # Omega_j fix the relative drive units.
    params = model.derive_params(objs, geometry, environment, e0)
    w1, w2 = params.omega_mech.tolist()
    if freq_key == "modulation_frequency_sum_units":
        omega_d *= w1 + w2
    if det_key == "detunings_omega1_units":
        det = (det[0] * w1, det[1] * w1)
    return Scenario(objects=objs, geometry=geometry, environment=environment,
                    params=params,
                    drive=model.DriveSpec(trap_amplitude=e0, cw_amplitudes=cw,
                                          mod_amplitudes=mod,
                                          mod_frequency=omega_d,
                                          detunings=det),
                    numerics=numerics, sweep=sweep)


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    try:
        doc = yaml.load(Path(path).read_text(encoding="utf-8"),
                        Loader=YAML_LOADER)
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from exc
    return parse_scenario(doc)


def shipped_scenario(name: str) -> Path:
    """Path of a regression scenario bundled with the package."""
    path = SHIPPED_DIR / f"{name}.yaml"
    if not path.exists():
        known = sorted(p.stem for p in SHIPPED_DIR.glob("*.yaml"))
        raise ConfigError(f"no shipped scenario {name!r}; known: {known}")
    return path
