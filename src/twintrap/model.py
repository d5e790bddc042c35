"""Physical parameter derivation for two dielectric objects trapped in a driven cavity.

All rates and frequencies are angular (rad/s).  Mechanical quadratures are
dimensionless zero-point units with [x, p] = i, so the vacuum variance of
every quadrature is 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

# Exact SI (2019) values, equal to the ``scipy.constants`` ones; literals
# keep ``scipy.constants`` out of the import.
HBAR = 6.62607015e-34 / (2 * math.pi)
KB = 1.380649e-23
C_LIGHT = 299792458.0

#: Cavity mode waist (m).  Calibrated once by root-finding so that a 15 mW
#: trap laser yields a trap frequency of 2*pi*11 MHz for a 20 um x 150 nm
#: silica microdisk (eps = 2.1, rho = 2201 kg/m^3) in a 1 mm cavity with
#: F_eff = 7e5 at 1064 nm.  See ``calibrate_mode_waist``.
DEFAULT_MODE_WAIST = 1.4392837592990148e-05

#: Hard limit on the Lamb-Dicke parameter k * x_zp.
LAMB_DICKE_LIMIT = 1e-3


class ConfigError(ValueError):
    """A scenario violates a physical or structural invariant."""


class ObjectKind(str, Enum):
    MICRODISK = "microdisk"
    NANOSPHERE = "nanosphere"


@dataclass(frozen=True)
class ObjectSpec:
    """Geometry and material of one trapped dielectric object."""

    kind: ObjectKind
    relative_permittivity: float
    diameter: float | None = None       # microdisk (m)
    thickness: float | None = None      # microdisk (m)
    radius: float | None = None         # nanosphere (m)
    density: float | None = None        # kg/m^3
    mass: float | None = None           # overrides density when given
    mechanical_quality: float = 1e6
    recoil_scale: float = 1.0

    def __post_init__(self):
        kind = ObjectKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is ObjectKind.MICRODISK:
            if not (self.diameter and self.diameter > 0 and self.thickness and self.thickness > 0):
                raise ConfigError("microdisk requires positive diameter and thickness")
        else:
            if not (self.radius and self.radius > 0):
                raise ConfigError("nanosphere requires positive radius")
        if self.relative_permittivity <= 1:
            raise ConfigError("relative permittivity must exceed 1")
        if (self.density is None) == (self.mass is None):
            raise ConfigError("exactly one of density or mass must be given")
        if self.density is not None and self.density <= 0:
            raise ConfigError("density must be positive")
        if self.mass is not None and self.mass <= 0:
            raise ConfigError("mass must be positive")
        if self.mechanical_quality <= 0:
            raise ConfigError("mechanical quality must be positive")
        if not 0 < self.recoil_scale <= 1:
            raise ConfigError("recoil_scale must lie in (0, 1]")

    @property
    def volume(self) -> float:
        if self.kind is ObjectKind.MICRODISK:
            return math.pi * (self.diameter / 2) ** 2 * self.thickness
        return 4 / 3 * math.pi * self.radius**3


@dataclass(frozen=True)
class CavityGeometry:
    """Fabry-Perot cavity and mode placement.

    ``phases`` holds the control-mode phases phi_ij, rows indexed by control
    mode i in {1, 2}, columns by object j in {1, 2}.  Alternatively
    ``phase_base`` (phi_i1 per control mode) plus integer ``antinode_offsets``
    place the second object n trap antinode spacings away, in which case
    phi_i2 = phi_i1 + n * k_i * lambda_0 (see ``phase_geometry``).
    """

    length: float
    trap_wavelength: float
    control_wavelengths: tuple[float, float]
    finesse_eff: tuple[float, float, float]     # trap, control 1, control 2
    mode_waist: float = DEFAULT_MODE_WAIST
    phases: tuple[tuple[float, float], tuple[float, float]] | None = None
    phase_base: tuple[float, float] | None = None
    antinode_offsets: tuple[int, int] | None = None

    def __post_init__(self):
        if self.length <= 0 or self.trap_wavelength <= 0 or self.mode_waist <= 0:
            raise ConfigError("cavity lengths must be positive")
        if any(w <= 0 for w in self.control_wavelengths):
            raise ConfigError("control wavelengths must be positive")
        if any(f <= 1 for f in self.finesse_eff):
            raise ConfigError("effective finesse must exceed 1")
        if self.phases is None:
            if self.phase_base is None or self.antinode_offsets is None:
                raise ConfigError("give phases, or phase_base with antinode_offsets")
            phases = []
            for i, lam in enumerate(self.control_wavelengths):
                k_i = 2 * math.pi / lam
                dphi = phase_geometry(self.antinode_offsets[i], k_i, self.trap_wavelength)
                phases.append((self.phase_base[i], self.phase_base[i] + dphi))
            object.__setattr__(self, "phases", (tuple(phases[0]), tuple(phases[1])))
        else:
            if self.phase_base is not None or self.antinode_offsets is not None:
                raise ConfigError("phases and antinode placement are mutually exclusive")

    def wavenumber(self, mode: int) -> float:
        """k_i = 2 pi / lambda_i with mode 0 the trap."""
        lam = self.trap_wavelength if mode == 0 else self.control_wavelengths[mode - 1]
        return 2 * math.pi / lam

    def mode_frequency(self, mode: int) -> float:
        return C_LIGHT * self.wavenumber(mode)

    @property
    def mode_volume(self) -> float:
        """V_c = (pi w0^2 / 4) L, same for all three nearly degenerate modes."""
        return math.pi * self.mode_waist**2 / 4 * self.length


@dataclass(frozen=True)
class Environment:
    temperature: float                  # K
    pressure: float | None = None       # mbar, informational
    air_molecular_mass: float | None = None  # kg, informational

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")


@dataclass(frozen=True)
class DriveSpec:
    """Intracavity drive amplitudes (rad/s measure) for the three modes.

    The trap mode (index 0) is CW and driven on resonance.  Control modes
    carry a CW part ``cw_amplitude`` and an optional modulation
    E_i(t) = E_i^(0) + E_i^(1) cos(w_mod t).  ``detunings`` are the target
    effective detunings Delta_i of the two control modes.
    """

    trap_amplitude: float
    cw_amplitudes: tuple[float, float]
    mod_amplitudes: tuple[float, float] = (0.0, 0.0)
    mod_frequency: float = 0.0
    detunings: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.trap_amplitude <= 0:
            raise ConfigError("trap mode must be driven (zero trap power gives no trap)")
        for e0, e1 in zip(self.cw_amplitudes, self.mod_amplitudes):
            if e0 < 0 or e1 < 0:
                raise ConfigError("drive amplitudes must be non-negative")
            if e1 > 0 and e1 >= e0:
                raise ConfigError("modulation must stay below the CW amplitude")
        if any(e > 0 for e in self.mod_amplitudes) and self.mod_frequency <= 0:
            raise ConfigError("modulated drive needs a positive modulation frequency")

    def amplitude(self, mode: int, t: float) -> float:
        """E_i(t); mode 0 is the trap, modes 1 and 2 the control lasers."""
        if mode == 0:
            return self.trap_amplitude
        e0 = self.cw_amplitudes[mode - 1]
        e1 = self.mod_amplitudes[mode - 1]
        if e1 == 0.0:
            return e0
        return e0 + e1 * math.cos(self.mod_frequency * t)

    def unmodulated(self) -> "DriveSpec":
        """The CW part of the drive: modulation amplitudes and frequency zeroed."""
        return replace(self, mod_amplitudes=(0.0, 0.0), mod_frequency=0.0)


#: Field metadata marking a ``DerivedParams`` entry as a rate.
RATE = {"rate": True}


@dataclass(frozen=True)
class DerivedParams:
    """Every rate and coupling the linearized dynamics needs.

    Index conventions: ``i`` runs over the two control modes, ``j`` over the
    two mechanical objects.  Arrays below are shaped accordingly.  Fields
    declared with ``RATE`` metadata are rates (rad/s); a change of time unit
    divides exactly these.
    """

    mass: np.ndarray                 # (2,) kg
    omega_mech: np.ndarray = field(metadata=RATE)  # (2,) trap frequencies Omega_j
    x_zp: np.ndarray                 # (2,) zero-point motion (m)
    gamma: np.ndarray = field(metadata=RATE)       # (2,) gas/tether damping
    recoil: np.ndarray = field(metadata=RATE)      # (2,) photon-recoil heating dn/dt, Gamma_j
    n_thermal: np.ndarray            # (2,) thermal occupancy
    kappa: np.ndarray = field(metadata=RATE)       # (3,) cavity linewidths, trap first
    mode_volume: float
    g_bare: np.ndarray = field(metadata=RATE)      # (3, 2) single-photon couplings g_ij
    g_lin: np.ndarray = field(metadata=RATE)       # (2, 2) control-mode linear couplings
    g_quad: np.ndarray = field(metadata=RATE)      # (2, 2) control-mode quadratic couplings
    trap_photons: float              # |<a_0>|^2
    lamb_dicke: np.ndarray           # (3, 2) k_i * x_zp,j

    def kappa_control(self) -> np.ndarray:
        return self.kappa[1:]


def derive_mass(obj: ObjectSpec) -> float:
    """Object mass from density and geometry, or the explicit override."""
    if obj.mass is not None:
        return obj.mass
    return obj.density * obj.volume


def cavity_linewidth(finesse_eff: float, length: float) -> float:
    """kappa = pi c / (2 L F_eff)."""
    return math.pi * C_LIGHT / (2 * length * finesse_eff)


def input_power_to_amplitude(power: float, kappa: float, wavelength: float) -> float:
    """Driven-cavity conversion E = sqrt(2 P kappa / (hbar w_L))."""
    omega_l = 2 * math.pi * C_LIGHT / wavelength
    return math.sqrt(2 * power * kappa / (HBAR * omega_l))


def bare_coupling(obj: ObjectSpec, geom: CavityGeometry, mode: int) -> float:
    """Single-photon coupling g_ij of one cavity mode to one object.

    Disks couple through their full polarizable volume; spheres carry the
    Clausius-Mossotti factor 3 (eps - 1) / (eps + 2).
    """
    omega_i = geom.mode_frequency(mode)
    eps = obj.relative_permittivity
    ratio = obj.volume / (2 * geom.mode_volume)
    if obj.kind is ObjectKind.NANOSPHERE:
        return 3 * ratio * (eps - 1) / (eps + 2) * omega_i
    return ratio * (eps - 1) * omega_i


def trap_frequency(g_0j: float, k_0: float, mass: float, trap_photons: float) -> float:
    """Omega_j = sqrt(2 hbar k0^2 g_0j |<a0>|^2 / m)."""
    return math.sqrt(2 * HBAR * k_0**2 * g_0j * trap_photons / mass)


def zero_point_motion(mass: float, omega: float) -> float:
    return math.sqrt(HBAR / (2 * mass * omega))


def lamb_dicke_couplings(g: float, k: float, x_zp: float, phase: float) -> tuple[float, float]:
    """Linear and quadratic couplings of the expanded intensity profile."""
    g_lin = -math.sqrt(2) * k * x_zp * g * math.sin(2 * phase)
    g_quad = 2 * k**2 * x_zp**2 * g * math.cos(2 * phase)
    return g_lin, g_quad


def recoil_rate(obj: ObjectSpec, geom: CavityGeometry, omega: float) -> float:
    """Phonon heating rate Gamma = dn/dt from scattered trap photons.

    Recoil is a momentum diffusion set by light scattering alone, so Gamma
    does not depend on the bath temperature.  In the quadrature units of
    this package (vacuum variance 1/2) it enters the momentum diffusion as
    2 Gamma; see ``dynamics.build_diffusion``.

    A disk scatters predominantly back into the cavity, so its rate falls
    with finesse and volume; a sphere scatters into free space with a rate
    growing with volume.  Scaled by ``recoil_scale``.

    Sphere derivation (Chang et al., PNAS 107, 1005 (2010)).  With
    polarizability alpha = eps0 V eps_c, eps_c = 3 (eps - 1) / (eps + 2),
    the trap antinode of intensity I gives m Omega^2 = k^2 alpha I / (c eps0)
    and the Rayleigh scattering rate is R = sigma I / (hbar w) with
    sigma = k^4 alpha^2 / (6 pi eps0^2).  Each scattered photon kicks the
    trap axis by (2/5) (hbar k)^2 on average (dipole pattern; the
    absorption kick vanishes at an antinode), so the heating rate is
    Gamma = (2/5) (w_r / Omega) R with w_r = hbar k^2 / (2 m).  Eliminating
    I and m leaves Gamma = k^3 alpha Omega / (30 pi eps0)
    = (4 pi^2 / 15) eps_c (V / lambda^3) Omega
    = (4 pi^2 / 5) (eps - 1) / (eps + 2) (V / lambda^3) Omega,
    the geometry-free form of Chang et al.'s Gamma_sc = (2/5)(w_r/w_m) R_sc.
    """
    eps = obj.relative_permittivity
    lam0 = geom.trap_wavelength
    if obj.kind is ObjectKind.NANOSPHERE:
        rate = 4 * math.pi**2 / 5 * (eps - 1) / (eps + 2) * obj.volume / lam0**3 * omega
    else:
        rate = (lam0 / (4 * geom.length)) * (geom.mode_volume / obj.volume) \
            * omega / (geom.finesse_eff[0] * (eps - 1))
    return obj.recoil_scale * rate


def gas_damping(omega: float, quality: float) -> float:
    """gamma = Omega / Q_m."""
    return omega / quality


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Bose occupancy of the mechanical mode at the chamber temperature."""
    return 1.0 / math.expm1(HBAR * omega / (KB * temperature))


def phase_geometry(n: int, k_i: float, lambda_0: float) -> float:
    """Phase offset phi_i2 - phi_i1 = n k_i lambda_0 between trap antinodes."""
    return n * k_i * lambda_0


def derive_params(objects: tuple[ObjectSpec, ObjectSpec],
                  geom: CavityGeometry,
                  env: Environment,
                  drive: DriveSpec) -> DerivedParams:
    """Assemble every derived quantity, enforcing the trapping invariants."""
    mass = np.array([derive_mass(o) for o in objects])
    kappa = np.array([cavity_linewidth(geom.finesse_eff[i], geom.length) for i in range(3)])

    # Trap mode driven on resonance: mean photon number (E0 / kappa0)^2.
    trap_photons = (drive.trap_amplitude / kappa[0]) ** 2

    g_bare = np.array([[bare_coupling(o, geom, i) for o in objects] for i in range(3)])
    k0 = geom.wavenumber(0)
    omega_mech = np.array([
        trap_frequency(g_bare[0, j], k0, mass[j], trap_photons) for j in range(2)
    ])
    if np.any(omega_mech <= 0):
        raise ConfigError("trap drive too weak: vanishing trap frequency")
    x_zp = np.array([zero_point_motion(mass[j], omega_mech[j]) for j in range(2)])

    lamb_dicke = np.array([[geom.wavenumber(i) * x_zp[j] for j in range(2)] for i in range(3)])
    if np.any(lamb_dicke >= LAMB_DICKE_LIMIT):
        raise ConfigError(
            f"Lamb-Dicke parameter {lamb_dicke.max():.2e} exceeds {LAMB_DICKE_LIMIT:g}")

    g_lin = np.zeros((2, 2))
    g_quad = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            g_lin[i, j], g_quad[i, j] = lamb_dicke_couplings(
                g_bare[i + 1, j], geom.wavenumber(i + 1), x_zp[j], geom.phases[i][j])

    gamma = np.array([gas_damping(omega_mech[j], objects[j].mechanical_quality)
                      for j in range(2)])
    recoil = np.array([recoil_rate(objects[j], geom, omega_mech[j]) for j in range(2)])
    n_thermal = np.array([thermal_occupancy(omega_mech[j], env.temperature)
                          for j in range(2)])

    # Away from antinodes the quadratic coupling must stay subordinate.
    for i in range(2):
        for j in range(2):
            s, c = abs(math.sin(2 * geom.phases[i][j])), abs(math.cos(2 * geom.phases[i][j]))
            if s >= 10 * lamb_dicke[i + 1, j] * c and abs(g_quad[i, j]) > abs(g_lin[i, j]):
                raise ConfigError("quadratic coupling dominates away from an antinode")

    return DerivedParams(
        mass=mass, omega_mech=omega_mech, x_zp=x_zp, gamma=gamma, recoil=recoil,
        n_thermal=n_thermal, kappa=kappa, mode_volume=geom.mode_volume,
        g_bare=g_bare, g_lin=g_lin, g_quad=g_quad, trap_photons=trap_photons,
        lamb_dicke=lamb_dicke,
    )


def calibrate_mode_waist(obj: ObjectSpec,
                         length: float,
                         trap_wavelength: float,
                         finesse_eff: float,
                         trap_power: float,
                         target_omega: float,
                         bracket: tuple[float, float] = (1e-6, 1e-3)) -> float:
    """Waist for which ``trap_power`` yields the target trap frequency.

    The trap frequency is monotone decreasing in the waist (larger mode
    volume dilutes the intensity), so a bracketed root always exists for
    sane inputs.
    """
    from scipy.optimize import brentq   # lazy: only calibration needs it

    mass = derive_mass(obj)
    k0 = 2 * math.pi / trap_wavelength
    kappa0 = cavity_linewidth(finesse_eff, length)
    e0 = input_power_to_amplitude(trap_power, kappa0, trap_wavelength)
    photons = (e0 / kappa0) ** 2
    omega0 = C_LIGHT * k0

    def mismatch(waist: float) -> float:
        vc = math.pi * waist**2 / 4 * length
        g0 = obj.volume / (2 * vc) * (obj.relative_permittivity - 1) * omega0
        if obj.kind is ObjectKind.NANOSPHERE:
            g0 *= 3 / (obj.relative_permittivity + 2)
        return trap_frequency(g0, k0, mass, photons) - target_omega

    return brentq(mismatch, *bracket, xtol=1e-12, rtol=1e-15)
