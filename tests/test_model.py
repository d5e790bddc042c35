"""Parameter derivation against independently computed anchors.

All reference numbers below were frozen from direct arithmetic on the
defining formulas (plain float evaluation, no package code).
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from twintrap import model
from twintrap.model import (CavityGeometry, ConfigError, DriveSpec,
                            Environment, ObjectKind, ObjectSpec)

# ---------------------------------------------------------------- fixtures

DISK = ObjectSpec(kind=ObjectKind.MICRODISK, diameter=20e-6, thickness=150e-9,
                  relative_permittivity=2.1, density=2201.0,
                  mechanical_quality=1e6)
SPHERE = ObjectSpec(kind=ObjectKind.NANOSPHERE, radius=100e-9,
                    relative_permittivity=2.1, density=2201.0,
                    mechanical_quality=3e8)
GEOM = CavityGeometry(length=1e-3, trap_wavelength=1.064e-6,
                      control_wavelengths=(1.064e-6, 1.064e-6),
                      finesse_eff=(7e5, 7e5, 7e5),
                      phases=((math.pi / 4, math.pi / 4),
                              (math.pi / 4, -math.pi / 4)))
ENV = Environment(temperature=0.1)

# Frozen oracles (direct arithmetic):
MASS_DISK = 1.0371968145826702e-13        # pi r^2 t rho
MASS_SPHERE = 9.219527240734846e-18       # (4/3) pi r^3 rho
KAPPA_7E5 = 672732.7026103047             # pi c / (2 L F)
E0_15MW = 328786778645.564                # sqrt(2 P kappa / hbar w_L)
NTH_11MHZ = 188.92425014247956            # Bose factor at 0.1 K
G_DISK = 282020081276.45074               # (Vd/2Vc)(eps-1) w, default waist
G_SPHERE = 18342769.513915498             # (3Vd/2Vc)((eps-1)/(eps+2)) w
GL_DISK = -6387.626154121301              # -sqrt2 k xzp g sin(pi/2), 11 MHz
XZP_DISK = 2.712103247864766e-15          # sqrt(hbar / 2 m Omega), 11 MHz
GAMMA_DISK = 82.4337514358159             # (lam/4L)(Vc/Vd) Om/(F(eps-1))
# Sphere phonon heating rate over Omega, (4pi^2/5)((eps-1)/(eps+2)) V/lam^3:
GAMMA_SPHERE_OVER_OMEGA = 0.0073665185404445605


def rel(a, b):
    return abs(a - b) / abs(b)


def trap_amplitude(power=15e-3):
    kappa = model.cavity_linewidth(7e5, 1e-3)
    return model.input_power_to_amplitude(power, kappa, 1.064e-6)


def table_drive(power=15e-3, cw=0.1, mod=0.0, mod_freq=0.0,
                detunings=(1.0, 1.0)):
    e0 = trap_amplitude(power)
    return DriveSpec(trap_amplitude=e0, cw_amplitudes=(cw * e0, cw * e0),
                     mod_amplitudes=(0.0, mod * e0), mod_frequency=mod_freq,
                     detunings=detunings)


# ------------------------------------------------------------------ masses

def test_disk_mass_matches_direct_arithmetic():
    assert rel(model.derive_mass(DISK), MASS_DISK) < 1e-12


def test_sphere_mass_matches_direct_arithmetic():
    assert rel(model.derive_mass(SPHERE), MASS_SPHERE) < 1e-12


def test_mass_override_wins():
    obj = ObjectSpec(kind=ObjectKind.NANOSPHERE, radius=100e-9,
                     relative_permittivity=2.1, mass=1e-17)
    assert model.derive_mass(obj) == 1e-17


# ----------------------------------------------------------- cavity basics

def test_cavity_linewidth():
    assert rel(model.cavity_linewidth(7e5, 1e-3), KAPPA_7E5) < 1e-12


def test_input_power_conversion():
    kappa = model.cavity_linewidth(7e5, 1e-3)
    assert rel(model.input_power_to_amplitude(15e-3, kappa, 1.064e-6),
               E0_15MW) < 1e-12


def test_bare_couplings():
    assert rel(model.bare_coupling(DISK, GEOM, 0), G_DISK) < 1e-12
    assert rel(model.bare_coupling(SPHERE, GEOM, 0), G_SPHERE) < 1e-12


def test_thermal_occupancy():
    assert rel(model.thermal_occupancy(2 * math.pi * 11e6, 0.1),
               NTH_11MHZ) < 1e-12


# --------------------------------------------------------- derived bundle

@pytest.fixture(scope="module")
def disk_params():
    return model.derive_params((DISK, DISK), GEOM, ENV, trap_amplitude())


def test_trap_frequency_near_11mhz(disk_params):
    # The default waist is calibrated so 15 mW traps the disk at 11 MHz.
    assert rel(disk_params.omega_mech[0], 2 * math.pi * 11e6) < 1e-6


def test_zero_point_motion(disk_params):
    assert rel(disk_params.x_zp[0], XZP_DISK) < 1e-6


def test_linear_coupling_at_quarter_pi(disk_params):
    assert rel(disk_params.g_lin[0, 0], GL_DISK) < 1e-6
    # phi_22 = -pi/4 flips the sign of the linear coupling.
    assert rel(disk_params.g_lin[1, 1], -GL_DISK) < 1e-6


def test_quadratic_coupling_vanishes_at_quarter_pi(disk_params):
    # Gq carries cos(2 phi) = 0 at phi = pi/4.
    assert abs(disk_params.g_quad).max() < 1e-12 * abs(GL_DISK)


def test_recoil_rates(disk_params):
    assert rel(disk_params.recoil[0], GAMMA_DISK) < 1e-6
    # Sphere recoil is geometry-free: Gamma / Omega is a material constant.
    p = model.derive_params((SPHERE, SPHERE), GEOM, ENV,
                            trap_amplitude(2.175454594614574e-4))
    assert rel(p.recoil[0] / p.omega_mech[0],
               GAMMA_SPHERE_OVER_OMEGA) < 1e-12


def test_recoil_scale_multiplies(disk_params):
    import dataclasses
    scaled = dataclasses.replace(DISK, recoil_scale=0.25)
    p = model.derive_params((scaled, scaled), GEOM, ENV, trap_amplitude())
    assert rel(p.recoil[0], 0.25 * GAMMA_DISK) < 1e-6


def test_gas_damping(disk_params):
    assert rel(disk_params.gamma[0], disk_params.omega_mech[0] / 1e6) < 1e-12


def test_trap_photons(disk_params):
    kappa = model.cavity_linewidth(7e5, 1e-3)
    assert rel(disk_params.trap_photons, (E0_15MW / kappa) ** 2) < 1e-9


def test_lamb_dicke_parameter_small(disk_params):
    assert (disk_params.lamb_dicke < model.LAMB_DICKE_LIMIT).all()
    assert rel(disk_params.lamb_dicke.max(), 1.60156459384755e-08) < 1e-6


# ----------------------------------------------------- phase relationships

@given(st.floats(-math.pi, math.pi, allow_nan=False))
def test_linear_coupling_odd_quadratic_even_in_phase(phi):
    gl_p, gq_p = model.lamb_dicke_couplings(1.0, 1.0, 1.0, phi)
    gl_m, gq_m = model.lamb_dicke_couplings(1.0, 1.0, 1.0, -phi)
    assert math.isclose(gl_p, -gl_m, abs_tol=1e-12)
    assert math.isclose(gq_p, gq_m, abs_tol=1e-12)


@given(st.floats(-math.pi, math.pi, allow_nan=False))
def test_couplings_pi_periodic(phi):
    a = model.lamb_dicke_couplings(1.0, 1.0, 1.0, phi)
    b = model.lamb_dicke_couplings(1.0, 1.0, 1.0, phi + math.pi)
    assert math.isclose(a[0], b[0], abs_tol=1e-9)
    assert math.isclose(a[1], b[1], abs_tol=1e-9)


def test_phase_geometry_offsets():
    k1 = GEOM.wavenumber(1)
    assert model.phase_geometry(3, k1, 1.064e-6) == 3 * k1 * 1.064e-6


def test_antinode_placement_equivalent_to_explicit_phases():
    geom = CavityGeometry(length=1e-3, trap_wavelength=1.064e-6,
                          control_wavelengths=(1.064e-6, 1.064e-6),
                          finesse_eff=(7e5, 7e5, 7e5),
                          phase_base=(0.3, 0.4), antinode_offsets=(2, 5))
    # antinode_offsets[i] separates the two objects along control mode i.
    for i, n in enumerate((2, 5)):
        k_i = geom.wavenumber(i + 1)
        base = (0.3, 0.4)[i]
        assert geom.phases[i][0] == base
        assert math.isclose(geom.phases[i][1], base + n * k_i * 1.064e-6,
                            rel_tol=1e-12)


# ------------------------------------------------------------- validation

def test_permittivity_must_exceed_one():
    with pytest.raises(ConfigError):
        ObjectSpec(kind=ObjectKind.MICRODISK, diameter=1e-6, thickness=1e-7,
                   relative_permittivity=0.9, density=2201.0)


def test_recoil_scale_range():
    with pytest.raises(ConfigError):
        ObjectSpec(kind=ObjectKind.NANOSPHERE, radius=1e-7,
                   relative_permittivity=2.1, density=2201.0,
                   recoil_scale=0.0)
    with pytest.raises(ConfigError):
        ObjectSpec(kind=ObjectKind.NANOSPHERE, radius=1e-7,
                   relative_permittivity=2.1, density=2201.0,
                   recoil_scale=1.5)


def test_exactly_one_mass_source():
    with pytest.raises(ConfigError):
        ObjectSpec(kind=ObjectKind.NANOSPHERE, radius=1e-7,
                   relative_permittivity=2.1, density=2201.0, mass=1e-17)
    with pytest.raises(ConfigError):
        ObjectSpec(kind=ObjectKind.NANOSPHERE, radius=1e-7,
                   relative_permittivity=2.1)


def test_modulation_below_cw():
    with pytest.raises(ConfigError):
        table_drive(mod=0.2, mod_freq=1.0)


def test_weak_trap_rejected():
    # A vanishing trap either gives no restoring force or breaks the
    # Lamb-Dicke expansion; both are configuration errors.
    with pytest.raises(ConfigError):
        model.derive_params((DISK, DISK), GEOM, ENV, trap_amplitude(1e-26))


def test_calibrate_mode_waist_round_trip():
    waist = model.calibrate_mode_waist(DISK, 1e-3, 1.064e-6, 7e5, 15e-3,
                                       2 * math.pi * 11e6)
    assert rel(waist, model.DEFAULT_MODE_WAIST) < 1e-6


@pytest.mark.parametrize("obj", [DISK, SPHERE], ids=["disk", "sphere"])
def test_calibrated_waist_gives_the_target_frequency(obj):
    target = 2 * math.pi * 11e6
    waist = model.calibrate_mode_waist(obj, 1e-3, 1.064e-6, 7e5, 15e-3, target)
    params = model.derive_params((obj, obj), replace(GEOM, mode_waist=waist),
                                 ENV, trap_amplitude())
    assert rel(params.omega_mech[0], target) < 1e-12


@pytest.mark.parametrize("target", [0.0, -2 * math.pi * 11e6],
                         ids=["zero", "negative"])
def test_calibrate_mode_waist_rejects_non_positive_target(target):
    with pytest.raises(ConfigError, match="must be positive"):
        model.calibrate_mode_waist(DISK, 1e-3, 1.064e-6, 7e5, 15e-3, target)


# ------------------------------------------------------------ import cost

def test_constants_equal_scipy_values():
    from scipy import constants
    assert model.HBAR == constants.hbar
    assert model.KB == constants.k
    assert model.C_LIGHT == constants.c


def _run_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this
    package from the same place as the tests do."""
    package_root = str(Path(model.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip()


def test_import_leaves_heavy_scipy_modules_out():
    # The package uses no SciPy at run time: the physical constants are
    # literals, the mode waist has a closed form and the Lyapunov solve is
    # NumPy's.  The star import loads every library layer, and the CLI
    # every layer its verbs run.
    for imports in ("from twintrap import *", "import twintrap.cli"):
        code = (f"import sys; {imports}; "
                "print(sorted(m for m in sys.modules if m.startswith("
                "('scipy.optimize', 'scipy.constants', 'scipy.linalg'))))")
        assert _run_python(code) == "[]", imports


#: ``twintrap.__all__`` as the package exported it when it imported every
#: layer eagerly: the eight layers and the names they export.
EXPORTED = [
    "AdiabaticityError", "BlowupError", "CavityGeometry", "ConfigError",
    "ConvergenceError", "CovTrajectory", "DerivedParams", "DriftGrid",
    "DriveSpec", "EffectiveReport", "EntanglementReport", "Environment",
    "EvolveResult", "HarmonicDecomposition", "MeanTrajectory", "ObjectKind",
    "ObjectSpec", "PeriodicOrbit", "ProbeSpec", "ProcessTag",
    "QuasiSteadyOrbit", "ReconstructionError", "Scenario", "StabilityReport",
    "SteadyStates", "UnstableSystemError", "build_diffusion", "derive_params",
    "drift_samples", "dynamics", "effective", "effective_J_series",
    "effective_report", "eta_min", "evolve", "evolve_covariance", "gaussian",
    "integrate_means", "load_scenario", "log_negativity", "lyapunov_steady",
    "mean_windows", "meanfield", "model", "modulation_harmonics",
    "output_observables", "parse_scenario", "period_map", "periodic_orbit",
    "phonon_occupation", "pipeline", "quasi_steady_orbit", "readout",
    "reconstruct_mech_cov", "reduced_steady_state", "resonance_advisor",
    "routh_hurwitz_stable", "rwa_classify", "scenario", "shipped_scenario",
    "stability_check", "steady_covariance", "steady_means", "steady_state",
    "steady_states", "symplectic_spectrum",
]


def test_package_loads_its_layers_on_first_use():
    # A set-up imports only the two layers it runs; every exported name
    # and layer still resolves, to the object its layer defines.
    code = """
import sys, types, twintrap
twintrap.load_scenario(twintrap.shipped_scenario("fig1_cw")).system()
print(sorted(m for m in sys.modules if m.split(".")[0] == "twintrap"))
print(sorted(twintrap.__all__))
names = {}
exec("from twintrap import *", names)
print([name for name, value in names.items() if name in twintrap.__all__
       and value is not (sys.modules["twintrap." + name]
                         if isinstance(value, types.ModuleType)
                         else getattr(sys.modules[value.__module__], name))])
print(set(twintrap.__all__) <= set(dir(twintrap)), twintrap.readout.__name__)
try:
    twintrap.no_such_name
except AttributeError as exc:
    print(exc)
"""
    setup, exported, same, listed, missing = _run_python(code).splitlines()
    assert setup == str(["twintrap", "twintrap.model", "twintrap.scenario"])
    assert exported == str(EXPORTED)
    assert same == "[]"
    assert listed == "True twintrap.readout"
    assert "no_such_name" in missing


def test_runs_without_scipy():
    # A None entry in sys.modules makes every ``import scipy`` fail.
    code = ("import math, sys; sys.modules['scipy'] = None; "
            "import twintrap; from twintrap import model; "
            "print(model.calibrate_mode_waist(model.ObjectSpec("
            "kind='microdisk', diameter=20e-6, thickness=150e-9, "
            "relative_permittivity=2.1, density=2201.0), 1e-3, 1.064e-6, "
            "7e5, 15e-3, 2 * math.pi * 11e6))")
    waist = float(_run_python(code))
    assert rel(waist, model.DEFAULT_MODE_WAIST) < 1e-6
