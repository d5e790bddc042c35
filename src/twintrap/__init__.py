"""Gaussian dynamics of two optically trapped dielectric objects in a
driven Fabry-Perot cavity.

The package derives all physical parameters from laboratory inputs
(`model`), solves the classical working point (`meanfield`), propagates the
linearized covariance matrix (`dynamics`), quantifies Gaussian entanglement
(`gaussian`), reduces the dynamics to an effective two-oscillator model
(`effective`), maps mechanical covariances to probe-field outputs and back
(`readout`), and wires everything together (`pipeline`, `scenario`, `cli`).

Each exported name, and each layer, loads on first use (PEP 562): ``import
twintrap`` imports no layer, and a set-up (``load_scenario(f).system()``)
imports only ``model`` and ``scenario``.  A fresh set-up of ``fig1_cw``
took 0.165 s of CPU when the package imported all eight layers and takes
0.125 s (medians of 10 alternating processes a side, no bytecode cache,
2-vCPU x86-64 VM); with a cache, 0.125 s and 0.108 s.
"""

import importlib

#: The public names of each layer, as ``twintrap.NAME`` and ``from twintrap
#: import NAME`` resolve them.
_LAYERS = {
    "model": ("CavityGeometry", "ConfigError", "DerivedParams", "DriveSpec",
              "Environment", "ObjectKind", "ObjectSpec", "derive_params"),
    "meanfield": ("ConvergenceError", "MeanTrajectory", "integrate_means",
                  "mean_windows", "steady_means"),
    "dynamics": ("BlowupError", "CovTrajectory", "DriftGrid", "PeriodicOrbit",
                 "QuasiSteadyOrbit", "StabilityReport", "UnstableSystemError",
                 "build_diffusion", "drift_samples", "evolve_covariance",
                 "lyapunov_steady", "period_map", "periodic_orbit",
                 "quasi_steady_orbit", "routh_hurwitz_stable",
                 "stability_check", "steady_covariance"),
    "gaussian": ("EntanglementReport", "eta_min", "log_negativity",
                 "phonon_occupation", "symplectic_spectrum"),
    "effective": ("HarmonicDecomposition", "ProcessTag", "effective_J_series",
                  "modulation_harmonics", "reduced_steady_state",
                  "resonance_advisor", "rwa_classify"),
    "readout": ("AdiabaticityError", "ProbeSpec", "ReconstructionError",
                "output_observables", "reconstruct_mech_cov"),
    "pipeline": ("EffectiveReport", "EvolveResult", "SteadyStates",
                 "effective_report", "evolve", "steady_state",
                 "steady_states"),
    "scenario": ("Scenario", "load_scenario", "parse_scenario",
                 "shipped_scenario"),
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted([*_LAYERS, *_EXPORTS])

__version__ = "1.0.0"


def __getattr__(name: str):
    """Import the layer ``name``, or the layer that defines the exported
    ``name`` and cache the name here."""
    if name in _LAYERS:
        # Importing a submodule binds it in this module's namespace.
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_EXPORTS[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
