"""Gaussian dynamics of two optically trapped dielectric objects in a
driven Fabry-Perot cavity.

The package derives all physical parameters from laboratory inputs
(`model`), solves the classical working point (`meanfield`), propagates the
linearized covariance matrix (`dynamics`), quantifies Gaussian entanglement
(`gaussian`), reduces the dynamics to an effective two-oscillator model
(`effective`), maps mechanical covariances to probe-field outputs and back
(`readout`), and wires everything together (`pipeline`, `scenario`, `cli`).
"""

from .model import (
    CavityGeometry,
    ConfigError,
    DerivedParams,
    DriveSpec,
    Environment,
    ObjectKind,
    ObjectSpec,
    derive_params,
)
from .meanfield import (
    ConvergenceError,
    MeanTrajectory,
    integrate_means,
    mean_windows,
    steady_means,
)
from .dynamics import (
    BlowupError,
    CovTrajectory,
    DriftGrid,
    PeriodicOrbit,
    QuasiSteadyOrbit,
    StabilityReport,
    UnstableSystemError,
    build_diffusion,
    drift_samples,
    evolve_covariance,
    lyapunov_steady,
    period_map,
    periodic_orbit,
    quasi_steady_orbit,
    routh_hurwitz_stable,
    stability_check,
    steady_covariance,
)
from .gaussian import (
    EntanglementReport,
    eta_min,
    log_negativity,
    phonon_occupation,
    symplectic_spectrum,
)
from .effective import (
    HarmonicDecomposition,
    ProcessTag,
    effective_J_series,
    modulation_harmonics,
    reduced_steady_state,
    resonance_advisor,
    rwa_classify,
)
from .readout import (
    AdiabaticityError,
    ProbeSpec,
    ReconstructionError,
    output_observables,
    reconstruct_mech_cov,
)
from .pipeline import (
    EffectiveReport,
    EvolveResult,
    SteadyStates,
    effective_report,
    evolve,
    steady_state,
    steady_states,
)
from .scenario import Scenario, load_scenario, parse_scenario, shipped_scenario

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
