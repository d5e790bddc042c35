"""High-level drivers tying model -> meanfield -> dynamics -> gaussian.

Scenario inputs are SI; internally time is rescaled so that Omega_1 = 1,
which keeps every rate within a few decades of unity, and results are
converted back on output.  The natural time unit for reporting is
tau = 4 pi / (Omega_1 + Omega_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dynamics, effective, gaussian, meanfield
from .model import DerivedParams, DriveSpec

#: Steps per cycle of the fastest rate in the drift (fixed-step rule).
STEPS_PER_CYCLE = 200


@dataclass(frozen=True)
class System:
    """A derived parameter set with its drive and mechanical-noise convention."""

    params: DerivedParams
    drive: DriveSpec
    diffusion_high_t: bool = False

    @property
    def tau(self) -> float:
        return 4 * math.pi / float(self.params.omega_mech.sum())

    def rescaled(self, scale: float) -> "System":
        """All rates divided by ``scale`` (time measured in 1/scale units)."""
        p = self.params
        params = replace(p, **{f.name: getattr(p, f.name) / scale
                               for f in fields(p) if f.metadata.get("rate")})
        drive = replace(
            self.drive,
            trap_amplitude=self.drive.trap_amplitude / scale,
            cw_amplitudes=tuple(e / scale for e in self.drive.cw_amplitudes),
            mod_amplitudes=tuple(e / scale for e in self.drive.mod_amplitudes),
            mod_frequency=self.drive.mod_frequency / scale,
            detunings=tuple(d / scale for d in self.drive.detunings),
        )
        return replace(self, params=params, drive=drive)


def timestep(system: System) -> float:
    """dt <= 2 pi / (200 max(Omega, Delta, kappa, w_D)), in SI seconds."""
    p, d = system.params, system.drive
    fastest = max(float(np.max(p.omega_mech)), float(np.max(np.abs(d.detunings))),
                  float(np.max(p.kappa)), d.mod_frequency)
    return 2 * math.pi / (STEPS_PER_CYCLE * fastest)


def steady_state(system: System) -> tuple[gaussian.EntanglementReport, np.ndarray]:
    """CW steady state: fixed point, Lyapunov solve, entanglement report."""
    sys_n = system.rescaled(float(system.params.omega_mech[0]))
    wp = meanfield.steady_means(sys_n.params, sys_n.drive.unmodulated())
    a = dynamics.drift_samples(wp, sys_n.params)
    d = dynamics.build_diffusion(sys_n.params, high_t=sys_n.diffusion_high_t)
    v = dynamics.lyapunov_steady(a, d)   # raises UnstableSystemError
    return gaussian.report_from_covariance(v, stable=True), v


@dataclass(frozen=True)
class EvolveResult:
    """Covariance trajectory with entanglement measures per stored sample."""

    t_over_tau: np.ndarray
    eta_min: np.ndarray
    log_neg: np.ndarray
    nbar1: np.ndarray
    nbar2: np.ndarray
    cov: dynamics.CovTrajectory      # times in tau units
    orbit: dynamics.QuasiSteadyOrbit
    tau: float


def evolve(system: System, t_max_tau: float,
           steps_per_period: int | None = None,
           store_per_period: int = 32) -> EvolveResult:
    """Integrate the covariance under the (possibly modulated) drive.

    Runs for ``t_max_tau`` units of tau = 4 pi / (Omega1 + Omega2), starting
    from the CW steady state.  Storage is aligned to the drive period so
    the quasi-steady orbit can be extracted exactly.
    """
    scale = float(system.params.omega_mech[0])
    sys_n = system.rescaled(scale)
    p, drv = sys_n.params, sys_n.drive
    tau = sys_n.tau

    omega_d = drv.mod_frequency
    period = 2 * math.pi / omega_d if omega_d > 0 else tau
    if steps_per_period is None:
        steps_per_period = max(16, int(math.ceil(period / timestep(sys_n))))
    # Keep the store grid commensurate with the drive period.
    store_stride = max(1, steps_per_period // store_per_period)
    steps_per_period = store_stride * int(math.ceil(steps_per_period / store_stride))
    dt = period / steps_per_period

    n_periods = max(1, int(math.ceil(t_max_tau * tau / period)))
    n_steps = n_periods * steps_per_period

    wp0 = meanfield.steady_means(p, drv.unmodulated())
    means = meanfield.integrate_means(p, drv, (0.0, n_steps * dt), dt / 2,
                                      initial=wp0)
    a_half = dynamics.drift_samples(means, p)
    d = dynamics.build_diffusion(p, high_t=sys_n.diffusion_high_t)

    v0 = dynamics.lyapunov_steady(dynamics.drift_samples(wp0, p), d)
    traj = dynamics.evolve_covariance(v0, a_half, d, dt, store_stride=store_stride)
    del means, a_half   # free the half-step grids before the stacked analysis
    orbit = dynamics.quasi_steady_orbit(traj, omega_d)

    block = gaussian.mechanical_block(traj.v)
    eta = gaussian.eta_min(block)
    en = np.maximum(0.0, -np.log(2 * eta))
    nb1 = gaussian.phonon_occupation(block, 1)
    nb2 = gaussian.phonon_occupation(block, 2)
    return EvolveResult(
        t_over_tau=traj.t / tau, eta_min=eta, log_neg=en, nbar1=nb1, nbar2=nb2,
        cov=dynamics.CovTrajectory(t=traj.t / tau, v=traj.v),
        orbit=orbit, tau=tau / scale,
    )


@dataclass(frozen=True)
class EffectiveReport:
    """Adiabatic-elimination summary for a (possibly modulated) drive."""

    j_dc: np.ndarray
    j_first: np.ndarray
    j_second: np.ndarray
    harmonic_residual: float
    omega_sum: float          # rad/s, SI
    omega_half: float
    weak_coupling: bool
    process_tags: list


def effective_report(system: System) -> EffectiveReport:
    """J harmonics over the periodic mean-field orbit plus advisor output."""
    scale = float(system.params.omega_mech[0])
    sys_n = system.rescaled(scale)
    p, drv = sys_n.params, sys_n.drive

    wp = meanfield.steady_means(p, drv.unmodulated())
    omega_d = drv.mod_frequency

    if omega_d > 0:
        period = 2 * math.pi / omega_d
        n_steps = int(math.ceil(period / min(timestep(sys_n), period / 256)))
        orbit = dynamics.periodic_orbit(p, drv, period / n_steps).means
        harm = effective.modulation_harmonics(
            orbit.t, effective.effective_J_series(orbit, p), omega_d)
    else:
        j0 = effective.effective_J_series(wp, p)
        harm = effective.HarmonicDecomposition(
            dc=j0, first=np.zeros((2, 2)), second=np.zeros((2, 2)), residual=0.0)

    advisor = effective.resonance_advisor(*wp.omega_shifted)
    tags = effective.rwa_classify(wp.omega_shifted[0], wp.omega_shifted[1], omega_d)
    return EffectiveReport(
        j_dc=harm.dc * scale, j_first=harm.first * scale, j_second=harm.second * scale,
        harmonic_residual=harm.residual,
        omega_sum=advisor["omega_sum"] * scale,
        omega_half=advisor["omega_half"] * scale,
        weak_coupling=effective.weak_coupling_ok(wp, p),
        process_tags=tags,
    )
