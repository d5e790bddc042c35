"""High-level drivers tying model -> meanfield -> dynamics -> gaussian.

The one-drive verbs (``steady_state``, ``evolve``, ``effective_report``)
run a resolved ``Scenario``; ``steady_states`` runs a stack of CW drives.

Every quantity is SI: rates in rad/s, times in seconds.  The solvers'
tolerances are relative or act on the dimensionless mean state and
covariance, so no internal time unit is needed.  The reporting unit of time
is tau = 4 pi / (Omega_1 + Omega_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics, effective, gaussian, meanfield
from .meanfield import ConvergenceError, MeanTrajectory, UnstableSystemError
from .model import ConfigError, DerivedParams, DriveSpec
from .scenario import Scenario

#: Steps per cycle of the fastest rate in the drift (fixed-step rule).
STEPS_PER_CYCLE = 200

#: Relative bound on the step error of the periodic covariance V_0 that
#: ``evolve_grid`` picks the steps of a period for.
STEP_RTOL = 1e-6

#: Distance of a run's final mean state from the probe orbit's start,
#: relative in the max norm of the shooting residual, beyond which the run
#: did not reach the orbit its step-error estimate was made on.  It tells a
#: run still in its transient from one on the orbit; it bounds no
#: covariance error, and the estimate it lets through is that of V_0 only.
ORBIT_REACH_RTOL = 1e-2


def fastest_rate(scenario: Scenario) -> float:
    """max(Omega, |Delta|, kappa, w_D) of the scenario, in rad/s.

    A ``Scenario`` holds no rate above ``scenario.RATE_MAX``: every verb's
    scenario is refused where it is built, and a sweep value in
    ``Scenario.drive_stack``, so the time step STEPS_PER_CYCLE times this
    rate, the cavity response kappa^2 + Delta^2 and the Routh-Hurwitz
    table's powers of the drift are finite.
    """
    return scenario.fastest_rate()[1]


def timestep(scenario: Scenario) -> float:
    """dt <= 2 pi / (200 max(Omega, Delta, kappa, w_D)), in SI seconds."""
    return 2 * math.pi / (STEPS_PER_CYCLE * fastest_rate(scenario))


def period_grid(scenario: Scenario) -> tuple[float, int, int]:
    """(period in s, steps, stride) that ``effective_report`` steps on, and
    the most steps ``evolve_grid`` gives ``evolve``: the drive's period, or
    tau unmodulated, in ``steps_per_period``
    steps (by default enough for ``timestep``) rounded up to a multiple of
    the store stride, max(1, steps // ``store_per_period``) of ``numerics``."""
    num, omega_d = scenario.numerics, scenario.drive.mod_frequency
    period = (2 * math.pi / omega_d if omega_d > 0
              else 4 * math.pi / float(scenario.params.omega_mech.sum()))
    steps = num.steps_per_period or math.ceil(period / timestep(scenario))
    stride = max(1, steps // num.store_per_period)
    return period, stride * math.ceil(steps / stride), stride


class EvolveGrid(NamedTuple):
    """The grid ``evolve`` steps on, from ``evolve_grid``."""

    period: float                   # s
    steps: int                      # per period
    stride: int                     # steps per stored sample
    step_error: float | None        # estimated relative step error of V_0
    orbit_start: np.ndarray | None  # the probe orbit's mean state at t = 0


def _periodic_start(scenario: Scenario, steps: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(V_0, y(0)) of the periodic orbit of the scenario's modulated drive
    on ``steps`` steps a period: the periodic covariance and mean state at
    the start of a drive period."""
    p, drv = scenario.params, scenario.drive
    orbit = dynamics.periodic_orbit(p, drv, steps)
    phi, q_t = dynamics.period_map(
        dynamics.drift_samples(orbit.means, p),
        2 * math.pi / drv.mod_frequency / steps, dynamics.build_diffusion(p))
    return dynamics.periodic_covariance(phi, q_t), orbit.means.y[0]


def evolve_grid(scenario: Scenario) -> EvolveGrid:
    """The fewest steps a period, a multiple of ``store_per_period``, whose
    estimated step error of the periodic covariance V_0 is within
    ``STEP_RTOL``; ``period_grid``'s steps at most.

    The estimate is Richardson's (Hairer, Norsett & Wanner, Solving ODEs I,
    sec. II.4) for a fourth-order step: with the probe N_0 = 2
    ``store_per_period``, e = (16/15) ||V_0(N_0) - V_0(2 N_0)||_F /
    ||V_0(2 N_0)||_F, and N steps carry e (N_0 / N)^4, which is
    ``step_error``.  The stride is N / ``store_per_period``, so a period
    stores exactly ``store_per_period`` samples.  ``period_grid``'s grid is
    taken, with no estimate, for an explicit ``steps_per_period``, an
    unmodulated drive, a probe not below ``period_grid``'s steps, or a
    probe orbit that stalls or is unstable; and, with the estimate scaled
    to its steps, when no smaller multiple meets the bound.
    """
    period, steps, stride = period_grid(scenario)
    store = scenario.numerics.store_per_period
    probe = 2 * store
    if (scenario.numerics.steps_per_period or not scenario.drive.modulated
            or probe >= steps):
        return EvolveGrid(period, steps, stride, None, None)
    try:
        coarse, _ = _periodic_start(scenario, probe)
        fine, start = _periodic_start(scenario, 2 * probe)
    except (ConvergenceError, UnstableSystemError):
        return EvolveGrid(period, steps, stride, None, None)
    error = 16 / 15 * float(np.linalg.norm(coarse - fine) / np.linalg.norm(fine))
    n = next((n for n in range(probe, steps, store)
              if error * (probe / n) ** 4 <= STEP_RTOL), steps)
    return EvolveGrid(period, n, n // store if n < steps else stride,
                      error * (probe / n) ** 4, start)


def require_cw(drive: DriveSpec) -> None:
    """Raise ``ConfigError`` if the drive is modulated: such a drive has no
    CW steady state, so ``steady`` and ``sweep`` cannot run it."""
    if drive.modulated:
        raise ConfigError("the drive is modulated and has no CW steady "
                          "state; run evolve for its long-time state")


@dataclass(frozen=True)
class SteadyStates:
    """CW steady states of B drives of one parameter set, in input order.

    A point's measures and covariance are in its slot of the arrays; a
    point with no steady state has NaN there and its error in ``failures``
    under its slot index, in slot order.
    """

    eta_min: np.ndarray     # (B,)
    log_neg: np.ndarray     # (B,)
    nbar1: np.ndarray       # (B,)
    nbar2: np.ndarray       # (B,)
    cov: np.ndarray         # (B, 8, 8)
    failures: dict[int, Exception]  # UnstableSystemError | ConvergenceError


def steady_states(params: DerivedParams, cw_amplitudes: np.ndarray,
                  detunings: np.ndarray) -> SteadyStates:
    """CW steady states of the B drives of one parameter set whose CW
    amplitudes and effective detunings are the rows of two (B, 2) arrays.

    One ``meanfield.cw_working_points`` call gives the working points, one
    ``drift_samples`` call their drifts and one diffusion matrix serves
    them all; one ``dynamics.steady_covariance`` call solves the confined
    points' drifts and names the failures among them, which are scattered
    into the slots of their points, beside the ``UnstableSystemError`` of
    each point whose trap does not confine.  One Gaussian analysis covers
    the points with no failure.  The drives must be CW (``require_cw``);
    the arrays carry no modulation.
    """
    wp, confining = meanfield.cw_working_points(params, cw_amplitudes,
                                                detunings)
    v, _, failed = dynamics.steady_covariance(
        dynamics.drift_samples(wp, params)[confining],
        dynamics.build_diffusion(params))
    confined = np.flatnonzero(confining)
    failures = {k: meanfield.UnstableSystemError.unconfined(wp.omega_shifted[k])
                for k in np.flatnonzero(~confining).tolist()}
    failures.update((int(confined[k]), error) for k, error in failed.items())

    b, n = len(confining), v.shape[-1]
    cov = np.full((b, n, n), np.nan)
    cov[confined] = v
    solved = np.ones(b, dtype=bool)
    solved[list(failures)] = False
    measures = [np.full(b, np.nan) for _ in range(4)]
    for full, got in zip(measures, gaussian.measures(cov[solved])):
        full[solved] = got
    return SteadyStates(*measures, cov=cov, failures=dict(sorted(
        failures.items())))


def steady_state(scenario: Scenario) -> tuple[gaussian.EntanglementReport, np.ndarray]:
    """CW steady state of one scenario: ``steady_states`` of a one-drive
    stack.  Raises its error when there is none, and ``ConfigError`` for a
    modulated drive."""
    drive = scenario.drive
    require_cw(drive)
    states = steady_states(scenario.params, np.array([drive.cw_amplitudes]),
                           np.array([drive.detunings]))
    if states.failures:
        raise states.failures[0]
    report = gaussian.EntanglementReport(
        float(states.eta_min[0]), float(states.log_neg[0]),
        float(states.nbar1[0]), float(states.nbar2[0]), stable=True)
    return report, states.cov[0]


@dataclass(frozen=True)
class EvolveResult:
    """Covariance trajectory with entanglement measures per stored sample."""

    t_over_tau: np.ndarray
    eta_min: np.ndarray
    log_neg: np.ndarray
    nbar1: np.ndarray
    nbar2: np.ndarray
    cov: dynamics.CovTrajectory      # times in tau units
    orbit: dynamics.QuasiSteadyOrbit  # times in s
    tau: float                       # s
    steps_per_period: int
    # Of the periodic state V_0 only (``evolve_grid``), if the run reached
    # its orbit; the stored series can carry more step error.
    step_error_estimate: float | None
    eta_min_final_period: float      # least over every step, refined
    log_neg_final_period: float      # largest, max(0, -ln 2 eta_min)


def _refined_minimum(f: np.ndarray) -> float:
    """The least of samples ``f`` over one period of a uniform grid, whose
    first and last samples are the same phase, refined to the vertex of the
    parabola through the least sample and its two neighbours; the
    neighbours of either end are ``f[-2]`` and ``f[1]``."""
    n, k = len(f) - 1, int(np.argmin(f))
    before, least, after = f[(k - 1) % n], f[k], f[k % n + 1]
    curvature = before + after - 2 * least
    if curvature > 0:
        return float(least - (after - before) ** 2 / (8 * curvature))
    return float(least)


def _keeping(windows, first: int, kept: list[MeanTrajectory]):
    """Pass the mean-field ``windows`` through, appending to ``kept`` the
    part of each from sample ``first`` of the half-step grid on."""
    start = 0
    for means in windows:
        end = start + len(means) - 1
        if end > first:
            kept.append(means[max(first - start, 0):])
        start = end
        yield means


def evolve(scenario: Scenario) -> EvolveResult:
    """Integrate the covariance under the scenario's (possibly modulated)
    drive, on the grid of ``evolve_grid``.

    Runs for ``numerics.t_max_tau`` units of tau = 4 pi / (Omega1 +
    Omega2), starting from the CW steady state.  The means take RK4 steps
    dt and the covariance takes Pade-Magnus steps of the same dt
    (``dynamics.evolve_covariance``), which read the drift at the ends and
    midpoint of each step on the means' half-step grid; the midpoints are
    Hermite values, not RHS stages.  The means are integrated one
    propagator chunk at a time (``meanfield.mean_windows``) and turned into
    that chunk's drift (``dynamics.DriftGrid``), so the working memory is
    one chunk plus the stored samples, whatever the horizon.  The
    quasi-steady orbit is the last period of the stored samples.

    The final period is stepped once more from its first stored covariance,
    keeping every step (``dynamics.evolve_covariance`` at stride 1): its
    least eta_min is refined between steps (``_refined_minimum``), and its
    largest E_N is that of the refined eta_min.  The step-error estimate is
    that of the periodic state V_0, not of the stored series; it is dropped
    when the final mean state is more than ``ORBIT_REACH_RTOL`` from the
    probe orbit's start, which the run then did not reach.
    """
    p, drv, num = scenario.params, scenario.drive, scenario.numerics
    tau = 4 * math.pi / float(p.omega_mech.sum())
    period, steps, stride, step_error, orbit_start = evolve_grid(scenario)
    dt = period / steps

    n_periods = max(1, int(math.ceil(num.t_max_tau * tau / period)))
    n_steps = n_periods * steps

    wp0 = meanfield.steady_means(p, drv.unmodulated())
    d = dynamics.build_diffusion(p)
    v0 = dynamics.lyapunov_steady(dynamics.drift_samples(wp0, p), d)
    tail: list[MeanTrajectory] = []
    windows = _keeping(meanfield.mean_windows(
        p, drv, (0.0, n_steps * dt), dt, initial=wp0,
        window_steps=dynamics.chunk_steps(stride)), 2 * (n_steps - steps), tail)
    traj = dynamics.evolve_covariance(
        v0, dynamics.DriftGrid(windows, 2 * n_steps + 1, p), d, dt,
        store_stride=stride)
    orbit = dynamics.quasi_steady_orbit(traj, steps // stride)

    drifts = [dynamics.drift_samples(means, p) for means in tail]
    cycle = np.concatenate([drifts[0]] + [a[1:] for a in drifts[1:]])
    eta_final = _refined_minimum(gaussian.eta_min(dynamics.evolve_covariance(
        traj.v[-(steps // stride + 1)], cycle, d, dt).v))
    if orbit_start is not None and (
            np.max(np.abs(tail[-1].y[-1] - orbit_start))
            > ORBIT_REACH_RTOL * max(np.max(np.abs(orbit_start)), 1.0)):
        step_error = None

    eta, en, nb1, nb2 = gaussian.measures(traj.v)
    return EvolveResult(
        t_over_tau=traj.t / tau, eta_min=eta, log_neg=en, nbar1=nb1, nbar2=nb2,
        cov=dynamics.CovTrajectory(t=traj.t / tau, v=traj.v),
        orbit=orbit, tau=tau, steps_per_period=steps,
        step_error_estimate=step_error, eta_min_final_period=eta_final,
        log_neg_final_period=gaussian.log_negativity_of(eta_final),
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


def effective_report(scenario: Scenario) -> EffectiveReport:
    """J harmonics over the periodic mean-field orbit plus advisor output."""
    p, drv = scenario.params, scenario.drive
    wp = meanfield.steady_means(p, drv.unmodulated())
    omega_d = drv.mod_frequency

    if omega_d > 0:
        orbit = dynamics.periodic_orbit(p, drv, period_grid(scenario)[1]).means
        harm = effective.modulation_harmonics(
            orbit.t, effective.effective_J_series(orbit, p), omega_d)
    else:
        j0 = effective.effective_J_series(wp, p)
        harm = effective.HarmonicDecomposition(
            dc=j0, first=np.zeros((2, 2)), second=np.zeros((2, 2)), residual=0.0)

    advisor = effective.resonance_advisor(*wp.omega_shifted)
    tags = effective.rwa_classify(wp.omega_shifted[0], wp.omega_shifted[1], omega_d)
    return EffectiveReport(
        j_dc=harm.dc, j_first=harm.first, j_second=harm.second,
        harmonic_residual=harm.residual,
        omega_sum=advisor["omega_sum"],
        omega_half=advisor["omega_half"],
        weak_coupling=effective.weak_coupling_ok(wp, p),
        process_tags=tags,
    )
