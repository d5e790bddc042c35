"""Drift/diffusion matrices, stability, Lyapunov solve, covariance evolution,
and the periodic mean-field orbit of a modulated drive with its monodromy.

State ordering throughout: u = (x1, p1, x2, p2, X1, Y1, X2, Y2), mechanical
quadratures first, then the two control-mode quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .model import DerivedParams, DriveSpec
from .meanfield import (ConvergenceError, MeanTrajectory, integrate_means,
                        steady_means)

SQRT2 = np.sqrt(2.0)

#: Relative eigenvalue magnitude below which stability is ruled marginal.
MARGINAL_TOL = 1e-8

#: Relative residual bound enforced on every steady Lyapunov solve.
LYAPUNOV_RTOL = 1e-10

#: Periodic-orbit shooting: relative residual |y(T) - y(0)| accepted as
#: periodic, Newton iterations allowed per continuation step, and the
#: smallest step in the modulation amplitude before giving up.
SHOOT_TOL = 1e-11
SHOOT_NEWTON_CAP = 5
SHOOT_MIN_STEP = 2.0 ** -8

#: S of u = S y: the mean state's (Re a, Im a) scaled to quadratures (X, Y).
_QUADRATURES = np.array([1.0, 1.0, 1.0, 1.0, SQRT2, SQRT2, SQRT2, SQRT2])


class UnstableSystemError(RuntimeError):
    """Requested a steady state of a drift matrix with non-negative spectrum,
    or a periodic orbit whose monodromy has spectral radius >= 1."""


class BlowupError(RuntimeError):
    """Covariance norm exploded during integration."""

    def __init__(self, t: float):
        super().__init__(f"covariance blow-up at t = {t:.6e}")
        self.t = t


def build_diffusion(params: DerivedParams, high_t: bool = False) -> np.ndarray:
    """Diagonal diffusion matrix of the noise correlations.

    The momentum entries are (2 n_th + 1) gamma + 2 Gamma: the thermal bath
    enters through its damping gamma, photon recoil through its phonon
    heating rate Gamma = dn/dt, which does not depend on the bath
    temperature.  With vacuum variance 1/2, n + 1/2 = (<x^2> + <p^2>) / 2,
    so a heating rate Gamma needs d<p^2>/dt = 2 Gamma.  ``high_t`` replaces
    the exact Bose factor 2 n_th + 1 by its classical limit
    2 kB T / (hbar Omega) (they differ below the percent level at the
    shipped scenarios); the recoil term is unchanged.
    """
    if high_t:
        # 2 kB T / (hbar Omega), recovered from the occupancy via
        # kB T / (hbar Omega) = 1 / ln(1 + 1/n_th).
        mech = 2.0 / np.log1p(1.0 / params.n_thermal)
    else:
        mech = 2 * params.n_thermal + 1
    d_pp = mech * params.gamma + 2 * params.recoil
    kappa = params.kappa_control()
    return np.diag([0.0, d_pp[0], 0.0, d_pp[1],
                    kappa[0], kappa[0], kappa[1], kappa[1]])


def _characteristic_polynomial(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier.

    Avoids any eigenvalue computation so the Routh-Hurwitz verdict stays
    independent of the spectral oracle used in tests.
    """
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    eye = np.eye(n)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def routh_hurwitz_stable(a: np.ndarray) -> bool:
    """True iff all characteristic roots lie strictly in the left half-plane.

    Builds the Routh table of the characteristic polynomial; a zero pivot
    (marginal case) counts as not stable.
    """
    coeffs = _characteristic_polynomial(np.asarray(a, dtype=float))
    n = len(coeffs) - 1
    if any(c <= 0 for c in coeffs):
        # Necessary condition: all coefficients of a Hurwitz polynomial
        # (with positive leading coefficient) are positive.
        return False
    width = (n + 2) // 2
    rows = np.zeros((n + 1, width + 1))
    rows[0, :len(coeffs[0::2])] = coeffs[0::2]
    rows[1, :len(coeffs[1::2])] = coeffs[1::2]
    scale = np.max(np.abs(coeffs))
    for r in range(2, n + 1):
        pivot = rows[r - 1, 0]
        if abs(pivot) <= 1e-300 * scale:
            return False
        for c in range(width):
            rows[r, c] = (pivot * rows[r - 2, c + 1]
                          - rows[r - 2, 0] * rows[r - 1, c + 1]) / pivot
        if rows[r, 0] <= 0:
            return False
    return True


@dataclass(frozen=True)
class StabilityReport:
    verdict: str            # "stable" | "unstable" | "marginal"
    margin: float           # -max Re(eigenvalue)

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"


def stability_check(a: np.ndarray) -> StabilityReport:
    """Routh-Hurwitz verdict plus the spectral abscissa margin."""
    a = np.asarray(a, dtype=float)
    max_re = float(np.max(np.linalg.eigvals(a).real))
    norm = float(np.linalg.norm(a, 2))
    if abs(max_re) <= MARGINAL_TOL * max(norm, 1.0):
        return StabilityReport("marginal", -max_re)
    verdict = "stable" if routh_hurwitz_stable(a) else "unstable"
    return StabilityReport(verdict, -max_re)


def lyapunov_steady(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Steady covariance from A V + V A^T + D = 0.

    Raises ``UnstableSystemError`` when the drift admits no steady state and
    enforces the relative residual bound on the returned solution.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    report = stability_check(a)
    if not report.stable:
        raise UnstableSystemError(
            f"no steady state: drift is {report.verdict} (margin {report.margin:.3e})")
    v = solve_continuous_lyapunov(a, -d)
    v = 0.5 * (v + v.T)
    residual = np.linalg.norm(a @ v + v @ a.T + d) / np.linalg.norm(d)
    if residual > LYAPUNOV_RTOL:
        raise RuntimeError(f"Lyapunov residual {residual:.3e} above bound")
    return v


@dataclass(frozen=True)
class CovTrajectory:
    """Covariance samples V(t_k) on a uniform stored grid."""

    t: np.ndarray            # (n,)
    v: np.ndarray            # (n, 8, 8); (n, 4, 4) for the reduced model

    def __len__(self) -> int:
        return len(self.t)


def drift_samples(traj: MeanTrajectory, params: DerivedParams) -> np.ndarray:
    """Drift matrix of the linearized fluctuation equations at every sample.

    Returns shape (n, 8, 8) for a trajectory of n samples and (8, 8) for a
    single working point.
    """
    g = traj.coupling  # (..., i, j) complex
    a = np.zeros(g.shape[:-2] + (8, 8))
    kappa = params.kappa_control()
    for j in range(2):
        xr, pr = 2 * j, 2 * j + 1
        a[..., xr, pr] = params.omega_mech[j]
        a[..., pr, xr] = -traj.omega_shifted[..., j]
        a[..., pr, pr] = -params.gamma[j]
        for i in range(2):
            xc, yc = 4 + 2 * i, 5 + 2 * i
            a[..., pr, xc] = -SQRT2 * g[..., i, j].real
            a[..., pr, yc] = -SQRT2 * g[..., i, j].imag
            a[..., xc, xr] = SQRT2 * g[..., i, j].imag
            a[..., yc, xr] = -SQRT2 * g[..., i, j].real
    for i in range(2):
        xc, yc = 4 + 2 * i, 5 + 2 * i
        a[..., xc, xc] = -kappa[i]
        a[..., xc, yc] = traj.detuning[..., i]
        a[..., yc, xc] = -traj.detuning[..., i]
        a[..., yc, yc] = -kappa[i]
    return a


def evolve_covariance(v0: np.ndarray, a_half: np.ndarray, d: np.ndarray,
                      dt: float, t0: float = 0.0,
                      store_stride: int = 1) -> CovTrajectory:
    """RK4 integration of V' = A(t) V + V A(t)^T + D for n x n matrices.

    ``a_half`` holds drift matrices on the half-step grid: 2N + 1 samples at
    spacing dt/2 for N steps (``np.broadcast_to`` serves a constant drift),
    so the RK4 stages see the exact drift without interpolation.  Each stage
    is formed as M = A V, K = M + M^T + D (D symmetrized once), which is
    exactly symmetric, so V stays exactly symmetric without
    re-symmetrization.  A non-finite covariance, or one whose norm exceeds
    1e6 x the initial norm, raises ``BlowupError``.
    """
    if a_half.ndim != 3 or a_half.shape[0] % 2 == 0:
        raise ValueError("a_half must hold an odd number of drift samples")
    n_steps = (a_half.shape[0] - 1) // 2
    v = np.asarray(v0, dtype=float)
    v = 0.5 * (v + v.T)
    d = np.asarray(d, dtype=float)
    d = 0.5 * (d + d.T)
    # Squared Frobenius bound; ``not (s <= bound)`` also catches NaN.
    bound = (1e6 * max(float(np.linalg.norm(v)), 1.0)) ** 2

    n_stored = n_steps // store_stride + 1
    out_t = np.empty(n_stored)
    out_v = np.empty((n_stored,) + v.shape)
    out_t[0] = t0
    out_v[0] = v
    stored = 1
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n_steps):
        a0 = a_half[2 * k]
        am = a_half[2 * k + 1]
        a1 = a_half[2 * k + 2]
        m = a0 @ v
        k1 = m + m.T + d
        m = am @ (v + half * k1)
        k2 = m + m.T + d
        m = am @ (v + half * k2)
        k3 = m + m.T + d
        m = a1 @ (v + dt * k3)
        k4 = m + m.T + d
        v = v + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        flat = v.ravel()
        if not flat @ flat <= bound:
            raise BlowupError(t0 + (k + 1) * dt)
        if (k + 1) % store_stride == 0:
            out_t[stored] = t0 + (k + 1) * dt
            out_v[stored] = v
            stored += 1
    return CovTrajectory(t=out_t[:stored], v=out_v[:stored])


@dataclass(frozen=True)
class QuasiSteadyOrbit:
    """One drive period extracted from the tail of a covariance trajectory."""

    t: np.ndarray
    v: np.ndarray
    converged: bool
    period_change: float


def quasi_steady_orbit(traj: CovTrajectory, omega_d: float,
                       tol: float = 1e-3) -> QuasiSteadyOrbit:
    """Final-period samples, flagged converged when the period-to-period
    relative covariance change falls below ``tol``.

    For an unmodulated run (``omega_d`` = 0) the final sample is compared
    against the one a nominal period earlier.
    """
    dt_store = traj.t[1] - traj.t[0] if len(traj) > 1 else 0.0
    if omega_d > 0:
        period = 2 * np.pi / omega_d
    else:
        period = max(dt_store, (traj.t[-1] - traj.t[0]) / 10)
    n_per = max(1, int(round(period / dt_store))) if dt_store > 0 else 1
    if len(traj) < 2 * n_per + 1:
        return QuasiSteadyOrbit(traj.t, traj.v, False, np.inf)
    last = traj.v[-(n_per + 1):]
    prev = traj.v[-(2 * n_per + 1):-n_per]
    change = float(np.max(
        np.linalg.norm(last - prev, axis=(1, 2)) / np.linalg.norm(last, axis=(1, 2))))
    return QuasiSteadyOrbit(traj.t[-(n_per + 1):], last, change < tol, change)


def monodromy(a_half: np.ndarray, dt: float) -> np.ndarray:
    """Period map Phi of du/dt = A(t) u: RK4 on the half-step drift grid.

    ``a_half`` is laid out as for ``evolve_covariance`` (2N + 1 samples at
    spacing dt/2 for N steps).
    """
    if a_half.ndim != 3 or a_half.shape[0] % 2 == 0:
        raise ValueError("a_half must hold an odd number of drift samples")
    half = 0.5 * dt
    sixth = dt / 6.0
    phi = np.eye(a_half.shape[1])
    for k in range((a_half.shape[0] - 1) // 2):
        a0, am, a1 = a_half[2 * k], a_half[2 * k + 1], a_half[2 * k + 2]
        k1 = a0 @ phi
        k2 = am @ (phi + half * k1)
        k3 = am @ (phi + half * k2)
        k4 = a1 @ (phi + dt * k3)
        phi = phi + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return phi


@dataclass(frozen=True)
class PeriodicOrbit:
    """The attracting periodic mean-field orbit over one drive period."""

    means: MeanTrajectory    # 2N + 1 samples at spacing dt/2, t from 0 to T
    rho: float               # spectral radius of the monodromy, < 1
    residual: float          # relative shooting residual |y(T) - y(0)|


def _shoot(params: DerivedParams, drive: DriveSpec, y: np.ndarray,
           bare: np.ndarray, n_steps: int):
    """Newton iterations on y(T) = y(0) from the guess ``y``.

    Returns (orbit, monodromy, residual); the orbit is None when the
    iterations do not converge or an iterate goes non-finite.
    """
    period = 2 * math.pi / drive.mod_frequency
    dt = period / n_steps
    # A diverging iterate may overflow; it shows as a non-finite residual.
    with np.errstate(all="ignore"):
        for it in range(SHOOT_NEWTON_CAP + 1):
            start = MeanTrajectory.from_state(params, 0.0, y, bare)
            means = integrate_means(params, drive, (0.0, period), dt / 2,
                                    initial=start)
            gap = means.y[-1] - y
            residual = float(np.max(np.abs(gap)) / max(np.max(np.abs(y)), 1.0))
            if not math.isfinite(residual):
                return None, None, math.inf
            if residual < SHOOT_TOL:
                return means, monodromy(drift_samples(means, params), dt), residual
            if it == SHOOT_NEWTON_CAP:
                break
            # Newton on the period map; in y coordinates its Jacobian is S^-1 Phi S.
            phi = monodromy(drift_samples(means, params), dt)
            jac = phi * _QUADRATURES[None, :] / _QUADRATURES[:, None] - np.eye(8)
            try:
                y = y - np.linalg.solve(jac, gap)
            except np.linalg.LinAlgError:
                break
    return None, None, residual


def periodic_orbit(params: DerivedParams, drive: DriveSpec,
                   dt: float) -> PeriodicOrbit:
    """The periodic mean-field orbit of a modulated drive, by Newton shooting.

    Solves y(0) = y(T) for the 8-float mean state on the RK4 period map,
    with the mean field integrated at dt/2 so that the returned samples
    are the half-step drift grid of an RK4 step dt (rounded so that whole
    steps span the period T).  The Jacobian of the period map is the
    monodromy of the linearized drift, which is the fluctuation drift.
    The modulation amplitudes are continued from 0, where the CW fixed
    point is the orbit, to their full value: each step is tried whole and
    halved while Newton fails to converge within ``SHOOT_NEWTON_CAP``
    iterations.  Raises ``ConvergenceError`` (with the last residual) when
    the step falls below ``SHOOT_MIN_STEP``, and ``UnstableSystemError``
    when the converged orbit is not attracting (rho(Phi) >= 1).
    """
    if drive.mod_frequency <= 0:
        raise ValueError("periodic_orbit requires a modulated drive")
    n_steps = max(1, round(2 * math.pi / drive.mod_frequency / dt))
    cw = steady_means(params, drive.unmodulated())
    y = cw.y
    done, step = 0.0, 1.0
    while True:
        target = min(1.0, done + step)
        scaled = replace(drive, mod_amplitudes=tuple(
            target * e for e in drive.mod_amplitudes))
        means, phi, residual = _shoot(params, scaled, y, cw.bare_detuning,
                                      n_steps)
        if means is None:
            step /= 2
            if step < SHOOT_MIN_STEP:
                raise ConvergenceError(
                    f"periodic orbit shooting stalled at modulation fraction "
                    f"{done:.4f} (residual {residual:.3e})", residual)
            continue
        done = target
        y = means.y[0]
        if done == 1.0:
            break
    rho = float(np.max(np.abs(np.linalg.eigvals(phi))))
    if not rho < 1.0:
        raise UnstableSystemError(
            f"periodic mean orbit is unstable (monodromy spectral radius {rho:.6f})")
    return PeriodicOrbit(means=means, rho=rho, residual=residual)
