"""Classical (coherent-part) dynamics and the working point it defines.

The linearized fluctuation dynamics is parameterized by the effective
detunings Delta_i, the effective couplings G_ij = <a_i>(Gl_ij + 2 Gq_ij <x_j>)
and the shifted trap frequencies Omega~_j.  This module solves the CW fixed
point and integrates the driven mean-field equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DerivedParams, DriveSpec


class ConvergenceError(RuntimeError):
    """Fixed point or integration failed to converge; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class WorkingPoint:
    """Classical means and effective parameters at one time instant."""

    t: float
    a: np.ndarray            # (2,) complex control-mode means
    x: np.ndarray            # (2,) mean positions, zero-point units
    p: np.ndarray            # (2,) mean momenta
    detuning: np.ndarray     # (2,) effective detunings Delta_i
    coupling: np.ndarray     # (2, 2) complex effective couplings G_ij
    omega_shifted: np.ndarray  # (2,) Omega~_j
    bare_detuning: np.ndarray  # (2,) the delta_i consistent with Delta_i


@dataclass(frozen=True)
class MeanTrajectory:
    """Densely sampled working points (arrays indexed by sample)."""

    t: np.ndarray
    a: np.ndarray            # (n, 2) complex
    x: np.ndarray            # (n, 2)
    p: np.ndarray            # (n, 2)
    detuning: np.ndarray     # (n, 2)
    coupling: np.ndarray     # (n, 2, 2) complex
    omega_shifted: np.ndarray  # (n, 2)
    bare_detuning: np.ndarray  # (2,)

    def __len__(self) -> int:
        return len(self.t)

    def point(self, idx: int) -> WorkingPoint:
        return WorkingPoint(
            t=self.t[idx], a=self.a[idx], x=self.x[idx], p=self.p[idx],
            detuning=self.detuning[idx], coupling=self.coupling[idx],
            omega_shifted=self.omega_shifted[idx], bare_detuning=self.bare_detuning,
        )

    def __getitem__(self, window: slice) -> "MeanTrajectory":
        """The samples in ``window``, as a trajectory with the same bare detunings."""
        return MeanTrajectory(
            self.t[window], self.a[window], self.x[window], self.p[window],
            self.detuning[window], self.coupling[window],
            self.omega_shifted[window], self.bare_detuning)


def _detuning(params: DerivedParams, bare: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Delta_i from the bare detunings and the mean positions, shape (2,) or (n, 2).

    With ``bare`` = 0 this is the displacement shift Delta_i - delta_i.
    """
    return bare + x @ params.g_lin.T + (x**2) @ params.g_quad.T


def _displacement_target(params: DerivedParams, n_phot: np.ndarray,
                         x: np.ndarray) -> np.ndarray:
    """Mean positions balancing the trap against the radiation pressure of
    ``n_phot`` photons per control mode, with the couplings taken at ``x``."""
    return -(n_phot @ (params.g_lin + 2 * params.g_quad * x[None, :])) \
        / params.omega_mech


def _effective_quantities(params: DerivedParams, a: np.ndarray, x: np.ndarray,
                          bare_detuning: np.ndarray):
    """(Delta_i, G_ij, Omega~_j) from means; the three defining identities.

    ``a`` and ``x`` are one point, shape (2,), or a trajectory, shape (n, 2).
    """
    detuning = _detuning(params, bare_detuning, x)
    coupling = a[..., :, None] * (params.g_lin + 2 * params.g_quad * x[..., None, :])
    omega_shifted = params.omega_mech + 2 * (np.abs(a) ** 2) @ params.g_quad
    return detuning, coupling, omega_shifted


def steady_means(params: DerivedParams, drive: DriveSpec,
                 damping: float = 0.5, tol: float = 1e-12,
                 max_iter: int = 10_000) -> WorkingPoint:
    """CW fixed point of the mean-field equations.

    The drive specifies the *effective* detunings Delta_i, so the cavity
    means are closed-form; the mean displacements are found by damped
    iteration and the bare detunings back-computed afterwards.
    """
    if any(e > 0 for e in drive.mod_amplitudes):
        raise ValueError("steady_means requires a CW drive")
    e_cw = np.asarray(drive.cw_amplitudes, dtype=float)
    delta_eff = np.asarray(drive.detunings, dtype=float)
    kappa = params.kappa_control()

    a = e_cw / (kappa + 1j * delta_eff)
    n_phot = np.abs(a) ** 2

    x = np.zeros(2)
    residual = math.inf
    for _ in range(max_iter):
        target = _displacement_target(params, n_phot, x)
        residual = float(np.max(np.abs(target - x)) / (1 + np.max(np.abs(target))))
        x = (1 - damping) * x + damping * target
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"mean-field fixed point stalled (residual {residual:.3e}); "
            "scenario may be bistable", residual)

    bare = delta_eff - _detuning(params, 0.0, x)
    detuning, coupling, omega_shifted = _effective_quantities(params, a, x, bare)
    return WorkingPoint(t=0.0, a=a, x=x, p=np.zeros(2), detuning=detuning,
                        coupling=coupling, omega_shifted=omega_shifted,
                        bare_detuning=bare)


def _scalar_rhs(params: DerivedParams, bare: np.ndarray):
    """Float-only RHS of the coherent equations for one parameter set.

    ``rhs(e1, e2, x1, p1, x2, p2, ar1, ai1, ar2, ai2)`` takes the control
    drives E_i(t) and the state (mean quadratures, then the real and
    imaginary parts of <a_i>) and returns the 8 time derivatives.  Plain
    Python floats avoid NumPy's per-call cost on 8-element arrays.
    """
    (gl11, gl12), (gl21, gl22) = params.g_lin.tolist()
    (tq11, tq12), (tq21, tq22) = (2 * params.g_quad).tolist()
    (gq11, gq12), (gq21, gq22) = params.g_quad.tolist()
    w1, w2 = params.omega_mech.tolist()
    d1, d2 = params.gamma.tolist()
    k1, k2 = params.kappa_control().tolist()
    b1, b2 = bare.tolist()

    def rhs(e1, e2, x1, p1, x2, p2, ar1, ai1, ar2, ai2):
        n1 = ar1 * ar1 + ai1 * ai1
        n2 = ar2 * ar2 + ai2 * ai2
        sq1 = x1 * x1
        sq2 = x2 * x2
        delta1 = b1 + (gl11 * x1 + gl12 * x2) + (gq11 * sq1 + gq12 * sq2)
        delta2 = b2 + (gl21 * x1 + gl22 * x2) + (gq21 * sq1 + gq22 * sq2)
        return (
            w1 * p1,
            -w1 * x1 - d1 * p1
            - (n1 * (gl11 + tq11 * x1) + n2 * (gl21 + tq21 * x1)),
            w2 * p2,
            -w2 * x2 - d2 * p2
            - (n1 * (gl12 + tq12 * x2) + n2 * (gl22 + tq22 * x2)),
            -k1 * ar1 + delta1 * ai1 + e1,
            -k1 * ai1 - delta1 * ar1,
            -k2 * ar2 + delta2 * ai2 + e2,
            -k2 * ai2 - delta2 * ar2,
        )

    return rhs


def state_vector(wp: WorkingPoint) -> tuple:
    """The mean state (x1, p1, x2, p2, Re a1, Im a1, Re a2, Im a2) as Python floats."""
    (x1, x2), (p1, p2) = wp.x.tolist(), wp.p.tolist()
    a1, a2 = complex(wp.a[0]), complex(wp.a[1])
    return (x1, p1, x2, p2, a1.real, a1.imag, a2.real, a2.imag)


def working_point(params: DerivedParams, y,
                  bare_detuning: np.ndarray) -> WorkingPoint:
    """The working point at t = 0 of the mean state ``y``, ordered as in
    ``state_vector``."""
    x = np.array([y[0], y[2]], dtype=float)
    p = np.array([y[1], y[3]], dtype=float)
    a = np.array([complex(y[4], y[5]), complex(y[6], y[7])])
    return WorkingPoint(0.0, a, x, p,
                        *_effective_quantities(params, a, x, bare_detuning),
                        bare_detuning=bare_detuning)


def integrate_means(params: DerivedParams, drive: DriveSpec,
                    t_span: tuple[float, float], dt: float,
                    initial: WorkingPoint | None = None) -> MeanTrajectory:
    """Fixed-step RK4 integration of the coherent dynamics.

    Starts from the CW fixed point of the unmodulated drive unless an
    explicit initial working point is given.  Samples every step, endpoints
    included.  The state is carried as Python floats; the drive at the end
    of one step is reused at the start of the next.
    """
    if initial is None:
        initial = steady_means(params, drive.unmodulated())
    bare = initial.bare_detuning
    rhs = _scalar_rhs(params, bare)
    (c1, c2), (m1, m2) = drive.cw_amplitudes, drive.mod_amplitudes
    w = drive.mod_frequency
    cos = math.cos

    t0, t1 = t_span
    n_steps = max(1, int(round((t1 - t0) / dt)))
    dt = (t1 - t0) / n_steps
    half = dt / 2
    sixth = dt / 6

    y0, y1, y2, y3, y4, y5, y6, y7 = state_vector(initial)
    ys = np.empty((n_steps + 1, 8))
    ys[0] = y0, y1, y2, y3, y4, y5, y6, y7
    cos_end = cos(w * t0)
    for k in range(n_steps):
        t = t0 + dt * k
        cos_start = cos_end
        cos_mid = cos(w * (t + half))
        cos_end = cos(w * (t + dt))
        e1, e2 = c1 + m1 * cos_mid, c2 + m2 * cos_mid
        f0, f1, f2, f3, f4, f5, f6, f7 = rhs(
            c1 + m1 * cos_start, c2 + m2 * cos_start,
            y0, y1, y2, y3, y4, y5, y6, y7)
        g0, g1, g2, g3, g4, g5, g6, g7 = rhs(
            e1, e2, y0 + half * f0, y1 + half * f1, y2 + half * f2,
            y3 + half * f3, y4 + half * f4, y5 + half * f5, y6 + half * f6,
            y7 + half * f7)
        h0, h1, h2, h3, h4, h5, h6, h7 = rhs(
            e1, e2, y0 + half * g0, y1 + half * g1, y2 + half * g2,
            y3 + half * g3, y4 + half * g4, y5 + half * g5, y6 + half * g6,
            y7 + half * g7)
        j0, j1, j2, j3, j4, j5, j6, j7 = rhs(
            c1 + m1 * cos_end, c2 + m2 * cos_end,
            y0 + dt * h0, y1 + dt * h1, y2 + dt * h2, y3 + dt * h3,
            y4 + dt * h4, y5 + dt * h5, y6 + dt * h6, y7 + dt * h7)
        y0 += sixth * (f0 + 2 * g0 + 2 * h0 + j0)
        y1 += sixth * (f1 + 2 * g1 + 2 * h1 + j1)
        y2 += sixth * (f2 + 2 * g2 + 2 * h2 + j2)
        y3 += sixth * (f3 + 2 * g3 + 2 * h3 + j3)
        y4 += sixth * (f4 + 2 * g4 + 2 * h4 + j4)
        y5 += sixth * (f5 + 2 * g5 + 2 * h5 + j5)
        y6 += sixth * (f6 + 2 * g6 + 2 * h6 + j6)
        y7 += sixth * (f7 + 2 * g7 + 2 * h7 + j7)
        ys[k + 1] = y0, y1, y2, y3, y4, y5, y6, y7

    ts = t0 + dt * np.arange(n_steps + 1)
    x, p = ys[:, 0:4:2], ys[:, 1:4:2]
    a = ys[:, 4::2] + 1j * ys[:, 5::2]
    return MeanTrajectory(ts, a, x, p, *_effective_quantities(params, a, x, bare),
                          bare_detuning=bare)


def fixed_point_residual(params: DerivedParams, drive: DriveSpec,
                         wp: WorkingPoint) -> float:
    """Relative norm of the CW mean-field equations at a working point."""
    y = state_vector(wp)
    rhs = _scalar_rhs(params, wp.bare_detuning)(
        drive.amplitude(1, 0.0), drive.amplitude(2, 0.0), *y)
    scale = max(max(abs(v) for v in y), 1.0) * float(np.max(params.kappa))
    return math.hypot(*rhs) / scale
