"""Classical (coherent-part) dynamics and the working point it defines.

The linearized fluctuation dynamics is parameterized by the effective
detunings Delta_i, the effective couplings G_ij = <a_i>(Gl_ij + 2 Gq_ij <x_j>)
and the shifted trap frequencies Omega~_j.  This module solves the CW fixed
point and integrates the driven mean-field equations, whole or in
consecutive windows; all return a ``MeanTrajectory``, the one mean-state
type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DerivedParams, DriveSpec


class ConvergenceError(RuntimeError):
    """An iterative solve failed to converge, or a solution missed its
    residual bound; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class UnstableSystemError(RuntimeError):
    """The requested steady state or periodic orbit does not exist: a trap
    that does not confine (Omega~_j <= 0), a drift matrix with non-negative
    spectrum, or a periodic orbit whose period map has spectral radius >= 1."""

    @classmethod
    def unconfined(cls, omega_shifted) -> "UnstableSystemError":
        """The error of a CW working point whose trap does not confine."""
        return cls("no CW working point: the trap does not confine (shifted "
                   f"trap frequencies Omega~ = {omega_shifted.tolist()})")


@dataclass(frozen=True)
class MeanTrajectory:
    """Classical mean state and the effective parameters it defines.

    ``y`` holds the state (x1, p1, x2, p2, Re a1, Im a1, Re a2, Im a2):
    shape (n, 8) for a trajectory of n samples, (8,) for a working point at
    one instant (``t`` 0-d), and (B, 8) for a stack of B working points of
    one parameter set, whose bare detunings are (B, 2) (``t`` 0-d).
    ``traj[k]`` is the point at sample k of a trajectory and ``traj[i:j]``
    a window; both keep the bare detunings.  A stack of working points is
    not indexed.
    """

    t: np.ndarray
    y: np.ndarray              # (..., 8)
    detuning: np.ndarray       # (..., 2) effective detunings Delta_i
    coupling: np.ndarray       # (..., 2, 2) complex effective couplings G_ij
    omega_shifted: np.ndarray  # (..., 2) Omega~_j
    bare_detuning: np.ndarray  # (2,) or (B, 2): delta_i consistent with Delta_i

    @classmethod
    def from_state(cls, params: DerivedParams, t, y,
                   bare_detuning: np.ndarray) -> "MeanTrajectory":
        """(Delta_i, G_ij, Omega~_j) from the mean state ``y`` of any
        leading shape; the three defining identities."""
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        x = y[..., 0:4:2]
        a = y[..., 4::2] + 1j * y[..., 5::2]
        detuning = _detuning(params, bare_detuning, x)
        coupling = a[..., :, None] * (params.g_lin + 2 * params.g_quad * x[..., None, :])
        omega_shifted = params.omega_mech + 2 * _vecmat(np.abs(a) ** 2,
                                                         params.g_quad)
        return cls(t, y, detuning, coupling, omega_shifted, bare_detuning)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, idx) -> "MeanTrajectory":
        """The point at sample ``idx`` (an int) or the window ``idx`` (a slice)."""
        return MeanTrajectory(
            self.t[idx], self.y[idx], self.detuning[idx], self.coupling[idx],
            self.omega_shifted[idx], self.bare_detuning)


def _vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m for vectors v (..., 2) and a 2 x 2 matrix m, summed term by
    term: BLAS rounds a stack of products differently from one product, and
    a point of a stack must match its one-point solve bit for bit."""
    return v[..., 0, None] * m[0] + v[..., 1, None] * m[1]


def _detuning(params: DerivedParams, bare: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Delta_i from the bare detunings and the mean positions, shape (2,) or (n, 2).

    With ``bare`` = 0 this is the displacement shift Delta_i - delta_i.
    """
    return bare + _vecmat(x, params.g_lin.T) + _vecmat(x**2, params.g_quad.T)


def cw_working_points(params: DerivedParams, cw_amplitudes,
                      detunings) -> tuple[MeanTrajectory, np.ndarray]:
    """CW fixed points of the mean-field equations for a stack of drives,
    in closed form.

    ``cw_amplitudes`` E_i and ``detunings`` (the *effective* detunings
    Delta_i) have shape (..., 2): (2,) for one drive, (B, 2) for B drives
    of one parameter set.  Given Delta_i, the cavity means
    a_i = E_i / (kappa_i + i Delta_i) and the photon numbers n_i are fixed.
    The force balance Omega_j x_j = -sum_i n_i (Gl_ij + 2 Gq_ij x_j) is then
    linear in each x_j alone: x_j = -(n Gl)_j / Omega~_j with
    Omega~ = Omega + 2 n Gq.  The bare detunings are back-computed
    afterwards.  Returns the working points at t = 0 (y (..., 8), bare
    detunings (..., 2)) and the mask (...) of those whose trap confines,
    every Omega~_j > 0; the entries of a point that does not are not
    meaningful.
    """
    e_cw = np.asarray(cw_amplitudes, dtype=float)
    delta_eff = np.asarray(detunings, dtype=float)
    kappa = params.kappa_control()

    a = e_cw / (kappa + 1j * delta_eff)
    n_phot = np.abs(a) ** 2
    omega_shifted = params.omega_mech + 2 * _vecmat(n_phot, params.g_quad)
    confining = np.all(omega_shifted > 0, axis=-1)
    y = np.zeros(e_cw.shape[:-1] + (8,))
    y[..., 4::2] = a.real
    y[..., 5::2] = a.imag
    # Omega~_j = 0 (an unconfined point) gives an infinite x_j.
    with np.errstate(divide="ignore", invalid="ignore"):
        x = -_vecmat(n_phot, params.g_lin) / omega_shifted
        y[..., 0:4:2] = x
        bare = delta_eff - _detuning(params, 0.0, x)
        return MeanTrajectory.from_state(params, 0.0, y, bare), confining


def steady_means(params: DerivedParams, drive: DriveSpec) -> MeanTrajectory:
    """CW fixed point of one drive: the one-point case of
    ``cw_working_points``.  Returns the working point at t = 0; raises
    ``UnstableSystemError`` (naming Omega~) when some Omega~_j <= 0, since
    the trap then does not confine.
    """
    if drive.modulated:
        raise ValueError("steady_means requires a CW drive")
    wp, confining = cw_working_points(params, drive.cw_amplitudes,
                                      drive.detunings)
    if not confining:
        raise UnstableSystemError.unconfined(wp.omega_shifted)
    return wp


def _scalar_rhs(params: DerivedParams, bare: np.ndarray):
    """Float-only RHS of the coherent equations for one parameter set.

    ``rhs(e1, e2, x1, p1, x2, p2, ar1, ai1, ar2, ai2)`` takes the control
    drives E_i(t) and the state (mean quadratures, then the real and
    imaginary parts of <a_i>) and returns the 8 time derivatives.  Plain
    Python floats avoid NumPy's per-call cost on 8-element arrays and its
    slower arithmetic on NumPy scalars, so every argument should be a
    ``float``.
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


def mean_windows(params: DerivedParams, drive: DriveSpec,
                 t_span: tuple[float, float], dt: float,
                 initial: MeanTrajectory | None = None,
                 window_steps: int | None = None):
    """Fixed-step RK4 integration of the coherent dynamics, sampled at dt/2
    and yielded in consecutive windows.

    Takes N RK4 steps of dt (rounded so that whole steps span ``t_span``).
    Together the windows form the half-step grid of 2N + 1 samples at
    spacing dt/2 that a step dt of the fluctuations reads: even samples are
    the RK4 states, odd samples the cubic Hermite midpoints
    (y_k + y_{k+1}) / 2 + dt / 8 (f_k - f_{k+1}) built from the slopes at the
    step ends.  Those slopes are each step's first RK4 stage, so the grid
    costs 4N + 1 RHS evaluations; the midpoints are fourth order, like the
    steps.  Each window covers ``window_steps`` steps (the last one fewer),
    or all N when it is None, and shares its end sample with the next.
    Between windows only the state, the drive at the last step end and the
    slope there are carried, so the samples do not depend on the window
    length.  Starts from the CW fixed point of the unmodulated drive unless
    an explicit initial point is given.  The state is carried as Python
    floats, so ``t_span``, ``dt``, the drive amplitudes and the modulation
    frequency are converted to ``float`` on entry: one NumPy scalar among
    them would make every stage sum and RHS call NumPy scalar arithmetic,
    about three times slower for the same values.
    """
    if initial is None:
        initial = steady_means(params, drive.unmodulated())
    bare = initial.bare_detuning
    rhs = _scalar_rhs(params, bare)
    c1, c2, m1, m2, w, t0, t1, dt = map(float, (
        *drive.cw_amplitudes, *drive.mod_amplitudes, drive.mod_frequency,
        *t_span, dt))
    cos = math.cos

    n_steps = max(1, int(round((t1 - t0) / dt)))
    dt = (t1 - t0) / n_steps
    half = dt / 2
    sixth = dt / 6

    y0, y1, y2, y3, y4, y5, y6, y7 = initial.y.tolist()
    cos_end = cos(w * t0)
    f = rhs(c1 + m1 * cos_end, c2 + m2 * cos_end,
            y0, y1, y2, y3, y4, y5, y6, y7)
    per_window = window_steps or n_steps
    for first in range(0, n_steps, per_window):
        last = min(first + per_window, n_steps)
        ys = np.empty((2 * (last - first) + 1, 8))
        slopes = np.empty((last - first + 1, 8))
        ys[0] = y0, y1, y2, y3, y4, y5, y6, y7
        slopes[0] = f
        for k in range(first, last):
            t = t0 + dt * k
            cos_mid = cos(w * (t + half))
            cos_end = cos(w * (t + dt))
            e1, e2 = c1 + m1 * cos_mid, c2 + m2 * cos_mid
            f0, f1, f2, f3, f4, f5, f6, f7 = f
            g0, g1, g2, g3, g4, g5, g6, g7 = rhs(
                e1, e2, y0 + half * f0, y1 + half * f1, y2 + half * f2,
                y3 + half * f3, y4 + half * f4, y5 + half * f5,
                y6 + half * f6, y7 + half * f7)
            h0, h1, h2, h3, h4, h5, h6, h7 = rhs(
                e1, e2, y0 + half * g0, y1 + half * g1, y2 + half * g2,
                y3 + half * g3, y4 + half * g4, y5 + half * g5,
                y6 + half * g6, y7 + half * g7)
            e1, e2 = c1 + m1 * cos_end, c2 + m2 * cos_end
            j0, j1, j2, j3, j4, j5, j6, j7 = rhs(
                e1, e2, y0 + dt * h0, y1 + dt * h1, y2 + dt * h2,
                y3 + dt * h3, y4 + dt * h4, y5 + dt * h5, y6 + dt * h6,
                y7 + dt * h7)
            y0 += sixth * (f0 + 2 * g0 + 2 * h0 + j0)
            y1 += sixth * (f1 + 2 * g1 + 2 * h1 + j1)
            y2 += sixth * (f2 + 2 * g2 + 2 * h2 + j2)
            y3 += sixth * (f3 + 2 * g3 + 2 * h3 + j3)
            y4 += sixth * (f4 + 2 * g4 + 2 * h4 + j4)
            y5 += sixth * (f5 + 2 * g5 + 2 * h5 + j5)
            y6 += sixth * (f6 + 2 * g6 + 2 * h6 + j6)
            y7 += sixth * (f7 + 2 * g7 + 2 * h7 + j7)
            # The slope at the step end is the next step's first stage.
            f = rhs(e1, e2, y0, y1, y2, y3, y4, y5, y6, y7)
            r = k - first + 1
            ys[2 * r] = y0, y1, y2, y3, y4, y5, y6, y7
            slopes[r] = f

        # Hermite midpoints, formed in place in the odd rows.
        mid = ys[1::2]
        np.subtract(slopes[:-1], slopes[1:], out=mid)
        mid *= dt / 4
        mid += ys[:-1:2]
        mid += ys[2::2]
        mid *= 0.5
        ts = t0 + half * np.arange(2 * first, 2 * last + 1)
        yield MeanTrajectory.from_state(params, ts, ys, bare)


def integrate_means(params: DerivedParams, drive: DriveSpec,
                    t_span: tuple[float, float], dt: float,
                    initial: MeanTrajectory | None = None) -> MeanTrajectory:
    """The whole half-step grid of ``mean_windows`` (its one-window case):
    2N + 1 samples at spacing dt/2 for N RK4 steps of dt."""
    (means,) = mean_windows(params, drive, t_span, dt, initial)
    return means


def fixed_point_residual(params: DerivedParams, drive: DriveSpec,
                         wp: MeanTrajectory) -> float:
    """Relative norm of the CW mean-field equations at a working point."""
    y = wp.y.tolist()
    rhs = _scalar_rhs(params, wp.bare_detuning)(
        drive.amplitude(1, 0.0), drive.amplitude(2, 0.0), *y)
    scale = max(max(abs(v) for v in y), 1.0) * float(np.max(params.kappa))
    return math.hypot(*rhs) / scale
