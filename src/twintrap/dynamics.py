"""Drift/diffusion matrices, stability, Lyapunov solve, covariance evolution,
and the periodic mean-field orbit of a modulated drive with its period map.

The fluctuations have one propagator: each step dt of a time-varying drift
is the affine map V -> P V P^T + Q of ``_step_maps``, with P the diagonal
Pade exponential of the fourth-order Magnus exponent; ``_compose`` composes
them.  ``evolve_covariance`` composes each stored interval's steps, in
chunks of about ``PROPAGATOR_CHUNK`` steps that reuse one set of scratch,
and applies a chunk's intervals by a blocked scan (``_scan_intervals``) in
stacked passes; ``period_map`` composes a drive period's steps into
V -> Phi V Phi^T + Q_T, whose fixed point ``periodic_covariance`` solves.
A ``DriftGrid`` feeds the propagator the drift of a stream of mean-field
windows (``meanfield.mean_windows``), one chunk at a time, so a long run
holds neither its means nor its drift whole.

State ordering throughout: u = (x1, p1, x2, p2, X1, Y1, X2, Y2), mechanical
quadratures first, then the two control-mode quadratures.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .model import DerivedParams, DriveSpec
from .meanfield import (ConvergenceError, MeanTrajectory, UnstableSystemError,
                        integrate_means, steady_means)

SQRT2 = np.sqrt(2.0)

#: Relative eigenvalue magnitude below which stability is ruled marginal.
MARGINAL_TOL = 1e-8

#: Relative residual bound enforced on every steady Lyapunov solve.
LYAPUNOV_RTOL = 1e-10

#: Drift matrices per stacked Lyapunov solve; each holds one m x m vech
#: system, m = n (n + 1) / 2 (10 KiB at n = 8).  On the 1500 drifts of a
#: bench sweep (medians of 25 CPU timings), chunks of 16, 32 and 64 ran
#: alike (35, 32 and 33 ms), 256 took 45 ms and one whole stack 59 ms with
#: 21 MiB more working memory.
LYAPUNOV_CHUNK = 64

#: Steps whose affine maps are built per stacked pass of the fluctuation
#: propagator (whole stored intervals, at least one); each step holds about
#: 8 KiB of scratch.  On 65 280 steps stored every 6th, chunks of 128 ran
#: 13% slower, 1024 no faster with twice the scratch (7.6 MiB), and 4096
#: 40% slower.
PROPAGATOR_CHUNK = 512

#: Bound ||M^-1||_1 ||N||_1 on a step map P = M^-1 N above which its Pade
#: denominator M is ruled singular.  It is about 1 for any step short
#: enough to be accurate, and grows without limit near the poles of the
#: Pade exponential, where rounding in M would swamp the step.
PADE_GAIN_MAX = 1e8

#: Largest r = n max|Y| over a chunk at which ``_pade_inverse`` sums its
#: series (at most k = 6 powers of Y) rather than call ``np.linalg.inv``.
#: Measured on one core (minima of 9 x 20 calls, 512-step chunks), the
#: series took 0.87-0.89 of LAPACK's time at k = 5 (r = 2e-3), 0.92-0.93
#: at k = 6 (r = 5e-3) and 1.08-1.13 at k = 7 (r = 7e-3 and 1e-2).
PADE_SERIES_RMAX = 5e-3

#: Relative period-to-period covariance change below which an evolved
#: trajectory counts as quasi-steady.
QUASI_STEADY_TOL = 1e-3

#: Periodic-orbit shooting: relative residual |y(T) - y(0)| accepted as
#: periodic, Newton iterations allowed per solve, and the smallest step in
#: the modulation amplitude that the fallback continuation takes before
#: giving up (the shipped drives converge at the full amplitude).
SHOOT_TOL = 1e-11
SHOOT_NEWTON_CAP = 5
SHOOT_MIN_STEP = 2.0 ** -8

#: S of u = S y: the mean state's (Re a, Im a) scaled to quadratures (X, Y).
_QUADRATURES = np.array([1.0, 1.0, 1.0, 1.0, SQRT2, SQRT2, SQRT2, SQRT2])


def _on_state(m: np.ndarray) -> np.ndarray:
    """S^-1 M S: a linear map of the quadratures u = S y as one of y."""
    return m * _QUADRATURES[None, :] / _QUADRATURES[:, None]


class BlowupError(RuntimeError):
    """Covariance norm exploded during integration; ``t`` is in the time
    unit of the step, seconds from ``pipeline.evolve``."""

    def __init__(self, t: float):
        super().__init__(f"covariance blow-up at t = {t:.6e}")
        self.t = t


def build_diffusion(params: DerivedParams) -> np.ndarray:
    """Diagonal diffusion matrix of the noise correlations.

    The momentum entries are (2 n_th + 1) gamma + 2 Gamma: the thermal bath
    enters through its damping gamma with the exact Bose factor, photon
    recoil through its phonon heating rate Gamma = dn/dt, which does not
    depend on the bath temperature.  With vacuum variance 1/2,
    n + 1/2 = (<x^2> + <p^2>) / 2, so a heating rate Gamma needs
    d<p^2>/dt = 2 Gamma.
    """
    d_pp = (2 * params.n_thermal + 1) * params.gamma + 2 * params.recoil
    kappa = params.kappa_control()
    return np.diag([0.0, d_pp[0], 0.0, d_pp[1],
                    kappa[0], kappa[0], kappa[1], kappa[1]])


def _characteristic_polynomial(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier;
    a stack (..., n, n) gives coefficients (..., n + 1).

    Avoids any eigenvalue computation so the Routh-Hurwitz verdict stays
    independent of the spectral oracle used in tests.
    """
    n = a.shape[-1]
    coeffs = np.empty(a.shape[:-2] + (n + 1,))
    coeffs[..., 0] = 1.0
    am = np.zeros_like(a)
    eye = np.eye(n)
    for k in range(1, n + 1):
        am = a @ (am + coeffs[..., k - 1, None, None] * eye)
        coeffs[..., k] = -np.trace(am, axis1=-2, axis2=-1) / k
    return coeffs


def routh_hurwitz_stable(a: np.ndarray) -> bool | np.ndarray:
    """True iff all characteristic roots lie strictly in the left half-plane;
    one verdict per matrix for a stack (..., n, n).

    Builds the Routh table of the characteristic polynomial; a zero pivot
    (marginal case) counts as not stable.
    """
    coeffs = _characteristic_polynomial(np.asarray(a, dtype=float))
    n = coeffs.shape[-1] - 1
    # Necessary condition: all coefficients of a Hurwitz polynomial
    # (with positive leading coefficient) are positive.
    ok = np.all(coeffs > 0, axis=-1)
    width = (n + 2) // 2
    rows = np.zeros(coeffs.shape[:-1] + (n + 1, width + 1))
    rows[..., 0, :n // 2 + 1] = coeffs[..., 0::2]
    rows[..., 1, :(n + 1) // 2] = coeffs[..., 1::2]
    scale = np.max(np.abs(coeffs), axis=-1)
    # A matrix keeps its verdict once it fails; its later rows, built on a
    # stand-in pivot, may overflow and are never read.
    with np.errstate(all="ignore"):
        for r in range(2, n + 1):
            pivot = rows[..., r - 1, 0]
            ok &= abs(pivot) > 1e-300 * scale
            pivot = np.where(ok, pivot, 1.0)[..., None]
            rows[..., r, :width] = (pivot * rows[..., r - 2, 1:]
                                    - rows[..., r - 2, :1] * rows[..., r - 1, 1:]) / pivot
            ok &= rows[..., r, 0] > 0
    return bool(ok) if ok.ndim == 0 else ok


@dataclass(frozen=True)
class StabilityReport:
    """Verdicts of a drift or a stack, with exact margins -max Re(eigenvalue);
    a certified drift's is taken (``np.linalg.eigvals``) on its first read."""

    verdict: str | np.ndarray      # "stable" | "unstable" | "marginal"
    drifts: np.ndarray             # (..., n, n)
    max_re: np.ndarray             # (...), NaN until taken

    @property
    def stable(self) -> bool | np.ndarray:
        return self.verdict == "stable"

    @property
    def margin(self) -> float | np.ndarray:
        return self.margins(...)

    def margins(self, index) -> float | np.ndarray:
        """The margins at ``index`` of the verdicts."""
        missing = np.zeros(self.max_re.shape, dtype=bool)
        missing[index] = np.isnan(self.max_re[index])
        if missing.any():
            self.max_re[missing] = np.linalg.eigvals(
                self.drifts[missing]).real.max(axis=-1)
        return -self.max_re[index]


def _norm2(a: np.ndarray) -> np.ndarray:
    """Spectral norm ||A||_2 = sqrt(lambda_max(A^T A)) of each matrix of a
    stack: the number ``np.linalg.norm(a, 2)`` gives, from a symmetric
    eigenvalue solve that costs about half its SVD."""
    return np.sqrt(np.linalg.eigvalsh(a.swapaxes(-2, -1) @ a)[..., -1])


def stability_check(a: np.ndarray) -> StabilityReport:
    """Verdict of a drift, one per matrix for a stack (..., n, n): marginal
    where the spectral abscissa is within ``MARGINAL_TOL`` of the scale
    max(||A||_2, 1), else that of the Routh-Hurwitz table.

    With c = ``MARGINAL_TOL`` max(2 ||A||_F, 1) >= ``MARGINAL_TOL`` ||A||_2,
    a Hurwitz A + cI has every Re lambda < -c (degree of stability;
    Gantmacher, The Theory of Matrices, vol. 2, ch. XV): one table of it
    certifies a drift stable with no eigenvalues.  Only the rest take
    ``np.linalg.eigvals``, and ||A||_2 those inside the band of scale
    max(2 ||A||_F, 1), so the verdicts are the exact rule's.
    """
    a = np.asarray(a, dtype=float)
    scale = np.maximum(2 * np.linalg.norm(a, axis=(-2, -1)), 1.0)
    shift = MARGINAL_TOL * scale[..., None, None] * np.eye(a.shape[-1])
    verdict = np.where(routh_hurwitz_stable(a + shift), "stable", "unstable")
    report = StabilityReport(verdict, a, np.full(verdict.shape, np.nan))
    rest = ~report.stable
    held, scale, max_re = a[rest], scale[rest], -report.margins(rest)
    marginal = abs(max_re) <= MARGINAL_TOL * scale
    if marginal.any():
        scale[marginal] = np.maximum(_norm2(held[marginal]), 1.0)
        marginal = abs(max_re) <= MARGINAL_TOL * scale
    verdict[rest] = np.where(marginal, "marginal", np.where(
        routh_hurwitz_stable(held), "stable", "unstable"))
    return report if verdict.ndim else replace(report, verdict=str(verdict))


@functools.cache
def _vech_tables(n: int) -> tuple[np.ndarray, ...]:
    """Index tables of the half-vectorised (vech) Lyapunov system of order n.

    Unknown p = pos(i, j) is V_ij = V_ji for i <= j, in ``np.triu_indices``
    order.  Equation (i, j), i <= j, is sum_k A_ik V_kj + V_ik A_jk = -D_ij.
    Returns the triangle's rows and columns (iu, ju), the (n, n) table pos,
    and for each of the m n triples (i, j, k) its equation and the two
    products: the flat index of A_ik with the unknown pos(k, j) it
    multiplies, and the flat index of A_jk with pos(i, k).  Within each
    product the (equation, unknown) pairs are unique, so each scatters with
    a plain fancy assignment.
    """
    iu, ju = np.triu_indices(n)
    m = len(iu)
    pos = np.empty((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(m)
    row = np.repeat(np.arange(m), n)
    i, j, k = np.repeat(iu, n), np.repeat(ju, n), np.tile(np.arange(n), m)
    return iu, ju, pos, row, i * n + k, pos[k, j], j * n + k, pos[i, k]


def steady_covariance(a: np.ndarray, d: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Steady covariances V of drifts (..., n, n), taken as a flat stack
    (B, n, n), with the relative residual ||A V + V A^T + D|| / ||D|| of
    each, and the error of each failed slot, in slot order.  V is NaN in a
    failed slot, and the residual in a slot that is not solved.

    This is the one place that builds the errors of a drift and of its
    solve, and solves only the stable drifts: a ``ConvergenceError`` for a
    drift with a non-finite entry or Frobenius norm, which is not judged,
    an ``UnstableSystemError`` naming the verdict and margin of a drift
    ``stability_check`` does not rule stable, and a ``ConvergenceError``
    carrying a residual above ``LYAPUNOV_RTOL``.

    Solves A V + V A^T + D = 0 for its m = n (n + 1) / 2 independent
    unknowns V_ij, i <= j (the vech form of Magnus & Neudecker, 1980): one
    ``np.linalg.solve`` on an m x m system per matrix (36 x 36 at n = 8),
    ``LYAPUNOV_CHUNK`` matrices at a time.  The right-hand side is the
    upper triangle of the symmetric part of D, and V is filled
    symmetrically from the solution.  ``d`` is one diffusion matrix or a
    stack of them.  The residual is taken against the given D.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    d = np.broadcast_to(np.asarray(d, dtype=float), a.shape).reshape(-1, n, n)
    a = a.reshape(-1, n, n)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a, axis=(1, 2))
    finite = np.flatnonzero(np.isfinite(norm))
    report = stability_check(a if len(finite) == len(a) else a[finite])
    iu, ju, pos, row, a_ik, v_kj, a_jk, v_ik = _vech_tables(n)
    m = len(iu)
    v = np.full(a.shape, np.nan)
    held = finite[report.stable]
    for start in range(0, len(held), LYAPUNOV_CHUNK):
        chunk = held[start:start + LYAPUNOV_CHUNK]
        flat, dc = a[chunk].reshape(-1, n * n), d[chunk]
        # A_ik multiplies V_kj and A_jk multiplies V_ik in equation (i, j).
        lhs = np.zeros((len(dc), m, m))
        lhs[:, row, v_kj] = flat[:, a_ik]
        lhs[:, row, v_ik] += flat[:, a_jk]
        rhs = -0.5 * (dc[:, iu, ju] + dc[:, ju, iu])
        v[chunk] = np.linalg.solve(lhs, rhs[..., None])[:, pos, 0]
    av = a @ v
    residual = (np.linalg.norm(av + av.swapaxes(1, 2) + d, axis=(1, 2))
                / np.linalg.norm(d, axis=(1, 2)))
    failures: dict[int, Exception] = {k: ConvergenceError(
        f"drift is not finite (Frobenius norm {norm[k]:.3e})", math.nan)
        for k in np.flatnonzero(~np.isfinite(norm)).tolist()}
    unstable = ~report.stable
    for k, verdict, margin in zip(finite[unstable].tolist(),
                                  report.verdict[unstable],
                                  report.margins(unstable)):
        failures[k] = UnstableSystemError(
            f"no steady state: drift is {verdict} (margin {margin:.3e})")
    missed = held[~(residual[held] <= LYAPUNOV_RTOL)]
    for k in missed.tolist():
        failures[k] = ConvergenceError(
            f"Lyapunov residual {residual[k]:.3e} above bound "
            f"{LYAPUNOV_RTOL:.0e}", float(residual[k]))
    v[list(failures)] = np.nan
    return v, residual, dict(sorted(failures.items()))


def lyapunov_steady(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Steady covariance from A V + V A^T + D = 0 of one drift matrix
    (n, n), solved by ``steady_covariance``.

    Raises its error: ``UnstableSystemError`` (no steady state) or
    ``ConvergenceError`` (residual above ``LYAPUNOV_RTOL``).  A stack of
    drifts is refused with ``ValueError``; ``steady_covariance`` solves one.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"lyapunov_steady takes one drift (n, n), not shape "
                         f"{a.shape}; solve a stack with steady_covariance")
    v, _, failures = steady_covariance(a[None], d)
    if failures:
        raise failures[0]
    return v[0]


def periodic_covariance(phi: np.ndarray, q_t: np.ndarray) -> np.ndarray:
    """Periodic steady covariance V_0 = Phi V_0 Phi^T + Q_T of a drive
    period's map (``period_map``), solved by ``steady_covariance``.

    The Cayley pair A_c = (Phi + I)^-1 (Phi - I), Q_c = 2 (Phi + I)^-1 Q_T
    (Phi + I)^-T turns the discrete equation into A_c V_0 + V_0 A_c^T + Q_c
    = 0, and A_c is Hurwitz exactly when rho(Phi) < 1 (Bittanti & Colaneri,
    Periodic Systems, 2009).  So a map with rho(Phi) >= 1 raises that
    function's ``UnstableSystemError``, as does a Floquet multiplier -1,
    where Phi + I is singular.  V_0 is checked on the discrete equation:
    ||Phi V_0 Phi^T + Q_T - V_0||_F / ||V_0||_F above ``LYAPUNOV_RTOL``
    raises ``ConvergenceError`` carrying that residual.
    """
    phi = np.asarray(phi, dtype=float)
    eye = np.eye(phi.shape[-1])
    try:
        inv = np.linalg.inv(phi + eye)
    except np.linalg.LinAlgError:
        raise UnstableSystemError(
            "no periodic steady state: the period map has a Floquet "
            "multiplier -1") from None
    v, _, failures = steady_covariance((inv @ (phi - eye))[None],
                                       2 * inv @ q_t @ inv.T)
    if failures:
        raise failures[0]
    v = v[0]
    residual = float(np.linalg.norm(phi @ v @ phi.T + q_t - v)
                     / np.linalg.norm(v))
    if not residual <= LYAPUNOV_RTOL:
        raise ConvergenceError(
            f"periodic Lyapunov residual {residual:.3e} above bound "
            f"{LYAPUNOV_RTOL:.0e}", residual)
    return v


@dataclass(frozen=True)
class CovTrajectory:
    """Covariance samples V(t_k) on a uniform stored grid."""

    t: np.ndarray            # (n,)
    v: np.ndarray            # (n, 8, 8)

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


def chunk_steps(stride: int) -> int:
    """Steps per stacked pass of the propagator at a store stride: whole
    intervals of ``stride`` steps, about ``PROPAGATOR_CHUNK`` of them."""
    return max(1, PROPAGATOR_CHUNK // stride) * stride


class DriftGrid:
    """The half-step drift grid of a stream of mean-field windows
    (``meanfield.mean_windows``), which ``evolve_covariance`` reads one
    window per propagator chunk, so neither the means nor the drift of a
    long run are held whole.

    ``shape`` is that of the whole grid, (n_samples, 8, 8).  Each slice
    must be the next window, which starts at the last sample of the one
    before; any other read raises ``ValueError``.
    """

    def __init__(self, windows: Iterable[MeanTrajectory], n_samples: int,
                 params: DerivedParams):
        self.shape = (n_samples, 8, 8)
        self._windows = iter(windows)
        self._params = params
        self._start = 0

    def __getitem__(self, index: slice) -> np.ndarray:
        means = next(self._windows, None)
        if means is None or index != slice(self._start, self._start + len(means)):
            raise ValueError(
                f"DriftGrid streams its windows in order: slice {index} asked "
                f"for, the next window starts at sample {self._start}")
        self._start += len(means) - 1
        return drift_samples(means, self._params)


def _pade_inverse(m: np.ndarray, n: np.ndarray, first: int, dt: float,
                  work: list[np.ndarray]) -> np.ndarray:
    """Inverses of a stack of Pade denominators M, those of steps ``first``,
    ``first + 1``, ..., whose numerators are N.

    M and N are polynomials in one Omega, so they commute and M N = I - Y,
    Y = Omega^2/12 - Omega^4/144, which makes M^-1 = N (I + Y + ... + Y^k).
    With r = n max|Y| over the stack, a bound on every ||Y||_inf, the
    series is summed by Horner when r <= ``PADE_SERIES_RMAX``, to the
    least power k >= 1 for which its tail r^(k+1) / (1 - r) is at most
    2^-53, in stacked products with no per-matrix LAPACK call (k = 5 on
    ``fig2_sum``, r <= 1.7e-3; k = 6 on ``fig2_half``'s long chunks,
    r <= 4.1e-3); longer steps, such as those of ``fig2_half``'s 64-step
    probe (r = 2.3e-2), take ``np.linalg.inv``.  ``work``
    is four scratch arrays shaped like ``m``; the inverses are written to
    the last.

    Raises ``ConvergenceError`` naming the first step whose M is singular,
    and its start time in the unit of ``dt`` (seconds from ``pipeline``):
    ||M^-1||_1 ||N||_1, a bound on the step map P = M^-1 N, above
    ``PADE_GAIN_MAX``.  The chunk bound n^2 max|M^-1| max|N| covers every
    step at once; only when it fails are the steps' norms taken.
    """
    y, acc, tmp, m_inv = work
    size = m.shape[-1]
    eye = np.eye(size)
    np.matmul(m, n, out=y)
    np.subtract(eye, y, out=y)
    r = size * float(abs(y).max(initial=0.0))
    if r <= PADE_SERIES_RMAX:
        k = 1
        while r ** (k + 1) / (1.0 - r) > 2.0 ** -53:
            k += 1
        np.add(eye, y, out=acc)
        for _ in range(k - 1):
            np.matmul(y, acc, out=tmp)
            np.add(eye, tmp, out=acc)
        np.matmul(n, acc, out=m_inv)
    else:
        try:
            m_inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            # One by one; an exactly singular M keeps an infinite inverse.
            m_inv = np.full_like(m, np.inf)
            for k, mk in enumerate(m):
                with contextlib.suppress(np.linalg.LinAlgError):
                    m_inv[k] = np.linalg.inv(mk)
    bound = size * size * abs(m_inv).max(initial=0.0) * abs(n).max(initial=0.0)
    if not bound <= PADE_GAIN_MAX:
        gain = (np.abs(m_inv).sum(axis=1).max(axis=1)
                * np.abs(n).sum(axis=1).max(axis=1))
        singular = ~(gain <= PADE_GAIN_MAX)
        if singular.any():
            k = int(singular.argmax())
            raise ConvergenceError(
                f"Pade denominator of step {first + k} (from t = "
                f"{(first + k) * dt:.6e}) is singular: ||M^-1|| ||N|| = "
                f"{gain[k]:.3e} above {PADE_GAIN_MAX:.0e}; the step is too "
                "long for the drift", 1.0 / gain[k])
    return m_inv


def _rk4_noise(b_mid: np.ndarray, b_end: np.ndarray, d: np.ndarray,
               out: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """S of the RK4 step of V' = A V + V A^T + D from V = 0, which is
    dt D + (dt/6)(S + S^T), given B_m = (dt/2) A_m and B_1 = dt A_1 (the
    first stage does not read the drift).  Written to ``out``; ``t1`` and
    ``t2`` are scratch."""
    m2 = np.matmul(b_mid, d, out=t1)
    np.add(m2, m2.swapaxes(1, 2), out=t2)
    t2 += d
    m3 = np.matmul(b_mid, t2, out=out)
    np.add(m3, m3.swapaxes(1, 2), out=t2)
    t2 += d
    s = np.add(m2, m3, out=out)
    s *= 2.0
    s += np.matmul(b_end, t2, out=t1)    # m4
    return s


#: Scratch arrays (m, n, n) that ``_step_maps`` takes for m steps.
_STEP_SLOTS = 9


def _step_maps(a: np.ndarray, dt: float, d: np.ndarray | None = None,
               first: int = 0, work: list[np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """Pade-Magnus affine maps V -> P V P^T + Q of consecutive steps dt.

    ``a`` holds the steps' drift samples on the half-step grid (2m + 1 for
    m steps, the first being step ``first``).  Per step, with A_0, A_m, A_1
    its samples, Omega = (dt/6)(A_0 + 4 A_m + A_1) + (dt^2/12)[A_1, A_0] is
    the fourth-order Magnus exponent and M, N = I -+ Omega/2 + Omega^2/12;
    P = M^-1 N is its diagonal (2,2) Pade exponential.  Q is built only when
    the diffusion ``d`` is given:
    M^-1 (dt D + (dt/12) Omega D Omega^T) M^-T, which leaves the steady
    covariance of a constant drift exactly stationary, plus
    Q_RK4(A_0, A_m, A_1) - Q_RK4(A, A, A) with A = Omega/dt, which keeps Q
    fourth order for a drift that varies.  A step with a non-finite drift
    gets NaN maps.  Returns P (m, n, n) and Q (m, n, n) or None, both held
    in ``work``: ``_STEP_SLOTS`` scratch arrays (>= m, n, n) that a caller
    reuses across calls, so they last until its next use.
    """
    m = a.shape[0] // 2
    if work is None:
        work = [np.empty((m,) + a.shape[1:]) for _ in range(_STEP_SLOTS)]
    omega, half, even, numerator, p, q, s, x, r = (w[:m] for w in work)
    a0, am, a1 = a[:-1:2], a[1::2], a[2::2]
    np.multiply(4.0, am, out=omega)
    omega += a0
    omega += a1
    omega *= dt / 6.0
    np.matmul(a1, a0, out=s)
    s -= np.matmul(a0, a1, out=x)
    s *= dt * dt / 12.0
    omega += s
    finite = np.isfinite(omega).all(axis=(1, 2))
    if not finite.all():
        omega[~finite] = 0.0
    np.multiply(0.5, omega, out=half)
    np.matmul(omega, omega, out=even)
    even /= 12.0
    even += np.eye(a.shape[-1])
    np.add(even, half, out=numerator)
    even -= half
    # ``q``, ``s`` and ``x`` are free here, and M^-1 goes to ``r``, which
    # is not written again before M^-1 is last read.
    m_inv = _pade_inverse(even, numerator, first, dt, [q, s, x, r])
    np.matmul(m_inv, numerator, out=p)
    if d is not None:
        np.matmul(omega, d, out=s)
        np.matmul(s, omega.swapaxes(1, 2), out=x)
        x *= dt / 12.0
        x += dt * d
        np.matmul(m_inv, x, out=s)
        np.matmul(s, m_inv.swapaxes(1, 2), out=x)
        # Q_RK4(A_0, A_m, A_1) - Q_RK4(A, A, A) = (dt/6)(E + E^T) with
        # E = S - S^; adding (dt/3) E is the same once ``q`` is symmetrized.
        _rk4_noise(np.multiply(0.5 * dt, am, out=even),
                   np.multiply(dt, a1, out=numerator), d, s, q, r)
        s -= _rk4_noise(half, omega, d, q, even, numerator)
        s *= dt / 3.0
        x += s
        np.add(x, x.swapaxes(1, 2), out=q)
        q *= 0.5
        q[~finite] = np.nan
    p[~finite] = np.nan
    return p, (q if d is not None else None)


def _compose(p: np.ndarray, q: np.ndarray | None, group: int,
             y: np.ndarray, z: np.ndarray) -> None:
    """Turn a stack (G * ``group``, n, n) of affine maps V -> P V P^T + Q
    into prefix compositions within each of its G groups of ``group``, in
    place and stacked across the groups: map s of a group becomes maps 0 to
    s by (P, Q) o (P', Q') = (P P', sym(P Q' P^T) + Q).  ``q`` is None for
    P alone; ``y`` and ``z`` are scratch of at least G matrices."""
    n = p.shape[-1]
    g = p.shape[0] // group
    p = p.reshape(g, group, n, n)
    q = None if q is None else q.reshape(g, group, n, n)
    y, z = y[:g], z[:g]
    for s in range(1, group):
        p_s = p[:, s]
        if q is not None:
            np.matmul(p_s, q[:, s - 1], out=y)
            np.matmul(y, p_s.swapaxes(1, 2), out=z)
            np.add(z, z.swapaxes(1, 2), out=y)
            y *= 0.5
            q[:, s] += y
        # matmul may not write over its input.
        p_s[...] = np.matmul(p_s, p[:, s - 1], out=y)


def _check_half_grid(a_half) -> None:
    if len(a_half.shape) != 3 or a_half.shape[0] % 2 == 0:
        raise ValueError("a_half must hold an odd number of drift samples")


def _scan_intervals(v: np.ndarray, p: np.ndarray, q: np.ndarray, block: int,
                    work: tuple[np.ndarray, ...], out: np.ndarray) -> None:
    """Write V_k = sym(P_k V_{k-1} P_k^T) + Q_k for the K maps (P, Q) of a
    chunk, from V_0 = ``v``, to ``out`` (K, n, n) by a two-level scan.

    Within blocks of ``block`` intervals, the last padded with identity
    maps, ``_compose`` turns the maps into prefix maps (Phi, Q~); V then
    steps from block end to block end alone, and each stored V is
    sym(Phi V_start Phi^T) + Q~ from its block's start, in one stacked
    pass.  ``work`` is scratch: three arrays of at least
    ceil(K / block) * block matrices, then three of at least ceil(K / block).
    """
    k, n = p.shape[:2]
    nb = -(-k // block)
    phi, acc, x = (w[:nb * block] for w in work[:3])
    y, z, starts = (w[:nb] for w in work[3:])
    phi[:k] = p
    phi[k:] = np.eye(n)
    acc[:k] = q
    acc[k:] = 0.0
    _compose(phi, acc, block, y, z)
    phi_b, acc_b = (w.reshape(nb, block, n, n) for w in (phi, acc))
    starts[0] = v
    for j in range(1, nb):
        end = phi_b[j - 1, -1]
        m = end @ starts[j - 1] @ end.T
        starts[j] = 0.5 * (m + m.T) + acc_b[j - 1, -1]
    np.matmul(phi_b, starts[:, None], out=x.reshape(nb, block, n, n))
    np.matmul(x[:k], phi[:k].swapaxes(1, 2), out=out)
    np.add(out, out.swapaxes(1, 2), out=x[:k])
    x[:k] *= 0.5
    np.add(x[:k], acc[:k], out=out)


def evolve_covariance(v0: np.ndarray, a_half, d: np.ndarray,
                      dt: float, store_stride: int = 1) -> CovTrajectory:
    """Covariance of V' = A(t) V + V A(t)^T + D for n x n matrices, stored
    every ``store_stride`` steps dt.

    ``a_half`` holds drift matrices on the half-step grid: 2N + 1 samples at
    spacing dt/2 for N steps.  It may be an array (``np.broadcast_to``
    serves a constant drift) or a ``DriftGrid``, which integrates the means
    and assembles their drift one chunk at a time.  Each step is the
    Pade-Magnus affine map of ``_step_maps``, from the symmetric part of
    ``d``.  In chunks of ``chunk_steps``, read from ``a_half`` in order and
    sharing one set of scratch, ``_compose`` turns the step maps into those
    of the K stored intervals, and V <- sym(P V P^T) + Q applies them by a
    blocked scan (``_scan_intervals``, blocks of ceil(sqrt K) for a whole
    chunk): in stacked passes, with only the block ends stepped one by one.
    The scan composes the maps in another order than one interval after
    another, which moves a stored V by rounding only (at most 5.5e-14 of
    max|V| on a 160 tau ``fig2_sum`` run), and every stored V is exactly
    symmetric.  For a constant drift the steady covariance is a fixed point
    to rounding.
    A non-finite covariance, or one whose norm exceeds 1e6 x the initial
    norm, raises ``BlowupError`` at the end of the stored interval in which
    it first shows: the check runs at stored samples only, so its time is
    known to ``store_stride`` steps.  Steps after the last stored sample
    are not taken.  A singular Pade denominator raises ``ConvergenceError``
    naming its step.
    """
    _check_half_grid(a_half)
    n_intervals = (a_half.shape[0] - 1) // 2 // store_stride
    v = np.asarray(v0, dtype=float)
    v = 0.5 * (v + v.T)
    d = 0.5 * (d + np.transpose(d))
    bound = (1e6 * max(float(np.linalg.norm(v)), 1.0)) ** 2

    out_t = np.arange(n_intervals + 1) * store_stride * dt
    out_v = np.empty((n_intervals + 1,) + v.shape)
    out_v[0] = v
    per_chunk = chunk_steps(store_stride) // store_stride
    size = min(per_chunk, n_intervals)
    block = math.isqrt(max(size, 1) - 1) + 1
    n_blocks = -(-size // block)
    # One array per slot: freeing them as one block raised the allocator's
    # trim threshold, and a 160 tau fig2_sum evolve kept 3 MiB more RSS
    # through its output.
    work = tuple(np.empty((rows,) + v.shape) for rows in
                 3 * (n_blocks * block,) + 3 * (n_blocks,))
    steps = [np.empty((size * store_stride,) + v.shape)
             for _ in range(_STEP_SLOTS)]
    ends = slice(store_stride - 1, None, store_stride)
    # A diverging map may overflow; it shows as a non-finite covariance.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, n_intervals, per_chunk):
            j = min(i + per_chunk, n_intervals)
            a = np.asarray(a_half[2 * i * store_stride:2 * j * store_stride + 1],
                           dtype=float)
            p, q = _step_maps(a, dt, d, first=i * store_stride, work=steps)
            # ``_step_maps`` leaves its first two slots free.
            _compose(p, q, store_stride, *steps[:2])
            _scan_intervals(v, p[ends], q[ends], block, work, out_v[i + 1:j + 1])
            v = out_v[j]
            # Squared Frobenius norms; ``not (s <= bound)`` also catches NaN.
            chunk = out_v[i + 1:j + 1].reshape(j - i, -1)
            over = ~(np.einsum("ij,ij->i", chunk, chunk) <= bound)
            if over.any():
                raise BlowupError(float(out_t[i + 1 + over.argmax()]))
    return CovTrajectory(t=out_t, v=out_v)


def period_map(a_half, dt: float, d: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """The drive period's affine map V -> Phi V Phi^T + Q_T of the
    fluctuations, with Phi the state-transition matrix of du/dt = A(t) u
    over the period; Q_T, from the symmetric part of the diffusion ``d``,
    is None when ``d`` is None.

    ``a_half`` is laid out as for ``evolve_covariance`` (2N + 1 samples at
    spacing dt/2 for N >= 1 steps).  ``_compose`` composes its N
    ``_step_maps``: Phi = P_{N-1} ... P_0, and Q_T the covariance
    ``evolve_covariance`` reaches from V = 0 at stride N.  It reads the period in one
    slice and takes N steps of scratch, at most one propagator chunk while
    N <= ``PROPAGATOR_CHUNK``, as for every caller (204 on shipped orbits).
    """
    _check_half_grid(a_half)
    n_steps = (a_half.shape[0] - 1) // 2
    if n_steps < 1:
        raise ValueError("a period map needs at least one step")
    d = None if d is None else 0.5 * (d + np.transpose(d))
    a = np.asarray(a_half[0:2 * n_steps + 1], dtype=float)
    work = [np.empty((n_steps,) + a.shape[1:]) for _ in range(_STEP_SLOTS)]
    p, q = _step_maps(a, dt, d, work=work)
    _compose(p, q, n_steps, *work[:2])
    return p[-1], (None if q is None else q[-1])


@dataclass(frozen=True)
class QuasiSteadyOrbit:
    """The sample times of the final drive period of a covariance
    trajectory, and whether its covariance repeats the period before."""

    t: np.ndarray
    converged: bool
    period_change: float


def quasi_steady_orbit(traj: CovTrajectory, n_per: int) -> QuasiSteadyOrbit:
    """Final-period sample times, flagged converged when the period-to-period
    relative covariance change falls below ``QUASI_STEADY_TOL``.

    ``n_per`` is the number of stored samples per drive period, so the
    final period is the last ``n_per + 1`` samples.
    """
    if len(traj) < 2 * n_per + 1:
        return QuasiSteadyOrbit(traj.t, False, np.inf)
    last = traj.v[-(n_per + 1):]
    prev = traj.v[-(2 * n_per + 1):-n_per]
    change = float(np.max(
        np.linalg.norm(last - prev, axis=(1, 2)) / np.linalg.norm(last, axis=(1, 2))))
    return QuasiSteadyOrbit(traj.t[-(n_per + 1):], change < QUASI_STEADY_TOL,
                            change)


@dataclass(frozen=True)
class PeriodicOrbit:
    """The attracting periodic mean-field orbit over one drive period."""

    means: MeanTrajectory    # 2N + 1 samples at spacing dt/2, t from 0 to T
    rho: float               # spectral radius of the period map Phi, < 1
    residual: float          # relative shooting residual |y(T) - y(0)|


def _linear_response(params: DerivedParams, drive: DriveSpec,
                     cw: MeanTrajectory) -> np.ndarray:
    """First-order response dy(0) of the CW point ``cw`` to the drive's
    modulation: Re[(i w_D - J)^-1 b], with b the modulation amplitudes on
    the rows of Re a_1 and Re a_2, and J = S^-1 A S the mean-field Jacobian
    in y coordinates (A, the fluctuation drift at ``cw``, is the Jacobian
    in the quadratures u = S y).  With z = u + i v it is solved as the real
    system [[-J, -w_D I], [w_D I, -J]] [u; v] = [b; 0], and dy(0) = u.
    """
    w = drive.mod_frequency
    jac = _on_state(drift_samples(cw, params))
    rot = w * np.eye(8)
    rhs = np.zeros(16)
    rhs[4], rhs[6] = drive.mod_amplitudes
    return np.linalg.solve(np.block([[-jac, -rot], [rot, -jac]]), rhs)[:8]


def _shoot(params: DerivedParams, drive: DriveSpec, y: np.ndarray,
           bare: np.ndarray, period: float, dt: float):
    """Newton iterations on y(T) = y(0) from the guess ``y``, with RK4
    steps dt over the period T.  The Newton Jacobian, in y coordinates, is
    S^-1 Phi S - I, with Phi the ``period_map`` of the iterate's drift.

    Returns (orbit, residual); the orbit is None when the iterations do
    not converge, an iterate goes non-finite or its period map is singular.
    """
    # A diverging iterate may overflow; it shows as a non-finite residual.
    with np.errstate(all="ignore"):
        for it in range(SHOOT_NEWTON_CAP + 1):
            start = MeanTrajectory.from_state(params, 0.0, y, bare)
            means = integrate_means(params, drive, (0.0, period), dt,
                                    initial=start)
            gap = means.y[-1] - y
            residual = float(np.max(np.abs(gap)) / max(np.max(np.abs(y)), 1.0))
            if not math.isfinite(residual):
                return None, math.inf
            if residual < SHOOT_TOL:
                return means, residual
            if it == SHOOT_NEWTON_CAP:
                break
            try:
                phi, _ = period_map(drift_samples(means, params), dt)
                y = y - np.linalg.solve(_on_state(phi) - np.eye(8), gap)
            except (ConvergenceError, np.linalg.LinAlgError):
                break
    return None, residual


def periodic_orbit(params: DerivedParams, drive: DriveSpec,
                   steps: int) -> PeriodicOrbit:
    """The periodic mean-field orbit of a modulated drive, by Newton shooting.

    Solves y(0) = y(T) for the 8-float mean state on the period map of
    ``steps`` RK4 steps dt = T / steps (``ValueError`` for fewer than one);
    the returned samples are ``integrate_means``' half-step grid, the drift
    grid of a step dt of the fluctuations.  The Newton Jacobian of the
    period map is Phi of ``period_map`` on the linearized drift, the
    fluctuation drift; it agrees with the RK4 map's Jacobian to the order of
    the step.  Newton starts from the CW point's linear response to the
    modulation (``_linear_response``), the orbit's first order in the
    modulation amplitudes.  Should it fail to converge within
    ``SHOOT_NEWTON_CAP`` iterations, the amplitudes are continued in halved
    steps: from 0, where the CW point is the orbit, each step starts from
    that point plus its share of the linear response; from a converged
    fraction it starts from that fraction's orbit.  Raises
    ``ConvergenceError`` (with the last residual) when the step falls below
    ``SHOOT_MIN_STEP``, and ``UnstableSystemError`` when the converged orbit
    is not attracting (rho(Phi) >= 1).
    """
    if drive.mod_frequency <= 0 or steps < 1:
        raise ValueError("periodic_orbit requires a modulated drive and at "
                         "least one step")
    period = 2 * math.pi / drive.mod_frequency
    dt = period / steps
    cw = steady_means(params, drive.unmodulated())
    response = _linear_response(params, drive, cw)
    y = cw.y
    done, step = 0.0, 1.0
    while True:
        target = min(1.0, done + step)
        scaled = replace(drive, mod_amplitudes=tuple(
            target * e for e in drive.mod_amplitudes))
        # The response is the first order about the CW point only; added
        # to a converged orbit it cost up to a fifth more integrations
        # than that orbit alone near omega_D = (Omega_1 + Omega_2) / 2.
        guess = y if done else y + target * response
        means, residual = _shoot(params, scaled, guess, cw.bare_detuning,
                                 period, dt)
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
    phi, _ = period_map(drift_samples(means, params), dt)
    rho = float(np.max(np.abs(np.linalg.eigvals(phi))))
    if not rho < 1.0:
        raise UnstableSystemError(
            f"periodic mean orbit is unstable (period map spectral radius {rho:.6f})")
    return PeriodicOrbit(means=means, rho=rho, residual=residual)
