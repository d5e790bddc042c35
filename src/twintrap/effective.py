"""Adiabatic elimination of the cavity modes: the mechanical-mechanical
coupling J, its modulation harmonics, resonance bookkeeping, and the steady
state of a reduced two-mode model used to cross-check the full dynamics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import lyapunov_steady
from .model import DerivedParams
from .meanfield import MeanTrajectory

#: Relative detuning, in units of the larger trap frequency, within which
#: ``rwa_classify`` counts a process frequency as matched by a harmonic.
RWA_REL_TOL = 1e-2


def weak_coupling_ok(wp: MeanTrajectory, params: DerivedParams) -> bool:
    """Adiabatic elimination assumes |G_ij| < kappa_i."""
    return bool(np.all(np.abs(wp.coupling) < params.kappa_control()[:, None]))


def effective_J_series(traj: MeanTrajectory, params: DerivedParams) -> np.ndarray:
    """Mechanical-mechanical coupling matrix J at every sample.

    J_jl = sum_i [kappa_i Im(G_ij G_il*) + Delta_i Re(G_ij G_il*)]
           / (kappa_i^2 + Delta_i^2),

    the standard adiabatic-elimination form (Aspelmeyer, Kippenberg &
    Marquardt, RMP 86, 1391 (2014), Sec. VI), a rate like G; shape
    (n, 2, 2) for a trajectory of n samples and (2, 2) for a single
    working point.
    """
    kappa = params.kappa_control()
    out = np.zeros(traj.coupling.shape[:-2] + (2, 2))
    for i in range(2):
        g = traj.coupling[..., i, :]
        gg = g[..., :, None] * g[..., None, :].conj()
        denom = kappa[i] ** 2 + traj.detuning[..., i] ** 2
        out += (kappa[i] * gg.imag + traj.detuning[..., i, None, None] * gg.real) \
            / denom[..., None, None]
    return 0.5 * (out + np.swapaxes(out, -1, -2))


@dataclass(frozen=True)
class HarmonicDecomposition:
    dc: np.ndarray            # (2, 2) J^(0)
    first: np.ndarray         # (2, 2) J^(1), cosine amplitude at w_D
    second: np.ndarray        # (2, 2) J^(2), cosine amplitude at 2 w_D
    residual: float           # relative content beyond the three harmonics


def modulation_harmonics(t: np.ndarray, j_series: np.ndarray,
                         omega_d: float) -> HarmonicDecomposition:
    """Cosine projections of a periodic J(t) at 0, w_D and 2 w_D.

    Expects samples covering an integer number of drive periods; rejects
    input whose endpoints disagree beyond 1 percent (non-periodic).
    """
    if omega_d <= 0:
        raise ValueError("modulation frequency must be positive")
    period = 2 * np.pi / omega_d
    span = t[-1] - t[0]
    n_per = round(span / period)
    if n_per < 1 or abs(span - n_per * period) > 1e-6 * period:
        raise ValueError("samples must cover an integer number of drive periods")
    scale = np.max(np.abs(j_series))
    if scale > 0 and np.max(np.abs(j_series[0] - j_series[-1])) > 1e-2 * scale:
        raise ValueError("J(t) endpoints disagree: input not periodic")

    # Trapezoid projections; endpoint sample duplicates the start.
    w = np.ones(len(t))
    w[0] = w[-1] = 0.5
    w /= w.sum()
    phase = omega_d * (t - t[0])
    dc = np.einsum("n,njl->jl", w, j_series)
    first = 2 * np.einsum("n,njl->jl", w * np.cos(phase), j_series)
    second = 2 * np.einsum("n,njl->jl", w * np.cos(2 * phase), j_series)

    recon = (dc[None] + first[None] * np.cos(phase)[:, None, None]
             + second[None] * np.cos(2 * phase)[:, None, None])
    residual = float(np.linalg.norm(j_series - recon) / max(np.linalg.norm(j_series), 1e-300))
    return HarmonicDecomposition(dc=dc, first=first, second=second, residual=residual)


def resonance_advisor(omega1: float, omega2: float) -> dict[str, float]:
    """Modulation frequencies that activate two-mode squeezing."""
    total = omega1 + omega2
    return {"omega_sum": total, "omega_half": total / 2}


@dataclass(frozen=True)
class ProcessTag:
    process: str
    modes: tuple[int, int]
    harmonic: int | None      # which J harmonic drives it when resonant
    resonant: bool


def rwa_classify(omega1: float, omega2: float,
                 omega_d: float) -> list[ProcessTag]:
    """Tag each effective-Hamiltonian process with its resonance status.

    A process oscillating at frequency f survives the rotating-wave screen
    when some harmonic n * w_D of the modulation matches f (n = 0 for CW).
    Frequency shifts are static; hopping is resonant for near-degenerate
    oscillators.
    """
    scale = max(omega1, omega2)

    def match(target: float) -> int | None:
        if abs(target) <= RWA_REL_TOL * scale:
            return 0
        if omega_d > 0:
            for n in (1, 2):
                if abs(target - n * omega_d) <= RWA_REL_TOL * scale:
                    return n
        return None

    tags = [
        ProcessTag("frequency-shift", (1, 1), 0, True),
        ProcessTag("frequency-shift", (2, 2), 0, True),
    ]
    for j, om in ((1, omega1), (2, omega2)):
        n = match(2 * om)
        tags.append(ProcessTag("single-mode-squeeze", (j, j), n, n is not None))
    n = match(omega1 - omega2)
    tags.append(ProcessTag("hopping", (1, 2), n, n is not None))
    n = match(omega1 + omega2)
    tags.append(ProcessTag("two-mode-squeeze", (1, 2), n, n is not None))
    return tags


def _reduced_generator(harmonics: HarmonicDecomposition,
                       omega1: float, omega2: float,
                       damping: np.ndarray, n_bath: np.ndarray,
                       omega_d: float) -> tuple[np.ndarray, np.ndarray]:
    """Constant rotating-frame drift and diffusion of the reduced model."""
    damping = np.asarray(damping, dtype=float)
    n_bath = np.asarray(n_bath, dtype=float)

    tags = {(t.process, t.modes): t for t in rwa_classify(omega1, omega2, omega_d)}
    tms = tags[("two-mode-squeeze", (1, 2))]
    hop = tags[("hopping", (1, 2))]
    j_by_harmonic = {0: harmonics.dc, 1: harmonics.first, 2: harmonics.second}
    # Cosine modulation at harmonic n >= 1 contributes amplitude J^(n)/2 to
    # each rotating exponential; the (j,l)+(l,j) symmetric pair doubles it.
    # The DC harmonic keeps the bare factor 2 from the symmetric pair.
    j_tms = j_by_harmonic[tms.harmonic][0, 1] * (1.0 if tms.harmonic else 2.0) \
        if tms.resonant else 0.0
    j_hop = 2.0 * harmonics.dc[0, 1] if (hop.resonant and hop.harmonic == 0) else 0.0
    eps = 2.0 * np.array([harmonics.dc[0, 0], harmonics.dc[1, 1]])

    a = np.zeros((4, 4))
    for j in range(2):
        xr, pr = 2 * j, 2 * j + 1
        a[xr, xr] = a[pr, pr] = -damping[j] / 2
        a[xr, pr] = eps[j]
        a[pr, xr] = -eps[j]
    # H_tms = j_tms (x1 x2 - p1 p2); H_hop = j_hop (x1 x2 + p1 p2).
    a[0, 3] += -j_tms + j_hop   # dx1/dp2
    a[1, 2] += -j_tms - j_hop   # dp1/dx2
    a[2, 1] += -j_tms + j_hop
    a[3, 0] += -j_tms - j_hop

    # Local thermal noise: relaxes to (n_bath + 1/2) I when J = 0.
    d = np.diag(np.repeat(damping * (n_bath + 0.5), 2))
    return a, d


def reduced_steady_state(harmonics: HarmonicDecomposition,
                         omega1: float, omega2: float,
                         damping: np.ndarray, n_bath: np.ndarray,
                         omega_d: float) -> np.ndarray:
    """Rotating-frame steady covariance of the reduced model (constant drift).

    Raises ``UnstableSystemError`` when squeezing exceeds damping.
    """
    a, d = _reduced_generator(harmonics, omega1, omega2, damping, n_bath, omega_d)
    return lyapunov_steady(a, d)
