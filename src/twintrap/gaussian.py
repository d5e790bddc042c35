"""Gaussian-state analysis: symplectic spectra, entanglement, occupations.

Quadrature convention [x, p] = i, vacuum variance 1/2; a two-mode state is
inseparable iff the minimum symplectic eigenvalue of its partial transpose
drops below 1/2.  Logarithmic negativity uses the natural logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Pairing tolerance for the +/- symplectic eigenvalue pairs.
PAIRING_TOL = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal form for the (x1, p1, ..., xn, pn) ordering."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        out[2 * m:2 * m + 2, 2 * m:2 * m + 2] = block
    return out


def mechanical_block(v: np.ndarray) -> np.ndarray:
    """Reduced covariance of the two mechanical modes (first four rows/cols)."""
    return np.asarray(v, dtype=float)[..., :4, :4].copy()


def partial_transpose(v: np.ndarray, party: int = 2) -> np.ndarray:
    """Momentum sign flip of one mode of a two-mode covariance matrix."""
    v = np.asarray(v, dtype=float)
    if v.shape[-2:] != (4, 4):
        raise ValueError("partial transpose acts on a two-mode (4x4) covariance")
    if party not in (1, 2):
        raise ValueError("party must be 1 or 2")
    flip = np.diag([1.0, -1.0, 1.0, 1.0] if party == 1 else [1.0, 1.0, 1.0, -1.0])
    return flip @ v @ flip


def _require(ok: np.ndarray, message: str) -> None:
    """Raise ``ValueError`` unless every matrix passed; name the first failure."""
    if not ok.all():
        where = f" (matrix {int(ok.argmin())} of the stack)" if ok.ndim else ""
        raise ValueError(message + where)


def symplectic_spectrum(v: np.ndarray) -> np.ndarray:
    """Moduli of the eigenvalues of i Sigma V, deduplicated to n values.

    Requires a symmetric positive-definite covariance; the raw spectrum
    comes in +/- pairs which are matched after sorting.  A stack (..., 2n, 2n)
    gives spectra (..., n) and every matrix in it must pass every check.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2] or v.shape[-1] % 2:
        raise ValueError("covariance must be square and even-dimensional")
    v_t = v.swapaxes(-1, -2)
    scale = np.maximum(abs(v).max(axis=(-2, -1)), 1.0)
    _require(abs(v - v_t).max(axis=(-2, -1)) <= 1e-10 * scale,
             "covariance must be symmetric")
    _require(np.linalg.eigvalsh(0.5 * (v + v_t)).min(axis=-1) > 0,
             "covariance must be positive definite")
    raw = abs(np.linalg.eigvals(symplectic_form(v.shape[-1] // 2) @ v))
    raw.sort(axis=-1)
    pairs = raw.reshape(raw.shape[:-1] + (-1, 2))
    _require(abs(pairs[..., 0] - pairs[..., 1]).max(axis=-1)
             <= PAIRING_TOL * np.maximum(raw[..., -1], 1.0),
             "symplectic spectrum failed to pair")
    return pairs.mean(axis=-1)


def eta_min(v: np.ndarray) -> float | np.ndarray:
    """Minimum symplectic eigenvalue of the partially transposed two-mode
    state; one value per matrix for a stack."""
    eta = symplectic_spectrum(partial_transpose(mechanical_block(v))).min(axis=-1)
    return float(eta) if eta.ndim == 0 else eta


def log_negativity(v: np.ndarray) -> float:
    """E_N = max{0, -ln(2 eta_min)}."""
    return max(0.0, -math.log(2.0 * eta_min(v)))


def phonon_occupation(v: np.ndarray, mode: int) -> float | np.ndarray:
    """Mean phonon number of mechanical mode 1 or 2 from its variances;
    one value per matrix for a stack."""
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    v = np.asarray(v, dtype=float)
    j = 2 * (mode - 1)
    nbar = (v[..., j, j] + v[..., j + 1, j + 1] - 1.0) / 2.0
    return float(nbar) if nbar.ndim == 0 else nbar


def two_mode_squeezed_cov(r: float, n_mean: float = 0.0) -> np.ndarray:
    """Covariance of a (possibly thermal) two-mode squeezed state; test helper."""
    c = (n_mean + 0.5) * math.cosh(2 * r)
    s = (n_mean + 0.5) * math.sinh(2 * r)
    return np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement and occupation summary for one scenario or time sample."""

    eta_min: float
    log_neg: float
    nbar1: float
    nbar2: float
    stable: bool
    t: float = 0.0

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "eta_min": self.eta_min,
            "log_negativity": self.log_neg,
            "nbar1": self.nbar1,
            "nbar2": self.nbar2,
            "stable": self.stable,
        }


def report_from_covariance(v: np.ndarray, stable: bool, t: float = 0.0) -> EntanglementReport:
    """Full report from an 8x8 (or mechanical 4x4) covariance matrix."""
    block = mechanical_block(v)
    eta = eta_min(block)
    return EntanglementReport(
        eta_min=eta,
        log_neg=max(0.0, -math.log(2.0 * eta)),
        nbar1=phonon_occupation(block, 1),
        nbar2=phonon_occupation(block, 2),
        stable=stable,
        t=t,
    )
