"""Gaussian-state analysis: symplectic spectra, entanglement, occupations.

Quadrature convention [x, p] = i, vacuum variance 1/2; a two-mode state is
inseparable iff the minimum symplectic eigenvalue of its partial transpose
drops below 1/2.  Logarithmic negativity uses the natural logarithm.
"""

from __future__ import annotations

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


def partial_transpose(v: np.ndarray) -> np.ndarray:
    """Momentum sign flip of the second mode of a two-mode covariance matrix."""
    v = np.array(v, dtype=float)
    if v.shape[-2:] != (4, 4):
        raise ValueError("partial transpose acts on a two-mode (4x4) covariance")
    v[..., 3, :] *= -1.0
    v[..., :, 3] *= -1.0
    return v


def _require(ok: np.ndarray, message: str) -> None:
    """Raise ``ValueError`` unless every matrix passed; name the first failure."""
    if not ok.all():
        where = f" (matrix {int(ok.argmin())} of the stack)" if ok.ndim else ""
        raise ValueError(message + where)


def symplectic_spectrum(v: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues nu of V, the moduli of the eigenvalues of
    i Sigma V, n of them in ascending order.

    Requires a symmetric positive-definite covariance.  With L the Cholesky
    factor of V, K = L^T Sigma L is antisymmetric and similar to Sigma V, so
    the eigenvalues of K^T K are the nu^2, each twice: one ``eigvalsh``
    reads them, and the pairs are matched after sorting.  Rounding moves a
    nu by about eps nu_max^2 / nu.  A stack (..., 2n, 2n) gives spectra
    (..., n) and every matrix in it must pass every check.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2] or v.shape[-1] % 2:
        raise ValueError("covariance must be square and even-dimensional")
    v_t = v.swapaxes(-1, -2)
    scale = np.maximum(abs(v).max(axis=(-2, -1)), 1.0)
    _require(abs(v - v_t).max(axis=(-2, -1)) <= 1e-10 * scale,
             "covariance must be symmetric")
    try:
        m = np.linalg.cholesky(0.5 * (v + v_t))
    except np.linalg.LinAlgError:
        # Name the first failure; at the margin only the Cholesky may fail.
        message = "covariance must be positive definite"
        _require(np.linalg.eigvalsh(0.5 * (v + v_t)).min(axis=-1) > 0,
                 message)
        raise ValueError(message) from None
    # K = X - X^T with X = L_x^T L_p, L_x and L_p the rows of L of the
    # positions and of the momenta.  One name for L, X, K and K^T K frees
    # each once the next is built, so a stack holds three at a time.
    m = m[..., 0::2, :].swapaxes(-1, -2) @ m[..., 1::2, :]
    m = m - m.swapaxes(-1, -2)
    m = m.swapaxes(-1, -2) @ m
    nu = np.sqrt(np.linalg.eigvalsh(m))
    pairs = nu.reshape(nu.shape[:-1] + (nu.shape[-1] // 2, 2))
    _require(abs(pairs[..., 0] - pairs[..., 1]).max(axis=-1)
             <= PAIRING_TOL * np.maximum(nu[..., -1], 1.0),
             "symplectic spectrum failed to pair")
    return pairs.mean(axis=-1)


def eta_min(v: np.ndarray) -> float | np.ndarray:
    """Minimum symplectic eigenvalue of the partially transposed two-mode
    state; one value per matrix for a stack."""
    eta = symplectic_spectrum(partial_transpose(mechanical_block(v))).min(axis=-1)
    return float(eta) if eta.ndim == 0 else eta


def log_negativity(v: np.ndarray) -> float | np.ndarray:
    """E_N = max{0, -ln(2 eta_min)}; one value per matrix for a stack."""
    return log_negativity_of(eta_min(v))


def log_negativity_of(eta: float | np.ndarray) -> float | np.ndarray:
    """E_N = max{0, -ln(2 eta)} of a least symplectic eigenvalue eta of the
    partial transpose (``eta_min``); one value per entry of an array."""
    en = np.maximum(0.0, -np.log(2.0 * np.asarray(eta)))
    return float(en) if en.ndim == 0 else en


def phonon_occupation(v: np.ndarray, mode: int) -> float | np.ndarray:
    """Mean phonon number of mechanical mode 1 or 2 from its variances;
    one value per matrix for a stack."""
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    v = np.asarray(v, dtype=float)
    j = 2 * (mode - 1)
    nbar = (v[..., j, j] + v[..., j + 1, j + 1] - 1.0) / 2.0
    return float(nbar) if nbar.ndim == 0 else nbar


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


def measures(v: np.ndarray) -> tuple:
    """(eta_min, E_N, nbar1, nbar2) of an 8x8 (or mechanical 4x4) covariance
    matrix; one array each, one entry per matrix, for a stack (B, n, n)."""
    eta = eta_min(v)
    return (eta, log_negativity_of(eta),
            phonon_occupation(v, 1), phonon_occupation(v, 2))
