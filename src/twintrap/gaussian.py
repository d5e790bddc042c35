"""Gaussian-state analysis: symplectic spectra, entanglement, occupations.

Quadrature convention [x, p] = i, vacuum variance 1/2; a two-mode state is
inseparable iff the minimum symplectic eigenvalue of its partial transpose
drops below 1/2.  Logarithmic negativity uses the natural logarithm.

``eta_min``, which every entanglement measure reads, takes that eigenvalue
of the two mechanical modes in closed form, in elementwise arithmetic over
a stack; ``symplectic_spectrum`` is the general n-mode spectrum, from one
``eigvalsh`` per matrix.
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


#: Flat positions 4 i + j in a 4x4 block of its entries above the diagonal,
#: and of their mirror images 4 j + i below it.
_ABOVE = [1, 2, 3, 6, 7, 11]
_BELOW = [4, 8, 12, 9, 13, 14]


def eta_min(v: np.ndarray) -> float | np.ndarray:
    """Minimum symplectic eigenvalue eta of the partially transposed
    mechanical state (the first four rows and columns of V); one value per
    matrix for a stack.

    A closed form in stacked elementwise arithmetic, with no per-matrix
    LAPACK call.  With L the Cholesky factor of the partial transpose,
    written out entry by entry from its lower triangle, K = L^T Sigma L is
    antisymmetric with upper entries (a, b, c, d, e, f) and eigenvalues
    +-i nu_1, +-i nu_2.  Its self-dual and anti-self-dual parts
    u = (a + f, b - e, c + d) and w = (a - f, b + e, c - d) give
    nu_max = (|u| + |w|) / 2, and Pf K = det L = nu_1 nu_2 gives
    eta = det L / nu_max (Serafini, Illuminati & De Siena, J. Phys. B 37,
    L21 (2004), on two-mode symplectic invariants).  Both are sums of
    squares and products, so nothing cancels where nu_1 = nu_2: eta is
    within about 1e-16 relative of a 40-digit value on ``fig2_sum``.  The
    checks are those of ``symplectic_spectrum``, the general n-mode
    spectrum, and name the first failing matrix of a stack.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or min(v.shape[-2:]) < 4:
        raise ValueError("eta_min needs a covariance of two modes or more")
    # The 16 entries of each mechanical block, one contiguous row each.
    x = v[..., :4, :4].reshape(-1, 16).T.copy().reshape((16,) + v.shape[:-2])
    scale = np.maximum(abs(x).max(axis=0), 1.0)
    _require(abs(x[_ABOVE] - x[_BELOW]).max(axis=0) <= 1e-10 * scale,
             "covariance must be symmetric")
    v00, _, _, _, v10, v11, _, _, v20, v21, v22, _, v30, v31, v32, v33 = x
    # The partial transpose flips the signs of v30, v31 and v32.
    with np.errstate(divide="ignore", invalid="ignore"):
        l00 = np.sqrt(v00)
        l10, l20, l30 = v10 / l00, v20 / l00, -v30 / l00
        r1 = v11 - l10 * l10
        l11 = np.sqrt(r1)
        l21 = (v21 - l20 * l10) / l11
        l31 = (-v31 - l30 * l10) / l11
        r2 = v22 - l20 * l20 - l21 * l21
        l22 = np.sqrt(r2)
        l32 = (-v32 - l30 * l20 - l31 * l21) / l22
        r3 = v33 - l30 * l30 - l31 * l31 - l32 * l32
        l33 = np.sqrt(r3)
    # A pivot r that is not positive makes every later one NaN or -inf.
    _require(r3 > 0, "covariance must be positive definite")
    # K_ij = L_0i L_1j - L_1i L_0j + L_2i L_3j - L_3i L_2j, L lower triangular.
    a = l00 * l11 + l20 * l31 - l30 * l21
    b = l20 * l32 - l30 * l22
    c, e, f = l20 * l33, l21 * l33, l22 * l33
    d = l21 * l32 - l31 * l22
    nu_max = 0.5 * (np.sqrt((a + f) ** 2 + (b - e) ** 2 + (c + d) ** 2)
                    + np.sqrt((a - f) ** 2 + (b + e) ** 2 + (c - d) ** 2))
    eta = l00 * l11 * l22 * l33 / nu_max
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
