"""Gaussian-state measures against closed-form oracles.

Convention: [x, p] = i, vacuum variance 1/2, entanglement border at
symplectic eigenvalue 1/2 of the partially transposed state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from twintrap import dynamics, gaussian, meanfield, pipeline
from twintrap.gaussian import (EntanglementReport, eta_min, log_negativity,
                               mechanical_block, partial_transpose,
                               phonon_occupation, symplectic_form,
                               symplectic_spectrum)

from conftest import two_mode_squeezed_cov, with_numerics

RNG = np.random.default_rng(20240817)


def random_symplectic(n_modes: int, rng=RNG, scale: float = 1.0
                      ) -> np.ndarray:
    """S = exp(Sigma H) with H symmetric is symplectic for Sigma J-form."""
    dim = 2 * n_modes
    h = scale * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.T)
    return expm(symplectic_form(n_modes) @ h)


def random_physical_cov(n_modes: int, scale: float = 1.0,
                        rng=RNG) -> np.ndarray:
    """Vacuum plus an arbitrary PSD part: always a physical state."""
    dim = 2 * n_modes
    w = scale * rng.normal(size=(dim, dim))
    return 0.5 * np.eye(dim) + w @ w.T


# -------------------------------------------------------------- oracles

def test_vacuum_is_borderline_separable():
    v = 0.5 * np.eye(4)
    assert abs(eta_min(v) - 0.5) < 1e-12
    assert log_negativity(v) == 0.0
    assert np.allclose(symplectic_spectrum(v), [0.5, 0.5])


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_two_mode_squeezed_vacuum(r):
    v = two_mode_squeezed_cov(r)
    assert abs(eta_min(v) - math.exp(-2 * r) / 2) < 1e-9
    assert abs(log_negativity(v) - 2 * r) < 1e-9


@pytest.mark.parametrize("r", [0.3, 0.8])
def test_thermal_two_mode_squeezed(r):
    # Symplectic spectrum of the state itself is (2n+1)/2 twice; the
    # partial transpose shifts by e^{+-2r}.
    n = 0.7
    v = two_mode_squeezed_cov(r, n_mean=n)
    nu = symplectic_spectrum(v)
    assert np.allclose(nu, (n + 0.5) * np.ones(2), rtol=1e-9)
    assert abs(eta_min(v) - (n + 0.5) * math.exp(-2 * r)) < 1e-9


def test_phonon_occupation_thermal():
    v = np.diag([1.5, 1.5, 3.5, 3.5])   # n1 = 1, n2 = 3
    assert abs(phonon_occupation(v, 1) - 1.0) < 1e-12
    assert abs(phonon_occupation(v, 2) - 3.0) < 1e-12


def test_mechanical_block_extraction():
    v = np.arange(64, dtype=float).reshape(8, 8)
    v = 0.5 * (v + v.T)
    assert np.array_equal(mechanical_block(v), v[:4, :4])


def test_partial_transpose_is_involution():
    v = random_physical_cov(2)
    assert np.allclose(partial_transpose(partial_transpose(v)), v)


def test_report_round_trip():
    v8 = np.eye(8)
    v8[:4, :4] = two_mode_squeezed_cov(0.5)
    eta, log_neg, nbar1, nbar2 = gaussian.measures(v8)
    rep = EntanglementReport(eta, float(log_neg), nbar1, nbar2, stable=True)
    assert isinstance(rep, EntanglementReport)
    assert abs(rep.log_neg - 1.0) < 1e-9
    doc = rep.as_dict()
    assert doc["stable"] is True
    assert abs(doc["eta_min"] - math.exp(-1.0) / 2) < 1e-9


def williamson_state(nu1: float, nu2: float, rng) -> np.ndarray:
    """S diag(nu1, nu1, nu2, nu2) S^T: symplectic spectrum (nu1, nu2)."""
    s = random_symplectic(2, rng=rng, scale=0.5)
    return s @ np.diag([nu1, nu1, nu2, nu2]) @ s.T


WILLIAMSON_SPECTRA = [(0.5, 0.7), (0.6, 0.6 * (1 + 1e-9)), (0.5, 2.0),
                      (1.0, 3.0)]


@pytest.mark.parametrize("nu", WILLIAMSON_SPECTRA)
def test_spectrum_of_williamson_states(nu):
    # 0.6 (1 + 1e-9) is the near-degenerate case, where the closed-form
    # two-mode invariants lose half the digits.
    rng = np.random.default_rng(31)
    for _ in range(20):
        got = symplectic_spectrum(williamson_state(*nu, rng))
        assert np.max(np.abs(got - nu) / nu) <= 1e-14


def test_stacked_spectrum_of_williamson_states():
    rng = np.random.default_rng(32)
    nu = np.array(WILLIAMSON_SPECTRA * 5)
    stack = np.stack([williamson_state(*pair, rng) for pair in nu])
    got = symplectic_spectrum(stack.reshape(4, 5, 4, 4))
    assert got.shape == (4, 5, 2)
    assert np.max(np.abs(got.reshape(-1, 2) - nu) / nu) <= 1e-14


PARTIAL_TRANSPOSE_SPECTRA = [(0.5, 0.7), (0.6, 0.6), (0.6, 0.6 * (1 + 1e-9)),
                             (1.0, 3.0), (1e-3, 10.0), (3.0, 0.02)]


@pytest.mark.parametrize("nu", PARTIAL_TRANSPOSE_SPECTRA)
def test_eta_min_of_williamson_partial_transposes(nu):
    # The partial transpose of each matrix is a Williamson state of
    # spectrum nu, so eta_min is min(nu), with nu_1 = nu_2 in one case and
    # eta 1e4 times below nu_max in another.  Building the states rounds
    # them by about eps ||S||^2, hence the bound in nu_max; the eigvalsh
    # spectrum errs by up to eps nu_max^2 / eta.
    rng = np.random.default_rng(34)
    stack = np.stack([partial_transpose(williamson_state(*nu, rng))
                      for _ in range(20)])
    lo, hi = min(nu), max(nu)
    eta = eta_min(stack)
    assert np.max(np.abs(eta - lo)) <= 5e-15 * hi
    spectrum = symplectic_spectrum(partial_transpose(stack)).min(axis=-1)
    assert np.max(np.abs(eta - spectrum)) <= 5e-15 * hi ** 2 / lo


def test_eta_min_at_the_start_of_mod_evolve_against_mpmath(fig2_sum_scenario):
    # The first stored sample of a fig2_sum evolve is its CW steady state,
    # where the two symplectic eigenvalues of the partial transpose agree
    # to 2.3e-16: the closed form must not cancel there.
    mp = pytest.importorskip("mpmath")
    p, drive = fig2_sum_scenario.params, fig2_sum_scenario.drive
    wp = meanfield.steady_means(p, drive.unmodulated())
    v = dynamics.lyapunov_steady(dynamics.drift_samples(wp, p),
                                 dynamics.build_diffusion(p))
    with mp.workdps(40):
        k = (mp.matrix(symplectic_form(2))
             * mp.matrix(partial_transpose(mechanical_block(v)).tolist()))
        want = min(abs(mp.im(z)) for z in mp.eig(k, left=False, right=False))
        assert abs(eta_min(v) - want) <= 2.0 ** -52 * want


# ------------------------------------------------------------- properties

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_symplectic_spectrum_invariant_under_symplectic_conjugation(seed):
    rng = np.random.default_rng(seed)
    v = random_physical_cov(2, rng=rng)
    s = random_symplectic(2, rng=rng)
    nu = np.sort(symplectic_spectrum(v))
    nu_conj = np.sort(symplectic_spectrum(s @ v @ s.T))
    assert np.allclose(nu, nu_conj, rtol=1e-7, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_physical_states_have_spectrum_above_half(seed):
    rng = np.random.default_rng(seed)
    v = random_physical_cov(2, rng=rng)
    assert symplectic_spectrum(v).min() >= 0.5 - 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_log_negativity_invariant_under_local_symplectics(seed):
    rng = np.random.default_rng(seed)
    v = two_mode_squeezed_cov(0.6, n_mean=0.2)
    s_local = np.zeros((4, 4))
    s_local[:2, :2] = random_symplectic(1, rng=rng)
    s_local[2:, 2:] = random_symplectic(1, rng=rng)
    assert abs(log_negativity(s_local @ v @ s_local.T)
               - log_negativity(v)) < 1e-7


@given(st.floats(0.01, 2.0))
@settings(max_examples=30, deadline=None)
def test_squeezing_monotone(r):
    # More squeezing, more entanglement.
    assert log_negativity(two_mode_squeezed_cov(r + 0.1)) > \
        log_negativity(two_mode_squeezed_cov(r))


# ------------------------------------------------------------- validation

def test_rejects_asymmetric_input():
    v = np.eye(4)
    v[0, 1] = 0.3
    with pytest.raises(ValueError):
        symplectic_spectrum(v)


def test_rejects_non_positive_input():
    with pytest.raises(ValueError):
        symplectic_spectrum(-np.eye(4))


# ---------------------------------------------------------------- stacks

def test_stacked_eta_min_matches_per_matrix(fig2_sum_scenario):
    run = pipeline.evolve(with_numerics(fig2_sum_scenario, t_max_tau=2.0))
    assert len(run.cov) > 100
    one_by_one = np.array([eta_min(v) for v in run.cov.v])
    assert np.array_equal(eta_min(run.cov.v), one_by_one)
    assert np.array_equal(run.eta_min, one_by_one)
    assert np.array_equal(phonon_occupation(run.cov.v, 2),
                          [phonon_occupation(v, 2) for v in run.cov.v])


def physical_stack():
    return np.stack([two_mode_squeezed_cov(r, n_mean=0.2)
                     for r in (0.1, 0.4, 0.7)])


def test_stack_rejects_one_asymmetric_matrix():
    stack = physical_stack()
    stack[1, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="symmetric.*matrix 1"):
        eta_min(stack)


def test_stack_rejects_one_non_positive_matrix():
    stack = physical_stack()
    stack[2] = -stack[2]
    with pytest.raises(ValueError, match="positive definite.*matrix 2"):
        eta_min(stack)


@pytest.mark.parametrize("pivot", range(4))
def test_stack_names_the_matrix_whose_cholesky_pivot_fails(pivot):
    # eta_min's Cholesky factor is written out entry by entry: each of its
    # four pivots is checked.
    stack = np.stack([0.5 * np.eye(4)] * 3)
    stack[1, pivot, pivot] = -0.5
    with pytest.raises(ValueError, match="positive definite.*matrix 1"):
        eta_min(stack)


def test_stack_rejects_one_unpaired_spectrum(monkeypatch):
    # In exact arithmetic the eigenvalues of K^T K always pair, so the
    # failure is injected: one eigenvalue of the first matrix is shifted.
    real_eigvalsh = np.linalg.eigvalsh

    def shifted(m):
        out = real_eigvalsh(m)
        out[0, 0] *= 1.001
        return out

    stack = physical_stack()
    symplectic_spectrum(stack)
    monkeypatch.setattr(gaussian.np.linalg, "eigvalsh", shifted)
    with pytest.raises(ValueError, match="pair.*matrix 0"):
        symplectic_spectrum(stack)


def test_stacked_log_negativity_matches_per_matrix():
    stack = physical_stack()
    got = log_negativity(stack)
    assert got.shape == (3,)
    assert np.array_equal(got, [log_negativity(v) for v in stack])
    assert isinstance(log_negativity(stack[0]), float)
    # Zero for a separable state, in a stack too.
    mixed = np.stack([0.5 * np.eye(4), stack[2]])
    assert np.array_equal(log_negativity(mixed), [0.0, got[2]])
    # eta = 0.7 e^{-2r} (``test_thermal_two_mode_squeezed``); r = 0.1 is
    # separable.
    want = np.maximum(0.0, 2 * np.array([0.1, 0.4, 0.7]) - np.log(1.4))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
