"""Drift/diffusion assembly, stability, and covariance propagation."""

import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov, solve_discrete_lyapunov

from twintrap import cli, dynamics, meanfield, pipeline
from twintrap.dynamics import (BlowupError, UnstableSystemError,
                               build_diffusion, drift_samples,
                               evolve_covariance, lyapunov_steady, period_map,
                               periodic_orbit, quasi_steady_orbit,
                               routh_hurwitz_stable, stability_check)
from twintrap.meanfield import ConvergenceError, MeanTrajectory
from twintrap.scenario import load_scenario, shipped_scenario

from conftest import with_numerics

RNG = np.random.default_rng(7121394)


def random_stable_drift(rng, dim=8, margin=0.5):
    a = rng.normal(size=(dim, dim))
    shift = np.max(np.linalg.eigvals(a).real)
    return a - (shift + margin) * np.eye(dim)


def random_psd(rng, dim=8):
    b = rng.normal(size=(dim, dim))
    return b @ b.T


# ------------------------------------------------------- drift assembly

def reference_drift(wp, params):
    """Independent drift assembly straight from the linearized equations."""
    a = np.zeros((8, 8))
    kappa = params.kappa_control()
    g = wp.coupling
    for j in range(2):
        x, p = 2 * j, 2 * j + 1
        a[x, p] = params.omega_mech[j]
        a[p, x] = -wp.omega_shifted[j]
        a[p, p] = -params.gamma[j]
        for i in range(2):
            xi, yi = 4 + 2 * i, 5 + 2 * i
            a[p, xi] = -math.sqrt(2) * g[i, j].real
            a[p, yi] = -math.sqrt(2) * g[i, j].imag
            a[xi, x] = math.sqrt(2) * g[i, j].imag
            a[yi, x] = -math.sqrt(2) * g[i, j].real
    for i in range(2):
        xi, yi = 4 + 2 * i, 5 + 2 * i
        a[xi, xi] = a[yi, yi] = -kappa[i]
        a[xi, yi] = wp.detuning[i]
        a[yi, xi] = -wp.detuning[i]
    return a


def test_drift_matches_reference(fig1_scenario):
    system = fig1_scenario.system()
    wp = meanfield.steady_means(system.params, system.drive)
    a = drift_samples(wp, system.params)
    assert a.shape == (8, 8)
    assert np.allclose(a, reference_drift(wp, system.params), rtol=1e-12)


def test_drift_samples_match_pointwise(fig2_sum_scenario):
    system = fig2_sum_scenario.system()
    p, drv = system.params, system.drive
    wp0 = meanfield.steady_means(p, drv.unmodulated())
    dt = 2 * math.pi / drv.mod_frequency / 64
    traj = meanfield.integrate_means(p, drv, (0.0, 10 * dt), dt, initial=wp0)
    stacked = drift_samples(traj, p)
    assert stacked.shape == (len(traj), 8, 8)
    for k in (0, 3, len(traj) - 1):
        assert np.array_equal(stacked[k], drift_samples(traj[k], p))
        assert np.allclose(stacked[k], reference_drift(traj[k], p),
                           rtol=1e-12)


def test_diffusion_diagonal(fig1_scenario):
    p = fig1_scenario.system().params
    d = build_diffusion(p)
    assert np.allclose(d, np.diag(np.diag(d)))
    # Thermal bath through gamma; recoil heating dn/dt = Gamma needs
    # d<p^2>/dt = 2 Gamma and carries no thermal factor.
    expect_mech = (2 * p.n_thermal + 1) * p.gamma + 2 * p.recoil
    assert np.allclose(np.diag(d)[[1, 3]], expect_mech, rtol=1e-12)
    assert np.diag(d)[0] == np.diag(d)[2] == 0.0
    assert np.allclose(np.diag(d)[4:], np.repeat(p.kappa_control(), 2),
                       rtol=1e-12)


# ----------------------------------------------------- stability verdicts

def test_characteristic_polynomial_matches_numpy():
    rng = np.random.default_rng(33)
    for _ in range(20):
        a = rng.normal(size=(8, 8))
        coeffs = dynamics._characteristic_polynomial(a)
        assert np.allclose(coeffs, np.poly(a), rtol=1e-8, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_routh_hurwitz_agrees_with_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6)) - 0.2 * np.eye(6)
    max_re = np.max(np.linalg.eigvals(a).real)
    if abs(max_re) < 1e-6 * np.linalg.norm(a, 2):   # skip marginal draws
        return
    assert routh_hurwitz_stable(a) == (max_re < 0)


def test_stability_report_verdicts():
    stable = stability_check(-np.eye(4))
    assert stable.verdict == "stable" and stable.stable
    assert abs(stable.margin - 1.0) < 1e-12
    unstable = stability_check(np.diag([1.0, -1.0, -2.0, -3.0]))
    assert unstable.verdict == "unstable" and not unstable.stable
    marginal = stability_check(np.diag([0.0, -1.0, -1.0, -1.0]))
    assert marginal.verdict == "marginal"


def mixed_drifts(rng):
    """Stable, unstable and marginal 8x8 drifts, interleaved."""
    drifts = []
    for k in range(12):
        a = rng.normal(size=(8, 8))
        drifts.append(a - (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(8)
                      if k % 3 else a)
    drifts.append(np.diag([0.0] + [-1.0] * 7))
    return np.array(drifts)


def test_stacked_stability_matches_per_matrix():
    stack = mixed_drifts(np.random.default_rng(41))
    report = stability_check(stack)
    verdicts = routh_hurwitz_stable(stack)
    assert report.verdict.shape == report.margin.shape == verdicts.shape == (13,)
    assert set(report.verdict) == {"stable", "unstable", "marginal"}
    for k, a in enumerate(stack):
        single = stability_check(a)
        assert report.verdict[k] == single.verdict
        assert report.margin[k] == single.margin
        assert verdicts[k] == routh_hurwitz_stable(a)


def exact_marginal(a):
    """The marginal rule with the exact spectral norm (an SVD) of every
    matrix of a stack."""
    max_re = np.linalg.eigvals(a).real.max(axis=-1)
    scale = np.maximum(np.linalg.norm(a, 2, axis=(-2, -1)), 1.0)
    return abs(max_re) <= dynamics.MARGINAL_TOL * scale


def near_marginal_drifts(rng):
    """Random 8x8 drifts whose spectral abscissa is c MARGINAL_TOL ||A||_2
    for c on both sides of +-1, at norms above and below 1."""
    drifts = []
    for c in (0.5, 0.9, 1.1, 1.5, 3.0, 30.0, 1e3):
        for sign in (1.0, -1.0):
            a = rng.normal(size=(8, 8))
            a -= np.linalg.eigvals(a).real.max() * np.eye(8)
            a += sign * c * dynamics.MARGINAL_TOL * np.linalg.norm(a, 2) \
                * np.eye(8)
            drifts += [a, 1e-3 * a]
    return np.array(drifts)


def counted_norms(monkeypatch):
    """Count the matrices whose exact spectral norm is taken."""
    rows = []
    norm2 = dynamics._norm2
    monkeypatch.setattr(dynamics, "_norm2",
                        lambda a: rows.append(len(a)) or norm2(a))
    return rows


def test_drift_between_the_norm_and_its_bound_is_not_marginal(monkeypatch):
    # |max Re lambda| = 2e-5 lies above tol ||A||_2 = 1e-5 but below the
    # bound tol 2 ||A||_F = 5.3e-5: the exact norm rules it not marginal.
    a = np.diag([-2e-5] + [-1e3] * 7)
    tol = dynamics.MARGINAL_TOL
    assert tol * np.linalg.norm(a, 2) < 2e-5 < tol * 2 * np.linalg.norm(a)
    rows = counted_norms(monkeypatch)
    report = stability_check(np.array([a, np.diag([0.0] + [-1.0] * 7),
                                       -np.eye(8)]))
    assert report.verdict.tolist() == ["stable", "marginal", "stable"]
    assert rows == [2]
    assert stability_check(a).verdict == "stable"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_marginal_verdicts_follow_the_exact_norm_rule(seed):
    rng = np.random.default_rng(seed)
    stack = np.concatenate([near_marginal_drifts(rng), mixed_drifts(rng)])
    report = stability_check(stack)
    marginal = exact_marginal(stack)
    assert 0 < marginal.sum() < len(stack)
    assert np.array_equal(report.verdict == "marginal", marginal)
    assert np.array_equal(report.stable, ~marginal
                          & routh_hurwitz_stable(stack))


def test_bench_grid_takes_no_exact_norm(bench_grid, monkeypatch):
    rows = counted_norms(monkeypatch)
    report = stability_check(bench_grid[0])
    assert report.stable.all() and not exact_marginal(bench_grid[0]).any()
    assert rows == []


def reference_stability(a):
    """Verdicts and margins of a stack by the exact marginal rule, with the
    eigenvalues of every drift."""
    verdict = np.where(exact_marginal(a), "marginal", np.where(
        routh_hurwitz_stable(a), "stable", "unstable"))
    return verdict, -np.linalg.eigvals(a).real.max(axis=-1)


def slow_stable_drift(rng):
    """A stable 8x8 drift whose spectral abscissa -2e-5 lies between -c, the
    shift of the certifying table, and -MARGINAL_TOL ||A||_2 = -1e-5."""
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    return q @ np.diag([-2e-5] + [-1e3] * 7) @ q.T


@pytest.mark.parametrize("seed", [0, 1])
def test_stability_check_is_the_exact_rule(seed, bench_grid):
    rng = np.random.default_rng(seed)
    slow = slow_stable_drift(rng)
    shift = dynamics.MARGINAL_TOL * max(2 * np.linalg.norm(slow), 1.0)
    assert not routh_hurwitz_stable(slow + shift * np.eye(8))
    for stack in (bench_grid[0], mixed_drifts(rng), near_marginal_drifts(rng),
                  slow[None]):
        report = stability_check(stack)
        verdict, margin = reference_stability(stack)
        assert np.array_equal(report.verdict, verdict)
        held = verdict != "stable"
        assert np.array_equal(report.margins(held), margin[held])
    assert stability_check(slow).verdict == "stable"


def counted_eigvals(monkeypatch):
    """Count the matrices handed to ``np.linalg.eigvals``."""
    rows = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: rows.append(
        int(np.prod(np.shape(a)[:-2]))) or eigvals(a))
    return rows


def test_certified_drifts_take_no_eigenvalues(bench_grid, fig1_scenario,
                                              monkeypatch):
    rows = counted_eigvals(monkeypatch)
    assert stability_check(bench_grid[0]).stable.all()
    assert sum(rows) == 0
    # A certified margin is exact when read.
    assert stability_check(-np.eye(4)).margin == 1.0 and rows == [1]
    # A sweep takes the eigenvalues of its uncertified drifts only: of the
    # four points, detuning -1 is unstable and 0 misses the residual bound.
    # The symplectic spectra of the solved points (``gaussian.measures``)
    # take none.
    del rows[:]
    drives = [fig1_scenario.system(detuning=x).drive
              for x in (0.5, -1.0, 1.0, 0.0)]
    states = pipeline.steady_states(
        fig1_scenario.params, np.array([d.cw_amplitudes for d in drives]),
        np.array([d.detunings for d in drives]))
    assert sorted(states.failures) == [1, 3] and rows == [1]


# ------------------------------------------------------- Lyapunov solves

def test_lyapunov_residual_and_positivity():
    rng = np.random.default_rng(99)
    for _ in range(25):
        a = random_stable_drift(rng)
        d = random_psd(rng)
        v = lyapunov_steady(a, d)
        res = np.linalg.norm(a @ v + v @ a.T + d) / np.linalg.norm(d)
        assert res < 1e-10
        assert np.min(np.linalg.eigvalsh(v)) > -1e-10 * np.linalg.norm(v)


def test_lyapunov_matches_scipy():
    rng = np.random.default_rng(5)
    a = random_stable_drift(rng)
    d = random_psd(rng)
    assert np.allclose(lyapunov_steady(a, d),
                       solve_continuous_lyapunov(a, -d), rtol=1e-9)


def test_stacked_lyapunov_matches_scipy():
    rng = np.random.default_rng(6)
    a = np.array([random_stable_drift(rng) for _ in range(5)])
    d = np.array([random_psd(rng) for _ in range(5)])
    v, _, failures = dynamics.steady_covariance(a, d)
    assert not failures and v.shape == (5, 8, 8)
    for k in range(5):
        assert np.allclose(v[k], solve_continuous_lyapunov(a[k], -d[k]),
                           rtol=1e-9)


def test_lyapunov_stack_longer_than_a_chunk():
    rng = np.random.default_rng(8)
    n = dynamics.LYAPUNOV_CHUNK + 7
    a = np.array([random_stable_drift(rng) for _ in range(n)])
    d = random_psd(rng)
    v, _, failures = dynamics.steady_covariance(a, d)
    assert not failures
    for k in (0, dynamics.LYAPUNOV_CHUNK - 1, dynamics.LYAPUNOV_CHUNK, n - 1):
        assert np.array_equal(v[k], lyapunov_steady(a[k], d))
    a[n - 3] = -a[n - 3]
    v, _, failures = dynamics.steady_covariance(a, d)
    assert list(failures) == [n - 3]
    assert isinstance(failures[n - 3], UnstableSystemError)
    assert np.isnan(v[n - 3]).all()


def kronecker_lyapunov(a, d):
    """Reference steady covariances of a stack: the row-major vec(V) solves
    (A (x) I + I (x) A) vec(V) = -vec(D), one n^2 x n^2 system per drift;
    the solution is symmetrised, since its antisymmetric part is rounding."""
    n = a.shape[-1]
    eye = np.eye(n)
    kron = np.array([np.kron(ak, eye) + np.kron(eye, ak) for ak in a])
    d = np.broadcast_to(d, a.shape).reshape(-1, n * n, 1)
    v = np.linalg.solve(kron, -d).reshape(a.shape)
    return 0.5 * (v + v.swapaxes(1, 2))


@pytest.fixture(scope="module")
def bench_grid(fig1_scenario):
    """Drifts and diffusion of a 1500-point stratified detuning sweep of
    fig1_cw over its stable band [0.2, 2.0] Omega_1, seed 1."""
    rng = random.Random(1)
    width = 1.8 / 1500
    systems = [fig1_scenario.system(detuning=0.2 + (i + rng.random()) * width)
               for i in range(1500)]
    p = fig1_scenario.params
    wp, confining = meanfield.cw_working_points(
        p, np.array([s.drive.cw_amplitudes for s in systems]),
        np.array([s.drive.detunings for s in systems]))
    assert confining.all()
    return drift_samples(wp, p), build_diffusion(p)


def assert_matches_kronecker(a, d):
    v, residual, failures = dynamics.steady_covariance(a, d)
    assert not failures and residual.max() <= dynamics.LYAPUNOV_RTOL
    ref = kronecker_lyapunov(a, d)
    err = np.abs(v - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert err.max() < 1e-12
    assert np.array_equal(v, v.swapaxes(1, 2))


@pytest.mark.parametrize("dim", [8, 4])
def test_vech_solve_matches_kronecker_reference(dim):
    # Dense symmetric diffusions, one per drift, over more than one chunk.
    rng = np.random.default_rng(dim)
    count = dynamics.LYAPUNOV_CHUNK + 5
    a = np.array([random_stable_drift(rng, dim) for _ in range(count)])
    d = np.array([random_psd(rng, dim) for _ in range(count)])
    assert_matches_kronecker(a, d)


def test_vech_solve_matches_kronecker_on_the_bench_grid(bench_grid):
    assert_matches_kronecker(*bench_grid)


def test_non_symmetric_diffusion_misses_the_residual_bound():
    # V solves the symmetric part of D; the antisymmetric part is left in
    # the residual against the given D, which then misses the bound.
    rng = np.random.default_rng(11)
    a = random_stable_drift(rng)
    sym = random_psd(rng)
    skew = 1e-3 * rng.normal(size=(8, 8))
    skew -= skew.T
    _, residual, _ = dynamics.steady_covariance(a[None], sym + skew)
    expect = np.linalg.norm(skew) / np.linalg.norm(sym + skew)
    assert residual[0] == pytest.approx(expect, rel=1e-6)
    with pytest.raises(ConvergenceError, match="Lyapunov residual") as err:
        lyapunov_steady(a, sym + skew)
    assert err.value.residual == residual[0]
    v, _, _ = dynamics.steady_covariance(a[None], sym)
    assert np.allclose(v[0], kronecker_lyapunov(a[None], sym)[0],
                       rtol=0, atol=1e-12 * np.abs(v).max())


def test_marginal_scale_is_the_spectral_norm(bench_grid):
    rng = np.random.default_rng(12)
    for a in (bench_grid[0], rng.normal(size=(50, 8, 8)),
              rng.normal(size=(50, 4, 4)), np.eye(3)):
        norm = np.linalg.norm(a, 2, axis=(-2, -1))
        assert np.allclose(dynamics._norm2(a), norm, rtol=1e-14, atol=0)


def test_lyapunov_bound_miss_exits_4(fig1_scenario, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "LYAPUNOV_RTOL", 1e-30)
    with pytest.raises(ConvergenceError, match="Lyapunov residual") as err:
        pipeline.steady_state(fig1_scenario.system())
    assert 0 < err.value.residual < 1e-10
    argv = ["steady", "--scenario", str(shipped_scenario("fig1_cw"))]
    assert cli.main(argv) == cli.EXIT_NOCONV
    assert "Lyapunov residual" in capsys.readouterr().err


def fig1_drifts(scenario, detunings):
    """The drifts at the CW working points of fig1_cw's drive at each of
    the ``detunings`` (in Omega_1), and its diffusion."""
    p = scenario.params
    wp, _ = meanfield.cw_working_points(
        p, *scenario.drive_stack("detuning", detunings))
    return drift_samples(wp, p), build_diffusion(p)


def test_steady_covariance_fails_the_slot_that_misses(fig1_scenario):
    # At detuning 0 the drift is stable through mechanical damping alone
    # and its residual (3.4e-8) misses the bound; its neighbours meet it.
    v, residual, failures = dynamics.steady_covariance(
        *fig1_drifts(fig1_scenario, [0.5, 0.0, 1.0]))
    assert list(failures) == [1]
    assert isinstance(failures[1], ConvergenceError)
    assert failures[1].residual == residual[1] > dynamics.LYAPUNOV_RTOL
    assert np.isnan(v[1]).all() and not np.isnan(v[[0, 2]]).any()


def test_steady_covariance_names_each_failed_slot(fig1_scenario):
    # Stable, unstable (detuning -1), missed (detuning 0), marginal and
    # stable again: the failed slots hold NaN and their errors, in slot
    # order, with the margin or residual in the message.
    a, d = fig1_drifts(fig1_scenario, [0.5, -1.0, 0.0, 0.5, 1.0])
    a[3] = np.diag([0.0] + [-1.0] * 7)
    v, residual, failures = dynamics.steady_covariance(a, d)
    assert list(failures) == [1, 2, 3]
    assert [type(e) for e in failures.values()] == [
        UnstableSystemError, ConvergenceError, UnstableSystemError]
    margin = -np.linalg.eigvals(a[[1, 3]]).real.max(axis=-1)
    assert [str(e) for e in failures.values()] == [
        f"no steady state: drift is unstable (margin {margin[0]:.3e})",
        f"Lyapunov residual {residual[2]:.3e} above bound 1e-10",
        f"no steady state: drift is marginal (margin {margin[1]:.3e})"]
    assert failures[2].residual == residual[2]
    assert np.isnan(residual[[1, 3]]).all()
    assert (residual[[0, 4]] <= dynamics.LYAPUNOV_RTOL).all()
    nan_rows = np.isnan(v).all(axis=(1, 2))
    assert nan_rows.tolist() == [False, True, True, True, False]
    assert not np.isnan(v[[0, 4]]).any()
    with pytest.raises(UnstableSystemError, match="unstable"):
        lyapunov_steady(a[1], d)
    with pytest.raises(ValueError, match="steady_covariance"):
        lyapunov_steady(a, d)


def test_blue_detuned_stable_sweep(tmp_path, capsys):
    # Stable blue-detuned points whose steady state the Bartels-Stewart
    # solver left at a residual of 2-8e-10; the vech solve gets 1.6e-11.
    with open(shipped_scenario("fig1_cw")) as fh:
        doc = yaml.safe_load(fh)
    doc["sweep"]["values"] = [1.0, -2.95, -2.92]
    path = tmp_path / "blue.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["sweep", "--scenario", str(path)]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["stable"] * 3


def test_lyapunov_rejects_unstable_drift():
    with pytest.raises(UnstableSystemError):
        lyapunov_steady(np.eye(8), np.eye(8))


def test_steady_state_checks_stability_once(fig1_scenario, monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return stability_check(a)

    monkeypatch.setattr(dynamics, "stability_check", counted)
    pipeline.steady_state(fig1_scenario.system())
    assert len(calls) == 1


# --------------------------------------------------- covariance evolution

def constant_half_grid(a, n_steps):
    return np.repeat(a[None, :, :], 2 * n_steps + 1, axis=0)


def test_constant_drift_relaxes_to_lyapunov_solution():
    rng = np.random.default_rng(11)
    a = random_stable_drift(rng, margin=1.0)
    d = random_psd(rng)
    v_inf = lyapunov_steady(a, d)
    n = 4000
    traj = evolve_covariance(np.zeros((8, 8)), constant_half_grid(a, n), d,
                             dt=0.005, store_stride=100)
    assert np.allclose(traj.v[-1], v_inf, rtol=1e-6, atol=1e-9)


def test_steady_state_is_a_fixed_point():
    rng = np.random.default_rng(12)
    a = random_stable_drift(rng)
    d = random_psd(rng)
    v_inf = lyapunov_steady(a, d)
    traj = evolve_covariance(v_inf, constant_half_grid(a, 200), d, dt=0.01)
    assert np.allclose(traj.v[-1], v_inf, rtol=1e-8)


def test_symmetry_preserved_along_trajectory():
    rng = np.random.default_rng(13)
    a = random_stable_drift(rng)
    d = random_psd(rng)
    traj = evolve_covariance(np.zeros((8, 8)), constant_half_grid(a, 100), d,
                             dt=0.01)
    for v in traj.v:
        assert np.array_equal(v, v.T)


def test_blowup_detected():
    a = np.eye(8) * 5.0
    with pytest.raises(BlowupError):
        evolve_covariance(np.eye(8), constant_half_grid(a, 2000), np.eye(8),
                          dt=0.05)


def test_blowup_detected_on_nan_drift():
    rng = np.random.default_rng(16)
    a_half = constant_half_grid(random_stable_drift(rng), 50)
    a_half[41, 2, 3] = np.nan
    with pytest.raises(BlowupError) as err:
        evolve_covariance(np.eye(8), a_half, np.eye(8), dt=0.01)
    # Sample 41 is the midpoint of step 21 (1-based): the step ending at 0.21.
    assert math.isclose(err.value.t, 0.21)


def sinusoidal_half_grid(rng, n_steps, dt, omega=3.0):
    """A stable drift modulated at ``omega``, on the half-step grid."""
    base = random_stable_drift(rng, margin=1.0)
    mod = rng.normal(size=(8, 8)) * 0.3
    ts = 0.5 * dt * np.arange(2 * n_steps + 1)
    return base[None] + mod[None] * np.sin(omega * ts)[:, None, None]


def sequential_covariances(v0, a_half, d, dt, stride):
    """V <- sym(P V P^T) + Q through every ``_step_maps`` map, one step
    after another, from the symmetric part of ``d``; V is kept every
    ``stride`` steps, up to the last whole interval.  The reference for
    ``evolve_covariance``'s composition and blocked scan."""
    n_steps = (len(a_half) - 1) // 2 // stride * stride
    p, q = dynamics._step_maps(a_half[:2 * n_steps + 1], dt, 0.5 * (d + d.T))
    v, out = v0, [v0]
    for k, (pk, qk) in enumerate(zip(p, q), 1):
        x = pk @ v @ pk.T
        v = 0.5 * (x + x.T) + qk
        if k % stride == 0:
            out.append(v)
    return np.array(out)


@pytest.mark.parametrize("stride", [1, 3, 7])
def test_scan_matches_the_sequential_recurrence(stride, monkeypatch):
    # Chunks of 40, 13 and 5 intervals take blocks of 7, 4 and 3, so every
    # chunk, and the shorter last one, ends in a padded block.
    monkeypatch.setattr(dynamics, "PROPAGATOR_CHUNK", 40)
    rng = np.random.default_rng(21)
    dt = 0.01
    a_half = sinusoidal_half_grid(rng, 300, dt)
    d = random_psd(rng)
    v0 = lyapunov_steady(a_half[0], d)
    got = evolve_covariance(v0, a_half, d, dt, store_stride=stride).v
    want = sequential_covariances(v0, a_half, d, dt, stride)
    assert got.shape == want.shape == (300 // stride + 1, 8, 8)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(got, got.swapaxes(1, 2))


def test_blowup_on_nan_drift_mid_block_fires_at_end_of_its_interval(
        monkeypatch):
    # Stride 3, chunks of 13 intervals in blocks of 4: the midpoint of step
    # 18 (0-based) lies in interval 6, the third of block 1, which ends at
    # step 21, t = 0.21.
    monkeypatch.setattr(dynamics, "PROPAGATOR_CHUNK", 40)
    rng = np.random.default_rng(16)
    a_half = constant_half_grid(random_stable_drift(rng), 50)
    a_half[37, 2, 3] = np.nan
    with pytest.raises(BlowupError) as err:
        evolve_covariance(np.eye(8), a_half, np.eye(8), dt=0.01,
                          store_stride=3)
    assert math.isclose(err.value.t, 0.21)


def test_blowup_on_nan_drift_fires_at_end_of_stored_interval():
    # The check runs at stored samples: step 21 (1-based, ending at 0.21)
    # lies in the stored interval of steps 21-24, which ends at 0.24.
    rng = np.random.default_rng(16)
    a_half = constant_half_grid(random_stable_drift(rng), 50)
    a_half[41, 2, 3] = np.nan
    with pytest.raises(BlowupError) as err:
        evolve_covariance(np.eye(8), a_half, np.eye(8), dt=0.01,
                          store_stride=4)
    assert math.isclose(err.value.t, 0.24)


@pytest.mark.parametrize("offset", [0.0, 1e-10], ids=["exact", "near"])
def test_singular_pade_denominator_raises_and_names_step(offset):
    # Omega = dt A with eigenvalues 3 +- i sqrt(3), the roots of
    # 1 - z/2 + z^2/12, makes M = I - Omega/2 + Omega^2/12 singular; 1e-10
    # off them M is about 3e-11 I, invertible but swamped by rounding.
    dt = 0.5
    block = np.array([[3.0 + offset, math.sqrt(3.0)],
                      [-math.sqrt(3.0), 3.0 + offset]]) / dt
    bad = np.kron(np.eye(4), block)
    a_half = constant_half_grid(-np.eye(8), 6)
    a_half[6:9] = bad                     # the samples of step 3 (0-based)
    for run in (lambda: evolve_covariance(np.eye(8), a_half, np.eye(8), dt),
                lambda: period_map(a_half, dt)):
        with pytest.raises(ConvergenceError, match="step 3 .* is singular"):
            run()


def counting_lapack_inverse(monkeypatch):
    """Count the calls to ``np.linalg.inv`` until the test ends; returns
    the list of their stacks and the real function."""
    real, calls = np.linalg.inv, []

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls, real


def test_pade_series_matches_lapack_on_a_shipped_chunk(fig2_sum_scenario,
                                                       monkeypatch):
    # The drive period of fig2_sum on evolve's 64 steps is one chunk, with
    # r = 8 max|Y| near 1e-3: the Neumann series takes it, not LAPACK.
    p, drive = fig2_sum_scenario.params, fig2_sum_scenario.drive
    a_half = drift_samples(periodic_orbit(p, drive, 64).means, p)
    dt = 2 * math.pi / drive.mod_frequency / 64
    seen = []
    real_pade = dynamics._pade_inverse

    def spy(m, n, first, dt, work):
        m_inv = real_pade(m, n, first, dt, work)
        seen.append((m.copy(), m_inv.copy()))
        return m_inv

    monkeypatch.setattr(dynamics, "_pade_inverse", spy)
    lapack, inv = counting_lapack_inverse(monkeypatch)
    period_map(a_half, dt, build_diffusion(p))
    assert not lapack and len(seen) == 1
    m, m_inv = seen[0]
    want = inv(m)
    assert m.shape[0] == 64
    assert np.all(np.abs(m_inv - want).max(axis=(1, 2))
                  <= 1e-15 * np.abs(want).max(axis=(1, 2)))


@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6],
                         ids=["series", "lapack"])
def test_pade_inverse_takes_lapack_past_series_rmax(factor, monkeypatch):
    # Omega = -c I gives Y = (c^2/12 - c^4/144) I and r = 8 |Y_00|, so
    # c^2 = 6 - sqrt(36 - 18 r) puts r a hair either side of
    # PADE_SERIES_RMAX: below it the series inverts, above it LAPACK.
    # P is the scalar Pade ratio.  The series stops at k = 6 powers of Y,
    # past which LAPACK is the faster inverse.
    rmax = dynamics.PADE_SERIES_RMAX
    assert rmax ** 7 / (1 - rmax) <= 2.0 ** -53
    dt = 0.5
    r = factor * rmax
    c = math.sqrt(6 - math.sqrt(36 - 18 * r))
    lapack, _ = counting_lapack_inverse(monkeypatch)
    p, _ = dynamics._step_maps(constant_half_grid(-c / dt * np.eye(8), 3), dt)
    assert len(lapack) == (factor > 1)
    ratio = (1 - c / 2 + c * c / 12) / (1 + c / 2 + c * c / 12)
    assert np.max(np.abs(p - ratio * np.eye(8))) <= 1e-15 * ratio


@pytest.mark.parametrize("r", [1e-6, 1e-3, dynamics.PADE_SERIES_RMAX])
def test_pade_series_sums_to_its_certified_tail(r, monkeypatch):
    # N = I and M = I - Y with every entry of Y equal to r / 8, so
    # ||Y^j||_inf = r^j exactly and the tail the term count is picked by is
    # tight; M^-1 = I + Y / (1 - r).
    n = np.tile(np.eye(8), (3, 1, 1))
    m = n - r / 8
    work = [np.empty_like(m) for _ in range(4)]
    want = np.eye(8) + r / 8 / (1 - r)
    lapack, _ = counting_lapack_inverse(monkeypatch)
    got = dynamics._pade_inverse(m, n, 0, 1.0, work)
    assert not lapack
    assert np.max(np.abs(got - want)) <= 2.0 ** -52 * np.max(want)


@pytest.mark.parametrize("factor", [1e-3, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0])
def test_pade_gain_verdict_next_to_the_bound(factor):
    # In a stack of four with N = I, step 2 (the seventh from ``first`` =
    # 5) has M^-1 = I + E, E seven entries s below the diagonal of column
    # 0, so its gain ||M^-1||_1 ||N||_1 is 1 + 7 s = factor PADE_GAIN_MAX.
    # The chunk bound n^2 max|M^-1| max|N| = 64 s clears PADE_GAIN_MAX only
    # at the smallest factor; past it the exact gains decide, as they did
    # alone.
    s = (factor * dynamics.PADE_GAIN_MAX - 1) / 7
    n = np.tile(np.eye(8), (4, 1, 1))
    m = n.copy()
    m[2, 1:, 0] = -s
    work = [np.empty_like(m) for _ in range(4)]
    exact = (np.abs(np.linalg.inv(m)).sum(axis=1).max(axis=1)
             * np.abs(n).sum(axis=1).max(axis=1))
    if (exact > dynamics.PADE_GAIN_MAX).any():
        assert factor > 1
        with pytest.raises(ConvergenceError, match="step 7 .* is singular"):
            dynamics._pade_inverse(m, n, 5, 0.1, work)
    else:
        assert factor < 1
        m_inv = dynamics._pade_inverse(m, n, 5, 0.1, work)
        assert np.array_equal(m_inv, np.linalg.inv(m))


def test_intervals_compose_to_their_steps():
    rng = np.random.default_rng(18)
    dt = 0.01
    a_half = sinusoidal_half_grid(rng, 300, dt)
    d = random_psd(rng)
    v0 = lyapunov_steady(a_half[0], d)
    every = evolve_covariance(v0, a_half, d, dt)
    stored = evolve_covariance(v0, a_half, d, dt, store_stride=7)
    assert np.array_equal(stored.t, every.t[::7])
    error = np.max(np.abs(stored.v - every.v[::7]))
    assert error < 1e-13 * np.max(np.abs(every.v))


def test_p_only_intervals_are_the_products_of_their_steps():
    # Without a diffusion only P is composed: the period map of each
    # 7-step window is the product of its step maps.
    rng = np.random.default_rng(20)
    dt = 0.01
    a_half = sinusoidal_half_grid(rng, 700, dt)
    steps, _ = dynamics._step_maps(a_half, dt)
    for k in range(100):
        phi, q = period_map(a_half[14 * k:14 * k + 15], dt)
        want = np.eye(8)
        for pk in steps[7 * k:7 * k + 7]:
            want = pk @ want
        assert q is None
        assert np.max(np.abs(phi - want)) <= 1e-13 * np.linalg.norm(want)


def test_monodromy_is_the_ordered_product_of_step_maps():
    rng = np.random.default_rng(19)
    dt = 0.01
    a_half = sinusoidal_half_grid(rng, 700, dt)   # two chunks of steps
    p, q = dynamics._step_maps(a_half, dt)
    assert q is None
    phi = np.eye(8)
    for pk in p:
        phi = pk @ phi
    assert np.array_equal(period_map(a_half, dt)[0], phi)


def test_period_map_noise_is_the_covariance_grown_from_zero():
    rng = np.random.default_rng(19)
    dt = 0.01
    a_half = sinusoidal_half_grid(rng, 300, dt)
    d = random_psd(rng)
    phi, q = period_map(a_half, dt, d)
    # One stored interval of the whole grid applies its map to V = 0 exactly.
    zero = np.zeros((8, 8))
    assert np.array_equal(
        q, evolve_covariance(zero, a_half, d, dt, store_stride=300).v[-1])
    # Step by step, the covariance composes in another order.
    every = evolve_covariance(zero, a_half, d, dt).v[-1]
    assert np.max(np.abs(every - q)) <= 1e-13 * np.max(np.abs(q))
    # Both take the symmetric part of a diffusion given lopsided.
    lopsided = d + np.triu(d)
    assert np.array_equal(
        period_map(a_half, dt, lopsided)[1],
        evolve_covariance(zero, a_half, lopsided, dt, store_stride=300).v[-1])
    phi_only, no_noise = period_map(a_half, dt)
    assert np.array_equal(phi, phi_only)
    assert no_noise is None


def test_period_map_refuses_a_grid_without_steps(fig2_sum_scenario):
    with pytest.raises(ValueError, match="at least one step"):
        period_map(constant_half_grid(-np.eye(8), 0), 0.1)
    with pytest.raises(ValueError, match="at least one step"):
        periodic_orbit(fig2_sum_scenario.params, fig2_sum_scenario.drive, 0)


# ------------------------------------------------- periodic covariance

def shipped_period(name, steps=64):
    """(drift half-step grid, dt, diffusion) of the periodic orbit of a
    shipped modulated scenario on ``steps`` steps a period."""
    system = load_scenario(shipped_scenario(name))
    p, drv = system.params, system.drive
    dt = 2 * math.pi / drv.mod_frequency / steps
    orbit = periodic_orbit(p, drv, steps)
    return drift_samples(orbit.means, p), dt, build_diffusion(p)


@pytest.mark.parametrize("name", ["fig2_sum", "fig2_half", "fig3_nanosphere"])
def test_periodic_covariance_matches_scipy_and_repeats(name):
    # SciPy's discrete Lyapunov solver is the oracle; one period of the
    # propagator from V_0 returns to V_0.
    a_half, dt, d = shipped_period(name)
    phi, q_t = period_map(a_half, dt, d)
    v0 = dynamics.periodic_covariance(phi, q_t)
    oracle = solve_discrete_lyapunov(phi, q_t)
    assert np.linalg.norm(v0 - oracle) <= 1e-12 * np.linalg.norm(oracle)
    v_t = evolve_covariance(v0, a_half, d, dt).v[-1]
    assert np.linalg.norm(v_t - v0) <= 1e-12 * np.linalg.norm(v0)


@pytest.mark.parametrize("phi", [1.01 * np.eye(8), -np.eye(8)],
                         ids=["rho above 1", "multiplier -1"])
def test_periodic_covariance_refuses_a_map_that_does_not_contract(phi):
    with pytest.raises(UnstableSystemError):
        dynamics.periodic_covariance(phi, np.eye(8))


def test_periodic_covariance_checks_the_discrete_residual(monkeypatch):
    # A solve whose continuous residual passes but whose V_0 misses the
    # discrete equation raises with the discrete residual.
    phi, q_t = period_map(*shipped_period("fig3_nanosphere"))
    solve, returned = dynamics.steady_covariance, []

    def off(a, d):
        v, residual, failures = solve(a, d)
        returned.append(v[0] * (1 + 1e-8))
        return v * (1 + 1e-8), residual, failures

    monkeypatch.setattr(dynamics, "steady_covariance", off)
    with pytest.raises(ConvergenceError, match="periodic Lyapunov") as caught:
        dynamics.periodic_covariance(phi, q_t)
    [v] = returned
    residual = np.linalg.norm(phi @ v @ phi.T + q_t - v) / np.linalg.norm(v)
    assert caught.value.residual == pytest.approx(residual)
    assert caught.value.residual > dynamics.LYAPUNOV_RTOL


def drift_stream(system, n_steps, dt, window_steps):
    """A ``DriftGrid`` over ``mean_windows`` from the CW point, as
    ``pipeline.evolve`` builds it."""
    p, drv = system.params, system.drive
    windows = meanfield.mean_windows(
        p, drv, (0.0, n_steps * dt), dt,
        initial=meanfield.steady_means(p, drv.unmodulated()),
        window_steps=window_steps)
    return dynamics.DriftGrid(windows, 2 * n_steps + 1, p)


def test_streamed_drift_matches_materialized_grid(fig2_sum_scenario,
                                                  monkeypatch):
    system = fig2_sum_scenario.system()
    p, drv = system.params, system.drive
    dt = 2 * math.pi / drv.mod_frequency / 64
    wp0 = meanfield.steady_means(p, drv.unmodulated())
    whole = drift_samples(meanfield.integrate_means(
        p, drv, (0.0, 200 * dt), dt, initial=wp0), p)
    d = build_diffusion(p)
    v0 = lyapunov_steady(drift_samples(wp0, p), d)
    # Chunks of 18 steps (6 stored intervals) cut the run at many places.
    monkeypatch.setattr(dynamics, "PROPAGATOR_CHUNK", 20)
    grid = drift_stream(system, 200, dt, dynamics.chunk_steps(3))
    assert grid.shape == whole.shape
    streamed = evolve_covariance(v0, grid, d, dt, store_stride=3)
    held = evolve_covariance(v0, whole, d, dt, store_stride=3)
    assert np.array_equal(streamed.t, held.t)
    assert np.array_equal(streamed.v, held.v)
    # The period map reads its period in one slice: one window of 200 steps.
    grid = drift_stream(system, 200, dt, 200)
    assert np.array_equal(period_map(grid, dt)[0], period_map(whole, dt)[0])


def test_streamed_drift_refuses_an_out_of_order_read(fig2_sum_scenario):
    # Windows of 4 steps: samples 0:9, 8:17 and 16:21.
    system = fig2_sum_scenario.system()
    dt = 2 * math.pi / system.drive.mod_frequency / 64
    whole = drift_samples(meanfield.integrate_means(
        system.params, system.drive, (0.0, 10 * dt), dt), system.params)
    grid = drift_stream(system, 10, dt, 4)
    with pytest.raises(ValueError, match="in order"):
        grid[8:17]                   # skips the first window
    grid = drift_stream(system, 10, dt, 4)
    assert np.array_equal(grid[0:9], whole[0:9])
    with pytest.raises(ValueError, match="in order"):
        grid[0:9]                    # reads the first window again
    grid = drift_stream(system, 10, dt, 4)
    for window in (slice(0, 9), slice(8, 17), slice(16, 21)):
        assert np.array_equal(grid[window], whole[window])
    with pytest.raises(ValueError, match="in order"):
        grid[20:21]                  # past the last window


@pytest.mark.slow
def test_evolve_memory_does_not_grow_with_the_horizon(fig2_sum_scenario):
    # Only the stored covariances may grow with the run: the means and the
    # drift are held one chunk at a time.  A run that holds its whole
    # half-step grid grows the peak about 4.9x as fast as the stored samples
    # on 204 steps and 34 stored samples a period, the grid pinned here.
    def traced_peak(t_max_tau):
        tracemalloc.start()
        try:
            run = pipeline.evolve(with_numerics(
                fig2_sum_scenario, t_max_tau=t_max_tau, steps_per_period=204))
            return tracemalloc.get_traced_memory()[1], run.cov.v.nbytes
        finally:
            tracemalloc.stop()

    short_peak, short_cov = traced_peak(2.5)
    long_peak, long_cov = traced_peak(10.0)
    assert long_peak - short_peak <= 2 * (long_cov - short_cov)


def test_fourth_order_convergence_sinusoidal_drift():
    """Step-halving shrinks the global error ~16x for the fourth-order
    Pade-Magnus scheme."""
    rng = np.random.default_rng(14)
    base = random_stable_drift(rng, margin=1.0)
    mod = rng.normal(size=(8, 8)) * 0.3
    d = random_psd(rng)
    v0 = lyapunov_steady(base, d)
    t_end, omega = 2.0, 3.0

    def run(n_steps):
        dt = t_end / n_steps
        ts = 0.5 * dt * np.arange(2 * n_steps + 1)
        a_half = base[None] + mod[None] * np.sin(omega * ts)[:, None, None]
        return evolve_covariance(v0, a_half, d, dt,
                                 store_stride=n_steps).v[-1]

    coarse, mid, fine = run(200), run(400), run(800)
    ratio = np.linalg.norm(coarse - fine) / np.linalg.norm(mid - fine)
    assert 10.0 < ratio < 25.0


def test_refined_minimum_is_the_parabola_vertex():
    x = np.arange(11.0)           # one period of 10 steps
    assert pipeline._refined_minimum(2 * (x - 3.3) ** 2 + 0.7) == \
        pytest.approx(0.7, abs=1e-13)
    # A dip at phase 0 wraps: the neighbours of either end are f[9], f[1].
    for x0 in (0.3, -0.3):
        phase = (x - x0 + 5) % 10 - 5
        assert pipeline._refined_minimum(2 * phase ** 2 + 0.7) == \
            pytest.approx(0.7, abs=1e-13)
    assert pipeline._refined_minimum(np.full(5, 0.25)) == 0.25


def test_cycle_pass_repeats_the_stored_final_period(fig2_half_scenario,
                                                    monkeypatch):
    # 20 tau of fig2_half: 40 periods of 192 steps, so the final period
    # (steps 7488-7680) straddles the window boundary at step 7650.
    passes = []
    evolve_covariance = dynamics.evolve_covariance

    def spy(*args, **kwargs):
        passes.append(evolve_covariance(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(dynamics, "evolve_covariance", spy)
    run = pipeline.evolve(with_numerics(fig2_half_scenario, t_max_tau=20.0))
    cycle = passes[-1].v      # after the run's own pass
    assert len(passes) == 2
    n_per = len(run.orbit.t) - 1
    assert len(cycle) == run.steps_per_period + 1 == 192 + 1
    stored = run.cov.v[-(n_per + 1):]
    gap = np.linalg.norm(cycle[::192 // n_per] - stored, axis=(1, 2))
    assert np.all(gap <= 1e-13 * np.linalg.norm(stored, axis=(1, 2)))


def test_cycle_extrema_read_the_dip_between_stored_samples(fig3_scenario):
    # On fig3_nanosphere the eta_min dip of a period is narrower than the
    # store stride: the least stored sample sits 3.8e-4 above it.  Every
    # step, refined, reads it to 2e-7 at 64 steps a period against 256.
    def run(**numerics):
        return pipeline.evolve(with_numerics(fig3_scenario, t_max_tau=2.0,
                                             **numerics))

    coarse, fine = run(), run(steps_per_period=256)
    assert coarse.steps_per_period == 64
    stored = coarse.eta_min[-len(coarse.orbit.t):].min()
    eta = coarse.eta_min_final_period
    assert abs(eta - fine.eta_min_final_period) < 1e-6
    assert stored - eta > 1e-4
    assert coarse.log_neg_final_period == -math.log(2 * eta)


def test_quasi_steady_orbit_flags_convergence():
    rng = np.random.default_rng(15)
    a = random_stable_drift(rng, margin=2.0)
    d = random_psd(rng)
    v_inf = lyapunov_steady(a, d)
    n_per = 20                            # period 1.0 over stored 0.05
    n = 3200                              # 16 periods at dt = 0.005
    traj = evolve_covariance(v_inf, constant_half_grid(a, n), d, dt=0.005,
                             store_stride=10)
    orbit = quasi_steady_orbit(traj, n_per)
    assert orbit.converged
    assert orbit.period_change < 1e-6
    # From an empty state the early transient is not converged over the
    # same horizon cut to two periods.
    short = evolve_covariance(np.zeros((8, 8)), constant_half_grid(a, 400),
                              d, dt=0.005, store_stride=10)
    assert not quasi_steady_orbit(short, n_per).converged


# ------------------------------------------------------- periodic orbit

def orbit_and_step(system):
    """Periodic orbit at 256 RK4 steps per drive period, and that step."""
    p, drv = system.params, system.drive
    dt = 2 * math.pi / drv.mod_frequency / 256
    return periodic_orbit(p, drv, 256), dt


def plain_gap(system, orbit, dt, n_periods):
    """Relative distance of a plain integration from CW after n periods
    to the orbit start, with the orbit's own RK4 step."""
    p, drv = system.params, system.drive
    period = 2 * math.pi / drv.mod_frequency
    end = meanfield.integrate_means(p, drv, (0.0, n_periods * period),
                                    dt).y[-1]
    y0 = orbit.means.y[0]
    return np.max(np.abs(end - y0)) / np.max(np.abs(y0))


def test_periodic_orbit_is_the_attractor(fig3_scenario):
    # rho ~ 0.61: sixty periods of plain integration reach the orbit.
    system = fig3_scenario.system()
    orbit, dt = orbit_and_step(system)
    assert orbit.rho < 0.7
    assert orbit.residual < dynamics.SHOOT_TOL
    assert len(orbit.means) == 513
    assert orbit.means.t[0] == 0.0
    assert math.isclose(orbit.means.t[-1], 2 * math.pi / system.drive.mod_frequency)
    assert plain_gap(system, orbit, dt, 60) < 1e-10


@pytest.mark.slow
def test_periodic_orbit_near_resonant_drive(fig2_half_scenario):
    # omega_D = Omega_1: Newton from the bare CW point leaves the basin
    # here; from the CW point's linear response it converges at the full
    # amplitude.  After 500 periods the plain integration is still ~1e-6
    # short of periodic (rho ~ 0.97).
    system = fig2_half_scenario.system()
    orbit, dt = orbit_and_step(system)
    assert orbit.rho < 1.0
    assert plain_gap(system, orbit, dt, 500) < 1e-5


def test_monodromy_is_fourth_order():
    rng = np.random.default_rng(17)
    base = random_stable_drift(rng, margin=1.0)
    mod = rng.normal(size=(8, 8)) * 0.3

    def run(n_steps):
        dt = 2.0 / n_steps
        ts = 0.5 * dt * np.arange(2 * n_steps + 1)
        return period_map(
            base[None] + mod[None] * np.sin(3.0 * ts)[:, None, None], dt)[0]

    coarse, mid, fine = run(50), run(100), run(200)
    assert np.linalg.norm(coarse - fine) / np.linalg.norm(mid - fine) >= 7.0


def test_monodromy_is_the_period_map_jacobian(fig2_sum_scenario):
    system = fig2_sum_scenario.system()
    p, drv = system.params, system.drive
    orbit, dt = orbit_and_step(system)
    phi, _ = dynamics.period_map(drift_samples(orbit.means, p), dt)
    period = 2 * math.pi / drv.mod_frequency
    bare = orbit.means.bare_detuning

    def period_map(y):
        start = MeanTrajectory.from_state(p, 0.0, y, bare)
        return meanfield.integrate_means(p, drv, (0.0, period), dt,
                                         initial=start).y[-1]

    y0 = orbit.means.y[0]
    jac = np.empty((8, 8))
    for k in range(8):
        step = np.zeros(8)
        step[k] = 1e-4 * max(abs(y0[k]), 1.0)
        jac[:, k] = (period_map(y0 + step) - period_map(y0 - step)) / (2 * step[k])
    # Phi acts on quadratures: u = S y with S = diag(1, 1, 1, 1, sqrt2 x 4).
    s = np.array([1.0] * 4 + [math.sqrt(2)] * 4)
    assert np.max(np.abs(s[:, None] * jac / s[None, :] - phi)) \
        < 1e-6 * np.max(np.abs(phi))


def test_unstable_periodic_orbit_raises(tmp_path, capsys):
    # Blue-detuned control modes: the shooting converges, but to an orbit
    # with rho(Phi) ~ 1.13, which is never returned.
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["drive"]["detunings_omega1_units"] = [-1.0, -1.0]
    path = tmp_path / "blue.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(UnstableSystemError):
        orbit_and_step(load_scenario(path).system())
    assert cli.main(["effective", "--scenario", str(path)]) == cli.EXIT_UNSTABLE
    assert "unstable" in capsys.readouterr().err


def test_stalled_shooting_raises_with_residual(fig2_sum_scenario, monkeypatch):
    monkeypatch.setattr(dynamics, "SHOOT_NEWTON_CAP", 0)
    with pytest.raises(ConvergenceError) as err:
        orbit_and_step(fig2_sum_scenario.system())
    assert math.isfinite(err.value.residual) and err.value.residual > 0


def test_singular_period_map_fails_only_its_attempt(fig2_sum_scenario,
                                                    monkeypatch):
    # A diverging Newton iterate can make a Pade denominator of its period
    # map singular.  That attempt fails like any other and the continuation
    # halves the step, to the same orbit.
    system = fig2_sum_scenario.system()
    orbit, _ = orbit_and_step(system)
    calls = []
    period_map = dynamics.period_map

    def singular_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ConvergenceError("Pade denominator of step 9 is singular",
                                   1e-40)
        return period_map(*args)

    monkeypatch.setattr(dynamics, "period_map", singular_once)
    integrations = count_integrations(monkeypatch)
    halved, _ = orbit_and_step(system)
    half = tuple(0.5 * e for e in system.drive.mod_amplitudes)
    assert any(args[1].mod_amplitudes == half for args in integrations)
    assert halved.residual < dynamics.SHOOT_TOL
    y0 = orbit.means.y[0]
    assert np.max(np.abs(halved.means.y[0] - y0)) <= 1e-9 * np.max(np.abs(y0))


def bare_start(monkeypatch):
    """Start every shooting level from the CW point or the last converged
    orbit alone, without the linear response."""
    monkeypatch.setattr(dynamics, "_linear_response",
                        lambda params, drive, cw: np.zeros(8))


def at_sum_fraction(system, fraction):
    """The system with omega_D = fraction x (Omega_1 + Omega_2)."""
    total = float(system.params.omega_mech.sum())
    return replace(system, drive=replace(system.drive,
                                         mod_frequency=fraction * total))


def count_integrations(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return meanfield.integrate_means(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_means", counted)
    return calls


@pytest.mark.parametrize("name, most", [("fig2_half", 4), ("fig2_sum", 3),
                                        ("fig3_nanosphere", 5)])
def test_periodic_orbit_integration_count(name, most, monkeypatch):
    # Newton from the linear response needs no continuation level; from
    # the bare CW point fig2_half took 16 period integrations.
    calls = count_integrations(monkeypatch)
    orbit_and_step(load_scenario(shipped_scenario(name)).system())
    assert len(calls) <= most


def test_continuation_fallback_reaches_the_same_orbit(fig2_half_scenario,
                                                      monkeypatch):
    system = fig2_half_scenario.system()
    orbit, _ = orbit_and_step(system)
    bare_start(monkeypatch)
    calls = count_integrations(monkeypatch)
    fallback, _ = orbit_and_step(system)
    # The full-amplitude level fails after SHOOT_NEWTON_CAP + 1 periods,
    # so the converged orbit comes from halved levels.
    assert len(calls) > dynamics.SHOOT_NEWTON_CAP + 1
    assert fallback.residual < dynamics.SHOOT_TOL
    y0 = orbit.means.y[0]
    assert np.max(np.abs(fallback.means.y[0] - y0)) <= 1e-9 * np.max(np.abs(y0))


def test_continuation_from_an_orbit_ignores_the_linear_response(
        fig2_sum_scenario, monkeypatch):
    # At omega_D = 0.525 (Omega_1 + Omega_2) Newton needs the continuation
    # even from the linear response.  Its levels from a converged orbit
    # start from that orbit; adding the response there took 111
    # integrations against 96 from the bare CW start.
    scanned = at_sum_fraction(fig2_sum_scenario.system(), 0.525)
    calls = count_integrations(monkeypatch)
    orbit_and_step(scanned)
    predicted = len(calls)
    bare_start(monkeypatch)
    del calls[:]
    orbit_and_step(scanned)
    assert predicted <= len(calls)


@pytest.mark.parametrize("name", ["fig2_half", "fig2_sum", "fig3_nanosphere"])
def test_linear_response_is_the_weak_modulation_orbit(name):
    # The error of the first-order response is second order in the
    # modulation: it falls tenfold per decade of epsilon, down to the RK4
    # step's own error (2.6e-7 relative on fig2_half at epsilon = 1e-3).
    system = load_scenario(shipped_scenario(name)).system()
    p, drv = system.params, system.drive
    cw = meanfield.steady_means(p, drv.unmodulated())
    errors = []
    for eps in (1e-2, 1e-3):
        weak = replace(drv, mod_amplitudes=tuple(eps * e for e in drv.mod_amplitudes))
        orbit, _ = orbit_and_step(replace(system, drive=weak))
        exact = orbit.means.y[0] - cw.y
        linear = dynamics._linear_response(p, weak, cw)
        errors.append(np.max(np.abs(linear - exact)) / np.max(np.abs(exact)))
    assert errors[1] <= 1e-3
    assert errors[0] >= 8 * errors[1]


@pytest.mark.parametrize("fraction, rho", [
    (0.30, None), (0.50, None), (0.70, None), (0.90, None), (0.95, "1.057"),
    (1.00, None), (1.05, "1.034"), (1.10, None), (1.30, None)])
def test_linear_response_start_keeps_the_verdict(fig2_sum_scenario, fraction,
                                                 rho, monkeypatch):
    # A scan of omega_D over the sum resonance Omega_1 + Omega_2: the orbit
    # found from the linear response is the one the bare CW start finds,
    # attracting or not.
    scanned = at_sum_fraction(fig2_sum_scenario.system(), fraction)
    if rho is not None:
        with pytest.raises(UnstableSystemError, match=f"spectral radius {rho}"):
            orbit_and_step(scanned)
        bare_start(monkeypatch)
        with pytest.raises(UnstableSystemError, match=f"spectral radius {rho}"):
            orbit_and_step(scanned)
        return
    orbit, _ = orbit_and_step(scanned)
    bare_start(monkeypatch)
    reference, _ = orbit_and_step(scanned)
    assert orbit.rho < 1.0 and orbit.residual < dynamics.SHOOT_TOL
    y0 = reference.means.y[0]
    assert np.max(np.abs(orbit.means.y[0] - y0)) <= 1e-9 * np.max(np.abs(y0))
