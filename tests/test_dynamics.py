"""Drift/diffusion assembly, stability, and covariance propagation."""

import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov

from twintrap import cli, dynamics, meanfield, pipeline
from twintrap.dynamics import (BlowupError, UnstableSystemError,
                               build_diffusion, drift_samples,
                               evolve_covariance, lyapunov_steady, monodromy,
                               periodic_orbit, quasi_steady_orbit,
                               routh_hurwitz_stable, stability_check)
from twintrap.meanfield import ConvergenceError, state_vector, working_point
from twintrap.scenario import load_scenario, shipped_scenario

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
        assert np.array_equal(stacked[k], drift_samples(traj.point(k), p))
        assert np.allclose(stacked[k], reference_drift(traj.point(k), p),
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


def test_high_t_diffusion_close_below_exact(fig1_scenario):
    # coth(x/2) = 2/x + x/6 + ... : the classical 2kT/(hbar W) prefactor
    # sits just below the exact Bose factor, within a percent at
    # 100 mK x 11 MHz.
    p = fig1_scenario.system().params
    exact = np.diag(build_diffusion(p))
    classical = np.diag(build_diffusion(p, high_t=True))
    assert classical[1] <= exact[1]
    assert exact[1] / classical[1] - 1 < 1e-2
    # Optical entries are unaffected by the choice.
    assert np.allclose(classical[4:], exact[4:])


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


def test_fourth_order_convergence_sinusoidal_drift():
    """Step-halving shrinks the global error ~16x for the RK4 scheme."""
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


def test_quasi_steady_orbit_flags_convergence():
    rng = np.random.default_rng(15)
    a = random_stable_drift(rng, margin=2.0)
    d = random_psd(rng)
    v_inf = lyapunov_steady(a, d)
    omega_d = 2 * math.pi / 1.0          # nominal period 1.0
    n = 3200                              # 16 periods at dt = 0.005
    traj = evolve_covariance(v_inf, constant_half_grid(a, n), d, dt=0.005,
                             store_stride=10)
    orbit = quasi_steady_orbit(traj, omega_d)
    assert orbit.converged
    assert orbit.period_change < 1e-6
    # From an empty state the early transient is not converged over the
    # same horizon cut to two periods.
    short = evolve_covariance(np.zeros((8, 8)), constant_half_grid(a, 400),
                              d, dt=0.005, store_stride=10)
    assert not quasi_steady_orbit(short, omega_d).converged


# ------------------------------------------------------- periodic orbit

def omega1_units(system):
    """The system in the time unit 1/Omega_1, as the pipeline solves it."""
    return system.rescaled(float(system.params.omega_mech[0]))


def orbit_and_step(system):
    """Periodic orbit at 256 RK4 steps per drive period, and that step."""
    p, drv = system.params, system.drive
    dt = 2 * math.pi / drv.mod_frequency / 256
    return periodic_orbit(p, drv, dt), dt


def plain_gap(system, orbit, dt, n_periods):
    """Relative distance of a plain integration from CW after n periods
    to the orbit start, on the same half-step grid."""
    p, drv = system.params, system.drive
    period = 2 * math.pi / drv.mod_frequency
    end = meanfield.integrate_means(p, drv, (0.0, n_periods * period),
                                    dt / 2).point(-1)
    y0 = np.array(state_vector(orbit.means.point(0)))
    return np.max(np.abs(np.array(state_vector(end)) - y0)) / np.max(np.abs(y0))


def test_periodic_orbit_is_the_attractor(fig3_scenario):
    # rho ~ 0.61: sixty periods of plain integration reach the orbit.
    system = omega1_units(fig3_scenario.system())
    orbit, dt = orbit_and_step(system)
    assert orbit.rho < 0.7
    assert orbit.residual < dynamics.SHOOT_TOL
    assert len(orbit.means) == 513
    assert orbit.means.t[0] == 0.0
    assert math.isclose(orbit.means.t[-1], 2 * math.pi / system.drive.mod_frequency)
    assert plain_gap(system, orbit, dt, 60) < 1e-10


@pytest.mark.slow
def test_periodic_orbit_near_resonant_drive(fig2_half_scenario):
    # omega_D = Omega_1: plain Newton leaves the basin here, so the orbit
    # needs the amplitude continuation.  After 500 periods the plain
    # integration is still ~1e-6 short of periodic (rho ~ 0.97).
    system = omega1_units(fig2_half_scenario.system())
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
        return monodromy(base[None] + mod[None] * np.sin(3.0 * ts)[:, None, None], dt)

    coarse, mid, fine = run(50), run(100), run(200)
    assert np.linalg.norm(coarse - fine) / np.linalg.norm(mid - fine) >= 7.0


def test_monodromy_is_the_period_map_jacobian(fig2_sum_scenario):
    system = omega1_units(fig2_sum_scenario.system())
    p, drv = system.params, system.drive
    orbit, dt = orbit_and_step(system)
    phi = monodromy(drift_samples(orbit.means, p), dt)
    period = 2 * math.pi / drv.mod_frequency
    bare = orbit.means.bare_detuning

    def period_map(y):
        end = meanfield.integrate_means(p, drv, (0.0, period), dt / 2,
                                        initial=working_point(p, y, bare))
        return np.array(state_vector(end.point(-1)))

    y0 = np.array(state_vector(orbit.means.point(0)))
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
        orbit_and_step(omega1_units(load_scenario(path).system()))
    assert cli.main(["effective", "--scenario", str(path)]) == cli.EXIT_UNSTABLE
    assert "unstable" in capsys.readouterr().err


def test_stalled_shooting_raises_with_residual(fig2_sum_scenario, monkeypatch):
    monkeypatch.setattr(dynamics, "SHOOT_NEWTON_CAP", 0)
    with pytest.raises(ConvergenceError) as err:
        orbit_and_step(omega1_units(fig2_sum_scenario.system()))
    assert math.isfinite(err.value.residual) and err.value.residual > 0
