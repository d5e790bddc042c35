"""Classical working point: fixed points and coherent trajectories."""

import math

import numpy as np
from scipy.integrate import solve_ivp

from twintrap.meanfield import fixed_point_residual, integrate_means, steady_means


# ------------------------------------------------------------ fixed point

def test_cw_fixed_point_residual(fig1_scenario):
    system = fig1_scenario.system()
    wp = steady_means(system.params, system.drive)
    assert fixed_point_residual(system.params, system.drive, wp) < 1e-10


def test_fixed_point_hits_target_detuning(fig1_scenario):
    # The bare detunings are back-computed so that the effective detuning
    # equals the requested value at the fixed point.
    system = fig1_scenario.system()
    wp = steady_means(system.params, system.drive)
    assert np.allclose(wp.detuning, system.drive.detunings, rtol=1e-10)


def test_cavity_means_closed_form(fig1_scenario):
    # a_i = E_i / (kappa_i + i Delta_i) once the detuning is effective.
    system = fig1_scenario.system()
    p, drv = system.params, system.drive
    wp = steady_means(p, drv)
    kappa = p.kappa_control()
    expected = np.array([drv.cw_amplitudes[i] /
                         (kappa[i] + 1j * wp.detuning[i]) for i in range(2)])
    assert np.allclose(wp.a, expected, rtol=1e-9)


def test_fixed_point_geometry(fig1_scenario):
    # At a fixed point the momenta vanish.  Object 2 sits where the two
    # control modes (phi_22 = -phi_12) push in opposite directions, so its
    # radiation-pressure displacement cancels.
    system = fig1_scenario.system()
    wp = steady_means(system.params, system.drive)
    assert np.allclose(wp.p, 0.0, atol=1e-12)
    assert abs(wp.x[1]) < 1e-9 * abs(wp.x[0])


def test_coupling_definition(fig1_scenario):
    # G_ij = <a_i> (Gl_ij + 2 Gq_ij x_j)
    system = fig1_scenario.system()
    p = system.params
    wp = steady_means(p, system.drive)
    expected = wp.a[:, None] * (p.g_lin + 2 * p.g_quad * wp.x[None, :])
    assert np.allclose(wp.coupling, expected, rtol=1e-12)


def test_frequency_shift_definition(fig1_scenario):
    # Omega~_j = Omega_j + 2 sum_i |<a_i>|^2 Gq_ij
    system = fig1_scenario.system()
    p = system.params
    wp = steady_means(p, system.drive)
    expected = p.omega_mech + 2 * (np.abs(wp.a[:, None]) ** 2
                                   * p.g_quad).sum(axis=0)
    assert np.allclose(wp.omega_shifted, expected, rtol=1e-12)


# -------------------------------------------------------------- dynamics

def test_integration_holds_fixed_point(fig1_scenario):
    system = fig1_scenario.system()
    p, drv = system.params, system.drive
    wp = steady_means(p, drv)
    dt = 2 * math.pi / p.omega_mech[0] / 200
    traj = integrate_means(p, drv, (0.0, 500 * dt), dt, initial=wp)
    assert np.allclose(traj.a[-1], wp.a, rtol=1e-8)
    assert np.allclose(traj.x[-1], wp.x, rtol=1e-8)


def test_modulated_means_oscillate_at_drive_period(fig2_sum_scenario):
    system = fig2_sum_scenario.system()
    p, drv = system.params, system.drive
    wp0 = steady_means(p, drv.unmodulated())
    period = 2 * math.pi / drv.mod_frequency
    dt = period / 256
    # After many periods the mean orbit approaches a limit cycle; the
    # residual envelope decays only on the slow mechanical-damping scale,
    # so the period-to-period change is small but not yet at tolerance 0.
    traj = integrate_means(p, drv, (0.0, 400 * period), dt, initial=wp0)
    n = len(traj)
    last = traj.a[n - 1]
    one_before = traj.a[n - 1 - 256]
    assert np.allclose(last, one_before, rtol=5e-2)
    # The cavity means respond to the modulation at a visible depth.
    tail = traj.a[n - 257:, 1]
    assert (abs(tail).max() - abs(tail).min()) / abs(tail).mean() > 0.01


def test_integration_matches_solve_ivp(fig2_sum_scenario):
    # Reference: the coherent equations in complex NumPy form, integrated by
    # an adaptive 8th-order solver, over five drive periods (Omega_1 = 1).
    system = fig2_sum_scenario.system()
    sys_n = system.rescaled(float(system.params.omega_mech[0]))
    p, drv = sys_n.params, sys_n.drive
    wp0 = steady_means(p, drv.unmodulated())
    kappa, bare = p.kappa_control(), wp0.bare_detuning

    def rhs(t, y):
        x, mom, a = y[0:4:2], y[1:4:2], y[4::2] + 1j * y[5::2]
        delta = bare + p.g_lin @ x + p.g_quad @ x**2
        e_t = np.array([drv.amplitude(1, t), drv.amplitude(2, t)])
        da = -(kappa + 1j * delta) * a + e_t
        out = np.empty(8)
        out[0:4:2] = p.omega_mech * mom
        out[1:4:2] = -p.omega_mech * x - p.gamma * mom \
            - np.abs(a) ** 2 @ (p.g_lin + 2 * p.g_quad * x[None, :])
        out[4::2], out[5::2] = da.real, da.imag
        return out

    period = 2 * math.pi / drv.mod_frequency
    traj = integrate_means(p, drv, (0.0, 5 * period), period / 256,
                           initial=wp0)
    y = np.column_stack([traj.x[:, 0], traj.p[:, 0], traj.x[:, 1],
                         traj.p[:, 1], traj.a.real[:, 0], traj.a.imag[:, 0],
                         traj.a.real[:, 1], traj.a.imag[:, 1]])
    ref = solve_ivp(rhs, (0.0, 5 * period), y[0], method="DOP853",
                    rtol=1e-12, atol=1e-12 * np.max(np.abs(y[0])),
                    t_eval=traj.t).y.T
    assert np.max(np.abs(y - ref)) <= 1e-8 * np.max(np.abs(ref))
