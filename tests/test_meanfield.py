"""Classical working point: fixed points and coherent trajectories."""

import dataclasses
import math

import numpy as np
import pytest
import yaml
from scipy.integrate import solve_ivp

from twintrap import cli, dynamics, meanfield, model, pipeline
from twintrap.dynamics import drift_samples
from twintrap.meanfield import (ConvergenceError, MeanTrajectory,
                                UnstableSystemError,
                                fixed_point_residual, integrate_means,
                                mean_windows, steady_means)
from twintrap.scenario import parse_scenario, shipped_scenario

from conftest import with_numerics


def cavity(means):
    """Complex control-mode means <a_i> of a mean state, (..., 2)."""
    return means.y[..., 4::2] + 1j * means.y[..., 5::2]


def positions(means):
    """Mean positions x_j in zero-point units, (..., 2)."""
    return means.y[..., 0:4:2]


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
    assert np.allclose(cavity(wp), expected, rtol=1e-9)


def test_fixed_point_geometry(fig1_scenario):
    # At a fixed point the momenta vanish.  Object 2 sits where the two
    # control modes (phi_22 = -phi_12) push in opposite directions, so its
    # radiation-pressure displacement cancels.
    system = fig1_scenario.system()
    wp = steady_means(system.params, system.drive)
    assert np.allclose(wp.y[1:4:2], 0.0, atol=1e-12)
    assert abs(positions(wp)[1]) < 1e-9 * abs(positions(wp)[0])


def test_coupling_definition(fig1_scenario):
    # G_ij = <a_i> (Gl_ij + 2 Gq_ij x_j)
    system = fig1_scenario.system()
    p = system.params
    wp = steady_means(p, system.drive)
    expected = cavity(wp)[:, None] * (p.g_lin
                                      + 2 * p.g_quad * positions(wp)[None, :])
    assert np.allclose(wp.coupling, expected, rtol=1e-12)


def test_frequency_shift_definition(fig1_scenario):
    # Omega~_j = Omega_j + 2 sum_i |<a_i>|^2 Gq_ij
    system = fig1_scenario.system()
    p = system.params
    wp = steady_means(p, system.drive)
    expected = p.omega_mech + 2 * (np.abs(cavity(wp)[:, None]) ** 2
                                   * p.g_quad).sum(axis=0)
    assert np.allclose(wp.omega_shifted, expected, rtol=1e-12)


def damped_fixed_point(params, drive, damping=0.5, tol=1e-12, max_iter=10_000):
    """Mean positions by the damped displacement iteration: the reference
    the closed form in ``steady_means`` replaced."""
    kappa = params.kappa_control()
    a = np.asarray(drive.cw_amplitudes) / (kappa + 1j * np.asarray(drive.detunings))
    n_phot = np.abs(a) ** 2
    x = np.zeros(2)
    for _ in range(max_iter):
        target = -(n_phot @ (params.g_lin + 2 * params.g_quad * x[None, :])) \
            / params.omega_mech
        residual = np.max(np.abs(target - x)) / (1 + np.max(np.abs(target)))
        x = (1 - damping) * x + damping * target
        if residual < tol:
            return x
    raise AssertionError(f"reference iteration stalled at {residual:.3e}")


@pytest.mark.parametrize("phase", [0.25, 0.1, 0.4])
def test_closed_form_matches_damped_iteration(phase):
    # fig1_cw sits at phase pi/4, where Gq_ij = 0 and Omega~ = Omega; at
    # 0.1 pi and 0.4 pi the quadratic coupling shifts Omega~ by +-(0.4 to
    # 38)e-6 relative across the grid.
    with open(shipped_scenario("fig1_cw")) as fh:
        doc = yaml.safe_load(fh)
    doc["cavity"]["phases_over_pi"] = [[phase, phase], [phase, -phase]]
    scenario = parse_scenario(doc)
    for detuning in np.linspace(0.2, 2.0, 200):
        system = scenario.system(detuning=float(detuning))
        wp = steady_means(system.params, system.drive)
        ref = damped_fixed_point(system.params, system.drive)
        assert np.max(np.abs(positions(wp) - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert fixed_point_residual(system.params, system.drive, wp) < 1e-10


def nonconfining(params, drive):
    """``params`` with a quadratic coupling strong and negative enough that
    Omega~_j = Omega_j + 2 sum_i n_i Gq_ij < 0 for both objects."""
    kappa = params.kappa_control()
    n_phot = np.abs(np.asarray(drive.cw_amplitudes)
                    / (kappa + 1j * np.asarray(drive.detunings))) ** 2
    g_quad = -np.full((2, 2), float(params.omega_mech.max() / n_phot.min()))
    return dataclasses.replace(params, g_quad=g_quad)


def stronger(drive, factor=100.0):
    """``drive`` with its control amplitudes scaled by ``factor``."""
    return dataclasses.replace(drive, cw_amplitudes=tuple(
        factor * e for e in drive.cw_amplitudes))


def test_nonconfining_trap_raises_unstable(fig1_scenario, monkeypatch, capsys):
    system = fig1_scenario.system()
    bad = nonconfining(system.params, system.drive)
    with pytest.raises(UnstableSystemError, match="Omega~"):
        steady_means(bad, system.drive)
    # A drive with a tenth of the amplitude has a hundredth of the photons,
    # so the same parameters confine it.
    states = solve_stack(bad, [stronger(system.drive, 0.1), system.drive])
    assert list(states.failures) == [1] and np.isfinite(states.eta_min[0])
    assert isinstance(states.failures[1], UnstableSystemError)

    derive = model.derive_params
    monkeypatch.setattr(model, "derive_params", lambda *args: nonconfining(
        derive(*args), system.drive))
    argv = ["steady", "--scenario", str(shipped_scenario("fig1_cw"))]
    assert cli.main(argv) == cli.EXIT_UNSTABLE
    assert "Omega~" in capsys.readouterr().err


def solve_stack(params, drives):
    """``steady_states`` of the drives' (B, 2) amplitude and detuning
    arrays."""
    return pipeline.steady_states(
        params, np.array([d.cw_amplitudes for d in drives]),
        np.array([d.detunings for d in drives]))


def assert_one_drive_results(scenario, params, drives, stacked):
    """Each slot of a stacked ``steady_states`` call is what the drive gets
    alone on ``scenario`` with ``params``, bit for bit; returns the
    messages of the failed slots."""
    fields = (stacked.eta_min, stacked.log_neg, stacked.nbar1, stacked.nbar2)
    assert [len(f) for f in fields] == [len(drives)] * 4
    assert stacked.cov.shape == (len(drives), 8, 8)
    messages = []
    for k, drive in enumerate(drives):
        got = [f[k] for f in fields]
        try:
            want_report, want_v = pipeline.steady_state(
                dataclasses.replace(scenario, params=params, drive=drive))
        except (UnstableSystemError, ConvergenceError) as exc:
            error = stacked.failures[k]
            assert type(error) is type(exc) and str(error) == str(exc)
            assert np.isnan(got).all() and np.isnan(stacked.cov[k]).all()
            messages.append(str(error))
            continue
        assert k not in stacked.failures
        assert got == [want_report.eta_min, want_report.log_neg,
                       want_report.nbar1, want_report.nbar2]
        assert np.array_equal(stacked.cov[k], want_v)
    assert len(stacked.failures) == len(messages)
    return messages


def test_stacked_steady_states_match_one_system_stacks(fig1_scenario,
                                                       fig3_scenario):
    # A trap that does not confine and a blue-detuned unstable drift among
    # stable drives: one stacked call per parameter set gives each drive
    # the steady state it gets alone, bit for bit, in input order.  The
    # parameters confine the sweep drives, every one stable, but not a
    # hundred times stronger drive.
    fig1 = [fig1_scenario.system(detuning=d).drive
            for d in fig1_scenario.sweep.values]
    base = fig1_scenario.system().drive
    params = nonconfining(fig1_scenario.params, stronger(base))
    blue = fig1_scenario.system(detuning=-1.0).drive
    drives = [*fig1[:6], stronger(base), blue, *fig1[6:]]
    messages = assert_one_drive_results(fig1_scenario, params, drives,
                                        solve_stack(params, drives))
    assert len(messages) == 2
    assert "Omega~" in messages[0] and "unstable" in messages[1]

    # On the shipped parameters, detuning 0 misses the Lyapunov bound.
    zero = fig1_scenario.system(detuning=0.0).drive
    drives = [*fig1[:6], blue, zero, *fig1[6:]]
    messages = assert_one_drive_results(
        fig1_scenario, fig1_scenario.params, drives,
        solve_stack(fig1_scenario.params, drives))
    assert len(messages) == 2
    assert "unstable" in messages[0] and "Lyapunov" in messages[1]

    fig3 = [fig3_scenario.system(detuning=d).drive.unmodulated()
            for d in (1.0, 1.5)]
    assert not assert_one_drive_results(
        fig3_scenario, fig3_scenario.params, fig3,
        solve_stack(fig3_scenario.params, fig3))


def test_stack_with_no_confining_point_fails_every_slot(fig1_scenario):
    drive = fig1_scenario.system().drive
    drives = [drive, stronger(drive, 2.0)]
    states = solve_stack(nonconfining(fig1_scenario.params, drive), drives)
    assert list(states.failures) == [0, 1]
    assert all(type(error) is UnstableSystemError and "Omega~" in str(error)
               for error in states.failures.values())
    assert np.isnan(states.eta_min).all() and np.isnan(states.cov).all()


def test_lyapunov_bound_miss_names_the_input_system(fig1_scenario,
                                                    monkeypatch):
    # The stacked Lyapunov solve sees only the confined, stable drifts; a
    # miss must still land in the slot of its own drive, and leave the
    # other slots as they are.
    base = fig1_scenario.system().drive
    params = nonconfining(fig1_scenario.params, stronger(base))
    blue = fig1_scenario.system(detuning=-1.0).drive
    monkeypatch.setattr(dynamics, "LYAPUNOV_RTOL", 1e-30)
    states = solve_stack(params, [stronger(base), base, blue])
    assert list(states.failures) == [0, 1, 2]
    unconfined, missed, unstable = states.failures.values()
    assert isinstance(unconfined, UnstableSystemError)
    assert "Omega~" in str(unconfined)
    assert isinstance(missed, ConvergenceError) and missed.residual > 0
    assert str(missed) == (f"Lyapunov residual {missed.residual:.3e} above "
                           "bound 1e-30")
    assert isinstance(unstable, UnstableSystemError)
    assert "unstable" in str(unstable)


def assert_same_point(got, want):
    for field in dataclasses.fields(MeanTrajectory):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), \
            field.name


def test_one_constructor_serves_points_and_trajectories(fig2_sum_scenario,
                                                        fig1_scenario):
    system = fig2_sum_scenario.system()
    p, drv = system.params, system.drive
    period = 2 * math.pi / drv.mod_frequency
    traj = integrate_means(p, drv, (0.0, period), period / 64)
    assert traj.y.shape == (129, 8)
    for k in (0, 17, 128):
        point = MeanTrajectory.from_state(p, traj.t[k], traj.y[k],
                                          traj.bare_detuning)
        assert point.y.shape == (8,) and point.t.ndim == 0
        assert_same_point(point, traj[k])

    system = fig1_scenario.system()
    wp = steady_means(system.params, system.drive)
    assert_same_point(wp, MeanTrajectory.from_state(
        system.params, wp.t, wp.y, wp.bare_detuning))
    with pytest.raises(TypeError):
        len(wp)


# -------------------------------------------------------------- dynamics

def test_integration_holds_fixed_point(fig1_scenario):
    system = fig1_scenario.system()
    p, drv = system.params, system.drive
    wp = steady_means(p, drv)
    dt = 2 * math.pi / p.omega_mech[0] / 200
    traj = integrate_means(p, drv, (0.0, 500 * dt), dt, initial=wp)
    assert np.allclose(cavity(traj)[-1], cavity(wp), rtol=1e-8)
    assert np.allclose(positions(traj)[-1], positions(wp), rtol=1e-8)


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
    last = cavity(traj)[n - 1]
    one_before = cavity(traj)[n - 1 - 512]
    assert np.allclose(last, one_before, rtol=5e-2)
    # The cavity means respond to the modulation at a visible depth.
    tail = cavity(traj)[n - 513:, 1]
    assert (abs(tail).max() - abs(tail).min()) / abs(tail).mean() > 0.01


def fig2_sum_at_phase(phase):
    """fig2_sum with its cavity phases set to +-``phase`` pi; away from the
    shipped pi/4 the quadratic coupling Gq is nonzero."""
    with open(shipped_scenario("fig2_sum")) as fh:
        doc = yaml.safe_load(fh)
    doc["cavity"]["phases_over_pi"] = [[phase, phase], [phase, -phase]]
    return parse_scenario(doc).system()


def reference_rhs(p, drv, bare):
    """The coherent equations in complex NumPy form, rhs(t, y)."""
    kappa = p.kappa_control()

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

    return rhs


def test_integration_matches_solve_ivp():
    # Reference: ``reference_rhs`` integrated by an adaptive 8th-order
    # solver over five drive periods, at every sample, Hermite midpoints
    # included.  At phase 0.1 pi, Gq ~ 1.7e-12 Omega_1 shifts Omega~ by
    # 1.5e-6.
    for phase in (0.25, 0.1):
        system = fig2_sum_at_phase(phase)
        p, drv = system.params, system.drive
        wp0 = steady_means(p, drv.unmodulated())
        period = 2 * math.pi / drv.mod_frequency
        traj = integrate_means(p, drv, (0.0, 5 * period), period / 256,
                               initial=wp0)
        y = traj.y
        ref = solve_ivp(reference_rhs(p, drv, wp0.bare_detuning),
                        (0.0, 5 * period), y[0], method="DOP853",
                        rtol=1e-12, atol=1e-12 * np.max(np.abs(y[0])),
                        t_eval=traj.t).y.T
        assert np.max(np.abs(y - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_drift_is_the_mean_field_jacobian():
    # The fluctuation drift at a mean state is the Jacobian of the coherent
    # equations there, in quadratures u = S y.  At phase 0.1 pi the Gq terms
    # move Omega~_j by 1.5e-6 and G_ij by 1.5e-6 relative (2 Gq x_j against
    # Gl); the bound is far below both.  The RHS is cubic in y and its cubic
    # terms carry Gq, so a large difference step costs no accuracy.
    system = fig2_sum_at_phase(0.1)
    p, drv = system.params, system.drive
    period = 2 * math.pi / drv.mod_frequency
    point = integrate_means(p, drv, (0.0, period), period / 256)[77]
    rhs = reference_rhs(p, drv, point.bare_detuning)
    jac = np.empty((8, 8))
    for k in range(8):
        step = np.zeros(8)
        step[k] = 0.1
        jac[:, k] = (rhs(point.t, point.y + step)
                     - rhs(point.t, point.y - step)) / 0.2
    s = np.array([1.0] * 4 + [math.sqrt(2)] * 4)
    drift = drift_samples(point, p)
    assert np.max(np.abs(s[:, None] * jac / s[None, :] - drift)) \
        < 1e-10 * np.max(np.abs(drift))


def test_windows_stitch_into_the_whole_grid(fig2_sum_scenario):
    # 100 steps in windows of 7: the last window is 2 steps long.
    system = fig2_sum_scenario.system()
    p, drv = system.params, system.drive
    dt = 2 * math.pi / drv.mod_frequency / 64
    whole = integrate_means(p, drv, (0.0, 100 * dt), dt)
    windows = list(mean_windows(p, drv, (0.0, 100 * dt), dt, window_steps=7))
    assert [len(w) for w in windows] == [15] * 14 + [5]
    for field in ("t", "y", "detuning", "coupling", "omega_shifted"):
        parts = [getattr(w, field) for w in windows]
        stitched = np.concatenate([parts[0]] + [part[1:] for part in parts[1:]])
        assert np.array_equal(stitched, getattr(whole, field)), field
    for before, after in zip(windows, windows[1:]):
        assert np.array_equal(before.y[-1], after.y[0])


def test_hermite_midpoints_are_fourth_order():
    # Largest midpoint error against the step ends of a run with 8x the
    # steps, which sit at every coarse and mid midpoint time.
    system = fig2_sum_at_phase(0.25)
    p, drv = system.params, system.drive
    period = 2 * math.pi / drv.mod_frequency
    wp0 = steady_means(p, drv.unmodulated())

    def run(n_steps):
        return integrate_means(p, drv, (0.0, period), period / n_steps,
                               initial=wp0).y

    coarse, mid, fine = run(32), run(64), run(256)
    ratio = (np.max(np.abs(coarse[1::2] - fine[8::16]))
             / np.max(np.abs(mid[1::2] - fine[4::8])))
    assert ratio >= 12.0


def test_evolve_steps_the_means_once_per_covariance_step(fig2_sum_scenario,
                                                         monkeypatch):
    # N covariance steps read 2N + 1 drift samples: N RK4 steps of the
    # means (4 RHS calls each) plus the final slope.
    calls = 0
    make_rhs = meanfield._scalar_rhs

    def counting(params, bare):
        rhs = make_rhs(params, bare)

        def counted(*args):
            nonlocal calls
            calls += 1
            return rhs(*args)

        return counted

    monkeypatch.setattr(meanfield, "_scalar_rhs", counting)
    result = pipeline.evolve(with_numerics(fig2_sum_scenario, t_max_tau=2.0,
                                           steps_per_period=64,
                                           store_per_period=64))
    n_steps = len(result.cov) - 1
    assert n_steps == 256
    assert calls == 4 * n_steps + 1


# ------------------------------------------------- the loop's float contract

@pytest.fixture
def float_only_rhs(monkeypatch):
    """Every RHS call of the mean-field loop asserts that each of its
    arguments is a Python float, not a NumPy scalar."""
    make_rhs = meanfield._scalar_rhs

    def checking(params, bare):
        rhs = make_rhs(params, bare)

        def checked(*args):
            assert all(type(arg) is float for arg in args), \
                [type(arg).__name__ for arg in args]
            return rhs(*args)

        return checked

    monkeypatch.setattr(meanfield, "_scalar_rhs", checking)


def numpy_scalar_drive(drive):
    """The same drive with every amplitude and the modulation frequency a
    NumPy float64."""
    return dataclasses.replace(
        drive, cw_amplitudes=tuple(np.float64(e) for e in drive.cw_amplitudes),
        mod_amplitudes=tuple(np.float64(e) for e in drive.mod_amplitudes),
        mod_frequency=np.float64(drive.mod_frequency))


def test_windows_run_on_floats_from_numpy_scalar_inputs(fig2_sum_scenario,
                                                        float_only_rhs):
    system = fig2_sum_scenario.system()
    p, drv = system.params, system.drive
    dt = 2 * math.pi / drv.mod_frequency / 64
    floats = list(mean_windows(p, drv, (0.0, 40 * dt), dt, window_steps=16))
    scalars = list(mean_windows(
        p, numpy_scalar_drive(drv), (np.float64(0.0), np.float64(40 * dt)),
        np.float64(dt), window_steps=16))
    assert len(scalars) == len(floats) == 3
    for got, want in zip(scalars, floats):
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(got.y, want.y)


def test_evolve_runs_the_means_on_floats(fig2_sum_scenario, float_only_rhs):
    # The scenario comes from its YAML file, whose trap frequencies (and so
    # its modulation frequency) are derived in NumPy.
    system = with_numerics(fig2_sum_scenario, t_max_tau=2.0)
    floats = pipeline.evolve(system)
    scalars = pipeline.evolve(
        dataclasses.replace(system, drive=numpy_scalar_drive(system.drive)))
    assert np.array_equal(scalars.cov.v, floats.cov.v)
    assert np.array_equal(scalars.eta_min, floats.eta_min)


def test_periodic_orbit_runs_the_means_on_floats(fig2_half_scenario,
                                                 float_only_rhs):
    system = fig2_half_scenario.system()
    p, drv = system.params, system.drive
    floats = dynamics.periodic_orbit(p, drv, 256)
    scalars = dynamics.periodic_orbit(p, numpy_scalar_drive(drv),
                                      np.int64(256))
    assert np.array_equal(scalars.means.y, floats.means.y)
    assert (scalars.rho, scalars.residual) == (floats.rho, floats.residual)
