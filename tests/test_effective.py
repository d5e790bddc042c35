"""Adiabatic elimination: effective coupling J and the reduced model."""

import math

import numpy as np
import pytest

from twintrap import meanfield, pipeline
from twintrap.effective import (HarmonicDecomposition,
                                effective_J_series, modulation_harmonics,
                                reduced_steady_state, resonance_advisor,
                                rwa_classify, weak_coupling_ok)
from twintrap.gaussian import eta_min


# ------------------------------------------------------------- J formula

def test_effective_J_literal_formula(fig1_scenario):
    system = fig1_scenario.system()
    p = system.params
    wp = meanfield.steady_means(p, system.drive)
    kappa = p.kappa_control()
    expect = np.zeros((2, 2))
    for j in range(2):
        for el in range(2):
            for i in range(2):
                gg = wp.coupling[i, j] * np.conj(wp.coupling[i, el])
                expect[j, el] += (kappa[i] * gg.imag
                                  + wp.detuning[i] * gg.real) \
                    / (kappa[i] ** 2 + wp.detuning[i] ** 2)
    got = effective_J_series(wp, p)
    assert got.shape == (2, 2)
    assert np.allclose(got, 0.5 * (expect + expect.T), rtol=1e-12)


def test_si_coupling_does_not_depend_on_the_time_unit(fig1_scenario):
    # J is a rate: J computed in units of 1/scale, times scale, is the same
    # SI coupling for any scale, and equals what effective_report gives.
    system = fig1_scenario.system()
    w1 = float(system.params.omega_mech[0])
    report = pipeline.effective_report(system)
    for scale in (w1, 0.1 * w1):
        sys_s = system.rescaled(scale)
        wp = meanfield.steady_means(sys_s.params, sys_s.drive)
        j_si = effective_J_series(wp, sys_s.params) * scale
        assert np.allclose(j_si, report.j_dc, rtol=1e-9, atol=0.0)


def one_period_means(scenario):
    """Mean-field orbit over one drive period from the CW fixed point, 65 samples."""
    system = scenario.system()
    p, drv = system.params, system.drive
    period = 2 * math.pi / drv.mod_frequency
    return p, meanfield.integrate_means(p, drv, (0.0, period), period / 64)


def test_J_is_symmetric(fig2_sum_scenario):
    p, traj = one_period_means(fig2_sum_scenario)
    for k in range(len(traj)):
        j = effective_J_series(traj.point(k), p)
        assert np.array_equal(j, j.T)


def test_series_matches_pointwise(fig2_sum_scenario):
    p, traj = one_period_means(fig2_sum_scenario)
    assert len(traj) == 65
    series = effective_J_series(traj, p)
    assert series.shape == (len(traj), 2, 2)
    for k in (0, 17, 64):
        assert np.array_equal(series[k], effective_J_series(traj.point(k), p))


# ------------------------------------------------------------- harmonics

def test_harmonic_projection_recovers_synthetic_series():
    omega_d = 5.0
    t = np.linspace(0.0, 2 * math.pi / omega_d, 513)
    c0 = np.array([[1.0, 0.4], [0.4, -0.2]])
    c1 = np.array([[0.0, 1.5], [1.5, 0.3]])
    c2 = np.array([[0.2, -0.6], [-0.6, 0.0]])
    series = (c0[None] + c1[None] * np.cos(omega_d * t)[:, None, None]
              + c2[None] * np.cos(2 * omega_d * t)[:, None, None])
    h = modulation_harmonics(t, series, omega_d)
    assert np.allclose(h.dc, c0, atol=1e-9)
    assert np.allclose(h.first, c1, atol=1e-9)
    assert np.allclose(h.second, c2, atol=1e-9)
    assert h.residual < 1e-9


def test_harmonics_reject_partial_period():
    t = np.linspace(0.0, 0.7, 100)
    with pytest.raises(ValueError):
        modulation_harmonics(t, np.ones((100, 2, 2)), omega_d=5.0)


def test_harmonics_reject_aperiodic_series():
    omega_d = 5.0
    t = np.linspace(0.0, 2 * math.pi / omega_d, 257)
    drifting = np.ones((257, 2, 2)) * np.linspace(1, 2, 257)[:, None, None]
    with pytest.raises(ValueError):
        modulation_harmonics(t, drifting, omega_d)


# ----------------------------------------------------------- resonances

def test_resonance_advisor():
    adv = resonance_advisor(3.0, 5.0)
    assert adv["omega_sum"] == 8.0
    assert adv["omega_half"] == 4.0


def test_rwa_classification_sum_drive():
    tags = {(t.process, t.modes): t for t in rwa_classify(1.0, 1.0, 2.0)}
    tms = tags[("two-mode-squeeze", (1, 2))]
    assert tms.resonant and tms.harmonic == 1
    hop = tags[("hopping", (1, 2))]
    assert hop.resonant and hop.harmonic == 0


def test_rwa_classification_half_drive():
    tags = {(t.process, t.modes): t for t in rwa_classify(1.0, 1.0, 1.0)}
    assert tags[("two-mode-squeeze", (1, 2))].harmonic == 2


def test_rwa_off_resonant_drive():
    tags = {(t.process, t.modes): t for t in rwa_classify(1.0, 1.0, 0.74)}
    assert not tags[("two-mode-squeeze", (1, 2))].resonant


def test_weak_coupling_flag(fig1_scenario):
    system = fig1_scenario.system()
    wp = meanfield.steady_means(system.params, system.drive)
    # The shipped microdisk point is strongly coupled: G > kappa.
    assert not weak_coupling_ok(wp, system.params)
    weak = meanfield.steady_means(
        system.params,
        type(system.drive)(trap_amplitude=system.drive.trap_amplitude,
                           cw_amplitudes=tuple(
                               1e-3 * c for c in system.drive.cw_amplitudes),
                           detunings=system.drive.detunings))
    assert weak_coupling_ok(weak, system.params)


# ------------------------------------------------------- reduced model

def flat_harmonics(j_tms=0.0, j_dc=0.0):
    z = np.zeros((2, 2))
    dc = np.array([[0.0, j_dc], [j_dc, 0.0]])
    first = np.array([[0.0, j_tms], [j_tms, 0.0]])
    return HarmonicDecomposition(dc=dc, first=first, second=z, residual=0.0)


def test_reduced_model_thermalizes_without_coupling():
    h = flat_harmonics()
    damping = np.array([0.3, 0.3])
    n_bath = np.array([2.0, 2.0])
    v = reduced_steady_state(h, 1.0, 1.0, damping, n_bath, omega_d=2.0)
    assert np.allclose(v, 2.5 * np.eye(4), rtol=1e-10)


def test_reduced_model_entangles_below_threshold():
    # Two-mode squeezing at rate J against damping gamma: entangled steady
    # state for 0 < 2J < gamma at low bath occupancy.
    damping = np.array([0.4, 0.4])
    n_bath = np.array([0.0, 0.0])
    h = flat_harmonics(j_tms=0.15)
    v = reduced_steady_state(h, 1.0, 1.0, damping, n_bath, omega_d=2.0)
    assert eta_min(v) < 0.5


def test_reduced_model_threshold_instability():
    damping = np.array([0.4, 0.4])
    n_bath = np.array([0.0, 0.0])
    h = flat_harmonics(j_tms=0.5)    # 2J > gamma: no steady state
    with pytest.raises(RuntimeError):
        reduced_steady_state(h, 1.0, 1.0, damping, n_bath, omega_d=2.0)


def test_pipeline_effective_report(fig2_sum_scenario):
    system = fig2_sum_scenario.system()
    report = pipeline.effective_report(system)
    # Sum-frequency modulation: first harmonic dominates the second.
    assert abs(report.j_first[0, 1]) > abs(report.j_second[0, 1])
    # Projected on the periodic orbit at the drive phase, three harmonics
    # hold J(t) to under 1% (a tail cut off the drive phase leaves ~10%).
    assert report.harmonic_residual < 0.02
    assert report.omega_sum == pytest.approx(
        float(system.params.omega_mech.sum()))
    assert not report.weak_coupling
