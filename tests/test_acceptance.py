"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Each test prints a single ``[PASS]``/``[FAIL]`` verdict with the measured
numbers before asserting, so a failing criterion still reports what was
actually achieved.  Run with ``pytest -s tests/test_acceptance.py`` to see
the verdict lines for passing criteria too.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from twintrap import dynamics, effective, gaussian, meanfield, pipeline, readout
from twintrap.model import ObjectSpec, derive_mass
from twintrap.scenario import load_scenario, shipped_scenario

from conftest import tail_window, two_mode_squeezed_cov, with_numerics


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


# 1 ------------------------------------------------------------------------

def test_acceptance_01_parameter_regeneration():
    silica = dict(density=2201.0, relative_permittivity=2.1)
    disk = ObjectSpec(kind="microdisk", diameter=20e-6, thickness=150e-9,
                      **silica)
    sphere = ObjectSpec(kind="nanosphere", radius=100e-9, **silica)
    m_disk = derive_mass(disk)
    m_sphere = derive_mass(sphere)
    err_disk = abs(m_disk - 1e-13) / 1e-13
    err_sphere = abs(m_sphere - 1e-17) / 1e-17
    verdict("01 parameter regeneration",
            err_disk < 0.05 and err_sphere < 0.10,
            f"disk mass {m_disk:.4e} kg ({err_disk:.1%} from 1e-13), "
            f"sphere mass {m_sphere:.4e} kg ({err_sphere:.1%} from 1e-17)")


# 2 ------------------------------------------------------------------------

def test_acceptance_02_lyapunov_correctness():
    rng = np.random.default_rng(2)
    worst_res, worst_eig = 0.0, np.inf
    for _ in range(1000):
        m = rng.normal(size=(8, 8))
        a = m - (np.max(np.linalg.eigvals(m).real) + 0.5) * np.eye(8)
        b = rng.normal(size=(8, 8))
        d = b @ b.T
        v = dynamics.lyapunov_steady(a, d)
        res = np.linalg.norm(a @ v + v @ a.T + d) / np.linalg.norm(d)
        worst_res = max(worst_res, res)
        worst_eig = min(worst_eig, np.min(np.linalg.eigvalsh(v)))
    verdict("02 Lyapunov correctness",
            worst_res < 1e-10 and worst_eig > -1e-10,
            f"worst residual {worst_res:.2e}, "
            f"worst V eigenvalue {worst_eig:.2e} over 1000 draws")


# 3 ------------------------------------------------------------------------

def test_acceptance_03_entanglement_oracle():
    worst = 0.0
    for r in (0.1, 0.5, 1.0):
        v = two_mode_squeezed_cov(r)
        worst = max(worst,
                    abs(gaussian.eta_min(v) - math.exp(-2 * r) / 2),
                    abs(gaussian.log_negativity(v) - 2 * r))
    verdict("03 entanglement oracle", worst < 1e-9,
            f"max deviation {worst:.2e} for r in {{0.1, 0.5, 1.0}}")


# 4 ------------------------------------------------------------------------

def test_acceptance_04_cw_regression(fig1_scenario, fig1_steady):
    report, _ = fig1_steady
    nbars = []
    for value in fig1_scenario.sweep.values:
        try:
            rep, _ = pipeline.steady_state(fig1_scenario.system(detuning=value))
            nbars.append((value, rep.nbar1))
        except dynamics.UnstableSystemError:
            nbars.append((value, np.inf))
    best = min(nbars, key=lambda kv: kv[1])[0]
    ok = (report.stable and 0.5 <= report.eta_min <= 0.75
          and report.nbar1 < 5 and report.nbar2 < 5
          and 0.8 <= best <= 1.2)
    verdict("04 CW regression", ok,
            f"eta_min {report.eta_min:.4f}, nbar ({report.nbar1:.3f}, "
            f"{report.nbar2:.3f}), occupancy minimum at detuning {best:g} Omega")


# 5 ------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_05_modulated_regression(fig1_steady, fig2_sum_run,
                                            fig2_half_run):
    cw_eta = fig1_steady[0].eta_min
    sum_eta = fig2_sum_run.eta_min[tail_window(fig2_sum_run)].min()
    sum_en = fig2_sum_run.log_neg[tail_window(fig2_sum_run)].max()
    half_eta = fig2_half_run.eta_min[tail_window(fig2_half_run)].min()
    half_en = fig2_half_run.log_neg[tail_window(fig2_half_run)].max()
    ok = sum_eta < 0.5 and cw_eta >= 0.5 and half_eta < 0.5 and half_en <= sum_en
    verdict("05 modulated regression", ok,
            f"sum-frequency eta {sum_eta:.4f} (E_N {sum_en:.4f}), "
            f"no modulation eta {cw_eta:.4f}, "
            f"half-frequency eta {half_eta:.4f} (E_N {half_en:.4f})")


# 6 ------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_06_floquet_periodicity(fig2_sum_run, fig2_sum_scenario):
    runs = {n: pipeline.evolve(with_numerics(fig2_sum_scenario, t_max_tau=5.0,
                                             steps_per_period=n))
            for n in (200, 400, 800)}
    e1 = np.linalg.norm(runs[200].cov.v[-1] - runs[800].cov.v[-1])
    e2 = np.linalg.norm(runs[400].cov.v[-1] - runs[800].cov.v[-1])
    ratio = e1 / e2
    change = fig2_sum_run.orbit.period_change
    ok = fig2_sum_run.orbit.converged and change < 1e-3 and ratio >= 7.0
    verdict("06 Floquet periodicity", ok,
            f"period-to-period change {change:.2e}, "
            f"step-halving error ratio {ratio:.1f} (4th order ~ 16)")


# 7 ------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_07_physicality(fig1_steady, fig2_sum_run, fig2_half_run,
                                   fig3_run_suppressed, fig3_run_full_recoil):
    # One stacked call per trajectory; it checks every sample as a
    # one-matrix call would.
    worst = min(float(gaussian.symplectic_spectrum(v).min())
                for v in [fig1_steady[1]] + [run.cov.v for run in (
                    fig2_sum_run, fig2_half_run, fig3_run_suppressed,
                    fig3_run_full_recoil)])
    verdict("07 physicality", worst >= 0.5 - 1e-6,
            f"smallest symplectic eigenvalue {worst:.9f} across all shipped "
            f"trajectories (bound 0.5 - 1e-6)")


# 8 ------------------------------------------------------------------------

def _weak_system():
    """Fig.-2 scenario with control drives scaled so max |G| = 0.1 kappa."""
    system = load_scenario(shipped_scenario("fig2_sum")).system()
    p = system.params
    wp = meanfield.steady_means(p, system.drive.unmodulated())
    scale = 0.1 * float(np.min(p.kappa_control())) / float(
        np.max(np.abs(wp.coupling)))
    drive = replace(system.drive,
                    cw_amplitudes=tuple(scale * e
                                        for e in system.drive.cw_amplitudes),
                    mod_amplitudes=tuple(scale * e
                                         for e in system.drive.mod_amplitudes))
    return replace(system, drive=drive)


def _mean_orbit(weak, omega_d):
    """The periodic mean-field orbit over one drive period, on the half-step grid."""
    drive = replace(weak.drive, mod_frequency=omega_d)
    period = 2 * math.pi / omega_d
    n_per = int(math.ceil(period
                          / pipeline.timestep(replace(weak, drive=drive))))
    dt = period / n_per
    return dynamics.periodic_orbit(weak.params, drive, n_per).means, dt, n_per


def _full_verdict(weak, orbit, dt, n_per):
    """Quasi-steady verdict of the 8x8 model from its Floquet period map."""
    p = weak.params
    a_half = dynamics.drift_samples(orbit, p)
    d = dynamics.build_diffusion(p)
    phi, q = dynamics.period_map(a_half, dt, d)
    if np.max(np.abs(np.linalg.eigvals(phi))) >= 1 - 1e-9:
        return "unstable"
    v0 = dynamics.periodic_covariance(phi, q)
    traj = dynamics.evolve_covariance(0.5 * (v0 + v0.T), a_half, d, dt,
                                      store_stride=max(1, n_per // 32))
    eta = min(gaussian.eta_min(gaussian.mechanical_block(v)) for v in traj.v)
    return "entangled" if eta < 0.5 else "separable"


def _reduced_verdict(weak, orbit, omega_d):
    p = weak.params
    j_t = effective.effective_J_series(orbit, p)
    harm = effective.modulation_harmonics(orbit.t, j_t, omega_d)
    # Bath occupation reproducing the full model's momentum diffusion D_pp
    # under gamma damping alone: D_pp = (2 n_bath + 1) gamma.
    d_pp = np.diag(dynamics.build_diffusion(p))[[1, 3]]
    n_bath = d_pp / (2 * p.gamma) - 0.5
    w1, w2 = orbit.omega_shifted.mean(axis=0)
    try:
        v = effective.reduced_steady_state(harm, w1, w2, p.gamma, n_bath,
                                           omega_d)
    except RuntimeError:
        return "unstable"
    return "entangled" if gaussian.eta_min(v) < 0.5 else "separable"


def test_acceptance_08_effective_model_consistency(fig2_sum_scenario):
    weak = _weak_system()
    wsum = float(weak.params.omega_mech.sum())
    grid = np.array([0.80, 0.85, 0.90, 0.95, 1.00,
                     1.05, 1.10, 1.15, 1.18, 1.20])
    mismatches = []
    for frac in grid:
        orbit, dt, n_per = _mean_orbit(weak, frac * wsum)
        full = _full_verdict(weak, orbit, dt, n_per)
        reduced = _reduced_verdict(weak, orbit, frac * wsum)
        if full != reduced:
            mismatches.append((frac, full, reduced))
    report = pipeline.effective_report(fig2_sum_scenario.system())
    j1, j2 = abs(report.j_first[0, 1]), abs(report.j_second[0, 1])
    ok = not mismatches and j1 > j2
    verdict("08 effective-model consistency", ok,
            f"verdicts agree at {len(grid) - len(mismatches)}/{len(grid)} "
            f"drive frequencies (mismatches: {mismatches or 'none'}); "
            f"|J1| {j1:.3e} > |J2| {j2:.3e}")


# 9 ------------------------------------------------------------------------

def test_acceptance_09_stability_equivalence():
    rng = np.random.default_rng(9)
    checked, agreed = 0, 0
    while checked < 1000:
        a = rng.normal(size=(8, 8)) + rng.choice([-1.5, 0.0]) * np.eye(8)
        max_re = np.max(np.linalg.eigvals(a).real)
        if abs(max_re) < 1e-6 * np.linalg.norm(a):
            continue
        checked += 1
        if dynamics.routh_hurwitz_stable(a) == (max_re < 0):
            agreed += 1
    verdict("09 stability equivalence", agreed == checked,
            f"Routh-Hurwitz agrees with the eigenvalue sign on "
            f"{agreed}/{checked} non-marginal random drifts")


# 10 -----------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_10_readout_round_trip(fig2_sum_run):
    probe = readout.ProbeSpec(kappa=20.0, coupling_plus=1.0,
                              coupling_minus=1.0, mean_x1=1.0, mean_x2=0.9)
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        b = rng.normal(size=(4, 4))
        v = 0.5 * np.eye(4) + b @ b.T        # physical: 0.5 I + PSD
        w = readout.reconstruct_mech_cov(readout.output_observables(v, probe),
                                         probe)
        worst = max(worst, np.linalg.norm(w - v) / np.linalg.norm(v))
    tail = tail_window(fig2_sum_run)
    k = tail.start + int(np.argmin(fig2_sum_run.eta_min[tail]))
    block = gaussian.mechanical_block(fig2_sum_run.cov.v[k])
    en = gaussian.log_negativity(block)
    en_rt = gaussian.log_negativity(
        readout.reconstruct_mech_cov(readout.output_observables(block, probe),
                                     probe))
    verdict("10 readout round trip", worst < 1e-9 and abs(en_rt - en) < 1e-6,
            f"worst relative error {worst:.2e} over 100 draws; "
            f"E_N {en:.6f} -> {en_rt:.6f} through the probe map")


# 11 -----------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_11_nanosphere_contrast(fig3_run_suppressed,
                                           fig3_run_full_recoil):
    eta_low = fig3_run_suppressed.eta_min[tail_window(fig3_run_suppressed)].min()
    eta_full = fig3_run_full_recoil.eta_min[tail_window(fig3_run_full_recoil)].min()
    verdict("11 nanosphere contrast", eta_low < 0.5 <= eta_full,
            f"eta_min {eta_low:.4f} at 10% recoil (target < 0.5), "
            f"{eta_full:.4f} at full recoil (target >= 0.5)")
