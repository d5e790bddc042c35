"""Probe-field readout: forward map and covariance reconstruction."""

import numpy as np
import pytest

from twintrap.gaussian import log_negativity
from twintrap.readout import (AdiabaticityError, ProbeSpec,
                              ReconstructionError, output_observables,
                              reconstruct_mech_cov,
                              reconstruction_condition)

from conftest import two_mode_squeezed_cov

PROBE = ProbeSpec(kappa=20.0, coupling_plus=1.0, coupling_minus=1.0,
                  mean_x1=1.0, mean_x2=0.9)


def random_physical_cov(rng, scale=1.0):
    w = scale * rng.normal(size=(4, 4))
    return 0.5 * np.eye(4) + w @ w.T


def test_vacuum_round_trip():
    v = 0.5 * np.eye(4)
    assert np.allclose(reconstruct_mech_cov(output_observables(v, PROBE),
                                            PROBE), v, atol=1e-12)


def test_output_contains_reflected_vacuum():
    # With zero mechanical fluctuations beyond vacuum, the outputs carry
    # the mapped vacuum plus the input noise floor I/2.
    v = 0.5 * np.eye(4)
    out = output_observables(v, PROBE)
    assert np.all(np.diag(out) >= 0.5)


def test_random_round_trips():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        v = random_physical_cov(rng)
        v_back = reconstruct_mech_cov(output_observables(v, PROBE), PROBE)
        assert np.linalg.norm(v_back - v) / np.linalg.norm(v) < 1e-9


def test_entanglement_preserved_through_readout():
    v = two_mode_squeezed_cov(0.7, n_mean=0.1)
    v_back = reconstruct_mech_cov(output_observables(v, PROBE), PROBE)
    assert abs(log_negativity(v_back) - log_negativity(v)) < 1e-6


def test_zero_position_is_unidentifiable():
    blind = ProbeSpec(kappa=20.0, coupling_plus=1.0, coupling_minus=1.0,
                      mean_x1=0.0, mean_x2=1.0)
    with pytest.raises(ReconstructionError) as err:
        reconstruct_mech_cov(np.eye(4), blind)
    assert "1" in str(err.value)   # names the blind mode-1 entries


def test_zero_gain_is_unidentifiable():
    blind = ProbeSpec(kappa=20.0, coupling_plus=0.0, coupling_minus=1.0,
                      mean_x1=1.0, mean_x2=1.0)
    with pytest.raises(ReconstructionError):
        reconstruct_mech_cov(np.eye(4), blind)


def test_adiabaticity_guard():
    with pytest.raises(AdiabaticityError):
        ProbeSpec(kappa=5.0, coupling_plus=1.0, coupling_minus=1.0,
                  mean_x1=1.0, mean_x2=1.0)


def test_condition_number_degrades_with_asymmetry():
    conds = [reconstruction_condition(
        ProbeSpec(kappa=20.0, coupling_plus=1.0, coupling_minus=1.0,
                  mean_x1=r, mean_x2=1.0)) for r in (1.0, 2.0, 4.0, 8.0)]
    assert conds == sorted(conds)
    assert conds[0] < conds[-1]
