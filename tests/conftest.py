"""Shared fixtures: scenario systems and the expensive covariance runs.

The modulated evolutions take tens of seconds each, so they are computed
once per session and shared between the module tests and the acceptance
suite.
"""

import pytest

from twintrap import pipeline
from twintrap.scenario import load_scenario, shipped_scenario


@pytest.fixture(scope="session")
def fig1_scenario():
    return load_scenario(shipped_scenario("fig1_cw"))


@pytest.fixture(scope="session")
def fig2_sum_scenario():
    return load_scenario(shipped_scenario("fig2_sum"))


@pytest.fixture(scope="session")
def fig2_half_scenario():
    return load_scenario(shipped_scenario("fig2_half"))


@pytest.fixture(scope="session")
def fig3_scenario():
    return load_scenario(shipped_scenario("fig3_nanosphere"))


@pytest.fixture(scope="session")
def fig1_steady(fig1_scenario):
    """CW steady state of the microdisk scenario: (report, covariance)."""
    return pipeline.steady_state(fig1_scenario.system())


@pytest.fixture(scope="session")
def fig2_sum_run(fig2_sum_scenario):
    """Sum-frequency modulated evolution to its quasi-steady orbit."""
    system = fig2_sum_scenario.system()
    return pipeline.evolve(system,
                           t_max_tau=fig2_sum_scenario.numerics.t_max_tau)


@pytest.fixture(scope="session")
def fig2_half_run(fig2_half_scenario):
    """Half-frequency modulated evolution (slower entanglement build-up)."""
    system = fig2_half_scenario.system()
    return pipeline.evolve(system,
                           t_max_tau=fig2_half_scenario.numerics.t_max_tau)


@pytest.fixture(scope="session")
def fig3_run_suppressed(fig3_scenario):
    """Nanosphere evolution with recoil reduced to 10%."""
    system = fig3_scenario.system()
    return pipeline.evolve(system, t_max_tau=fig3_scenario.numerics.t_max_tau)


@pytest.fixture(scope="session")
def fig3_run_full_recoil(fig3_scenario):
    """Same nanosphere scenario at the full free-space recoil rate."""
    system = fig3_scenario.system(recoil_scale=1.0)
    return pipeline.evolve(system, t_max_tau=fig3_scenario.numerics.t_max_tau)


def tail_window(run):
    """Samples of the final stored drive period of an evolution.

    The stored grid need not hold exactly ``store_per_period`` samples per
    period, so the window is the extracted quasi-steady orbit: the last
    period, both ends included.
    """
    return slice(-len(run.orbit.t), None)
