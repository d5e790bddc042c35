"""Verifying the entanglement through two weak probe fields.

Two extra cavity modes, placed so that they couple quadratically to the
collective coordinates x1 +/- x2, leak phase and amplitude quadratures that
are linear in the mechanical quadratures.  Homodyning those outputs gives
the full 4x4 mechanical covariance matrix, from which the logarithmic
negativity follows.  This script runs the modulated microdisk scenario to
its quasi-steady orbit, "measures" the mechanical state through the probe
map, reconstructs it, and confirms that the inferred entanglement matches
the true one.

Runtime: about 7 s, dominated by the covariance evolution (measured on a
2-vCPU x86-64 VM).
"""

import numpy as np

from twintrap import pipeline
from twintrap.gaussian import log_negativity, mechanical_block
from twintrap.readout import (ProbeSpec, output_observables,
                              reconstruct_mech_cov,
                              reconstruction_condition)
from twintrap.scenario import load_scenario, shipped_scenario

scenario = load_scenario(shipped_scenario("fig2_sum"))
system = scenario.system()
result = pipeline.evolve(system, t_max_tau=120)
v_mech = mechanical_block(result.cov.v[-1])
true_en = log_negativity(v_mech)

# A probe 20x faster than its optomechanical gain, with slightly unequal
# classical positions for the two disks.
probe = ProbeSpec(kappa=20.0, coupling_plus=1.0, coupling_minus=1.0,
                  mean_x1=1.0, mean_x2=0.9)
print(f"probe map condition number: {reconstruction_condition(probe):.2f}")

v_out = output_observables(v_mech, probe)
v_back = reconstruct_mech_cov(v_out, probe)
err = np.linalg.norm(v_back - v_mech) / np.linalg.norm(v_mech)
print(f"round-trip covariance error: {err:.2e}")
print(f"logarithmic negativity, true:          {true_en:.6f}")
print(f"logarithmic negativity, reconstructed: {log_negativity(v_back):.6f}")
