"""Steady state of the CW-driven system across laser detuning.

Two 20 um silica microdisks are trapped at antinodes of a strongly driven
cavity mode while two weaker control modes cool their motion.  With both
control drives held constant the system reaches a Gaussian steady state.
This script scans the control detuning and reports the residual phonon
occupation and the smallest symplectic eigenvalue of the partially
transposed mechanical state (eta_min): entanglement would require
eta_min < 1/2, and the CW drive alone gets close to, but never past,
that border.
"""

import numpy as np

from twintrap import pipeline
from twintrap.scenario import load_scenario, shipped_scenario

scenario = load_scenario(shipped_scenario("fig1_cw"))

# One stacked pass: every detuning's drift goes through a single stability
# check, Lyapunov solve and Gaussian analysis.
ratios = np.linspace(0.3, 1.5, 13)
pipeline.require_cw(scenario.drive)
states = pipeline.steady_states(scenario.params,
                                *scenario.drive_stack("detuning", ratios))

print("detuning/Omega   eta_min    E_N     nbar")
for ratio, eta, log_neg, nbar in zip(ratios, states.eta_min, states.log_neg,
                                     states.nbar1):
    print(f"{ratio:13.2f}  {eta:8.4f}  {log_neg:6.4f}  {nbar:7.4f}")

report, _ = pipeline.steady_state(scenario.system())
print()
print(f"At the optimal detuning (Delta = Omega): eta_min = "
      f"{report.eta_min:.4f} >= 0.5 -- cooled to nbar = {report.nbar1:.4f} "
      f"but still separable.")
print("Crossing the border requires modulated driving; see "
      "modulated_entanglement.py.")
