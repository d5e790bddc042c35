"""Entangling two microdisks by modulating one control drive.

Modulating the second control field at the sum of the two mechanical
frequencies activates a resonant two-mode squeezing process between the
disks.  The covariance matrix then settles into a periodic (quasi-steady)
orbit whose minimum symplectic eigenvalue dips below 1/2: the motion of the
two disks is inseparable.  Driving at half the sum frequency also works,
through the second harmonic of the effective coupling, but less
efficiently.

Each scenario runs to its own horizon (``numerics.t_max_tau``: 200 tau for
the sum drive, 400 tau for the half drive, which builds up more slowly).
Runtime: about 16 s for both runs (measured on a 2-vCPU x86-64 VM).
"""

from twintrap import pipeline
from twintrap.scenario import load_scenario, shipped_scenario

for name, label in (("fig2_sum", "sum frequency  w_D = W1 + W2"),
                    ("fig2_half", "half frequency w_D = (W1 + W2)/2")):
    scenario = load_scenario(shipped_scenario(name))
    system = scenario.system()
    result = pipeline.evolve(system, t_max_tau=scenario.numerics.t_max_tau)
    tail = slice(-len(result.orbit.t), None)   # the final drive period
    eta_tail = result.eta_min[tail].min()
    en_tail = result.log_neg[tail].max()
    print(f"{label}")
    print(f"  quasi-steady orbit converged: {result.orbit.converged} "
          f"(period-to-period change {result.orbit.period_change:.2e})")
    print(f"  eta_min over last period: {eta_tail:.4f} "
          f"({'entangled' if eta_tail < 0.5 else 'separable'})")
    print(f"  peak logarithmic negativity: {en_tail:.4f}")
    print()

print("The sum-frequency drive produces the stronger entanglement, as the "
      "first harmonic of the")
print("effective mechanical coupling dominates the second; compare "
      "`twintrap effective`.")
