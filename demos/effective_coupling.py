"""Why modulating at the sum frequency works: the effective coupling J.

When the cavity fields follow the mechanics adiabatically they can be
eliminated, leaving a direct mechanical-mechanical coupling, the rate
J_jl = sum_i [kappa_i Im(G_ij G_il*) + Delta_i Re(G_ij G_il*)]
/ (kappa_i^2 + Delta_i^2), that inherits the periodicity of the drive.
Its first harmonic, rotating at the drive frequency, resonates with the
two-mode squeezing process at w_D = W1 + W2; the second harmonic picks out
w_D = (W1 + W2)/2.  The harmonics are projected, at the drive phase, on the
periodic mean-field orbit.  This script prints the harmonic content of J
for both modulated microdisk scenarios and the frequencies the
decomposition recommends.  At half the sum frequency the drive sits at W1
and swings the detuning of the modulated mode far from W1, so J(t) carries
strong higher harmonics: three harmonics miss about 28% of it, and the
three-harmonic reduced model does not apply there.
"""

from twintrap import pipeline
from twintrap.effective import resonance_advisor, rwa_classify
from twintrap.scenario import load_scenario, shipped_scenario

for name in ("fig2_sum", "fig2_half"):
    system = load_scenario(shipped_scenario(name)).system()
    report = pipeline.effective_report(system)
    print(f"{name}: harmonics of the cross coupling J_12 (rad/s):")
    print(f"  DC:     {report.j_dc[0, 1]: .4e}")
    print(f"  first:  {report.j_first[0, 1]: .4e}")
    print(f"  second: {report.j_second[0, 1]: .4e}")
    print(f"  residual beyond second harmonic: {report.harmonic_residual:.3f}")
    print()

system = load_scenario(shipped_scenario("fig2_sum")).system()
w1, w2 = system.params.omega_mech
print("resonance advisor:")
adv = resonance_advisor(w1, w2)
print(f"  two-mode squeezing via first harmonic:  w_D = {adv['omega_sum']:.4e}"
      f" rad/s (= W1 + W2)")
print(f"  two-mode squeezing via second harmonic: w_D = {adv['omega_half']:.4e}"
      f" rad/s (= (W1 + W2)/2)")
print()
print("processes kept by the rotating-wave classification at the fig2_sum "
      "drive frequency:")
for tag in rwa_classify(w1, w2, system.drive.mod_frequency):
    if tag.resonant:
        print(f"  {tag.process} on modes {tag.modes} "
              f"(harmonic {tag.harmonic})")
