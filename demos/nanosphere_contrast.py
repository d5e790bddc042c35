"""Photon recoil decides whether levitated nanospheres can be entangled.

For 100 nm levitated spheres the trapping photons scatter into the full
solid angle, and the resulting momentum diffusion is orders of magnitude
more damaging than for tethered disks.  A near-spherical cavity with close
concave mirrors can intercept most of the scattered photons; this scenario
models that by scaling the recoil rate down to 10% (recoil_scale = 0.1).

The script evolves the same modulated scenario at both recoil strengths.
Recoil heats each sphere at the phonon rate Gamma whatever the bath
temperature, adding 2 Gamma to its momentum diffusion.  With full recoil
that heating keeps eta_min above 1/2; at 10% recoil the modulated drive
squeezes the spheres just across the inseparability border.

Runtime: about 1.5 s (measured on a 2-vCPU x86-64 VM).
"""

from twintrap import pipeline
from twintrap.scenario import load_scenario, shipped_scenario

scenario = load_scenario(shipped_scenario("fig3_nanosphere"))

for scale in (1.0, 0.1):
    system = scenario.system(recoil_scale=scale)
    heating = system.params.recoil[0]
    result = pipeline.evolve(system)
    eta_tail = result.eta_min_final_period
    print(f"recoil_scale = {scale}:")
    print(f"  recoil heating rate Gamma = {heating:.3e} phonons/s "
          f"(momentum diffusion 2 Gamma = {2 * heating:.3e} 1/s)")
    print(f"  quasi-steady eta_min = {eta_tail:.3f}, "
          f"nbar = {result.nbar1[-1]:.3f}")
    print()
