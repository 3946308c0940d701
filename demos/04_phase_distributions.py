"""Phase-sum and phase-difference distributions and their moments.

Both marginals are cosine series about the state phases
phi' = phi_beta +- phi_alpha.  At s = -1 they are genuine (non-negative)
densities; moving s toward 1 amplifies the interference harmonics until
the series oscillates and dips below zero.
"""

import math

import numpy as np

from catphase import build_spectrum, eval_phase_dist, make_preset, phase_mean_var, trig_moments

state = make_preset("odd_cat", 1.0, 1.0)

print("Phase-difference density of the odd cat at selected offsets:")
offsets = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, math.pi])
header = "  ".join(f"{x:7.2f}" for x in offsets)
print(f"{'s':>5s}   {header}")
for s in (-1.0, 0.0, 0.4):
    spectrum = build_spectrum(state, s, "minus")
    vals = eval_phase_dist(spectrum, spectrum.phi_ref + offsets)
    print(f"{s:5.1f}   " + "  ".join(f"{v:7.3f}" for v in vals))

print("\nSpectrum size and leading coefficients (phase-difference):")
for s in (-1.0, 0.0, 0.4):
    spectrum = build_spectrum(state, s, "minus")
    lead = ", ".join(f"{c:+.4f}" for c in spectrum.cos_coeffs[:4])
    print(f"  s = {s:5.1f}: n_used = {spectrum.n_used:3d}, c_1..c_4 = {lead}")

print("\nTrigonometric moments at s = -1 (genuine distribution, |c_n| < 1):")
spectrum = build_spectrum(state, -1.0, "minus")
for n in (1, 2, 3):
    m = trig_moments(spectrum, n)
    print(
        f"  n = {n}: <cos n(phi-phi')> = {m.mean_cos:+.6f}, "
        f"Var[cos] = {m.var_cos:.6f}, Var[sin] = {m.var_sin:.6f}"
    )

print("\nWindowed phase statistics (window centered on phi'):")
for s in (-1.0, 0.0):
    spectrum = build_spectrum(state, s, "minus")
    stats = phase_mean_var(spectrum, spectrum.phi_ref)
    print(
        f"  s = {s:5.1f}: <phi> = {stats.mean:.6f}, (Delta phi)^2 = {stats.variance:.6f}"
        f"   (uniform would be {math.pi ** 2 / 3:.6f})"
    )

print("\nSmall-amplitude limits: finite-norm states flatten, the odd cat does not.")
for preset, amp in (("even_cat", 1e-4), ("odd_cat", 1e-3)):
    st = make_preset(preset, amp, amp)
    spectrum = build_spectrum(st, 0.0, "minus")
    grid = spectrum.phi_ref + np.linspace(-math.pi, math.pi, 361)
    dev = np.max(np.abs(eval_phase_dist(spectrum, grid) - 1 / (2 * math.pi)))
    print(f"  {preset} at |alpha| = {amp:g}: max |P - 1/2pi| = {dev:.2e}")
