"""One-mode phase distributions keep more state information.

Unlike the phase-sum/difference marginals (cosine series only, hence
symmetric), the single-mode distributions carry odd-index sine terms
through Im(mu nu*) and odd cosine terms through |mu|^2 - |nu|^2.  The
Yurke-Stoler state (nu = i mu) is the cleanest example: its one-mode
density is visibly lopsided.
"""

import math

import numpy as np

from catphase import eval_one_mode_dist, make_preset, one_mode_coefficients

for preset in ("even_cat", "yurke_stoler_plus"):
    state = make_preset(preset, 1.0, 1.0)
    spectrum = one_mode_coefficients(state, -1.0, 1)
    print(f"{preset}: n_used = {spectrum.n_used}")
    print(f"  c_odd  = {np.array2string(np.array(spectrum.c_odd[:3]), precision=5)}")
    print(f"  c_even = {np.array2string(np.array(spectrum.c_even[:3]), precision=5)}")
    print(f"  d_odd  = {np.array2string(np.array(spectrum.d_odd[:3]), precision=5)}")
    left = eval_one_mode_dist(spectrum, spectrum.phi_ref - math.pi / 4)
    right = eval_one_mode_dist(spectrum, spectrum.phi_ref + math.pi / 4)
    print(f"  P(phi_ref - pi/4) = {left:.6f}   P(phi_ref + pi/4) = {right:.6f}")
    print(f"  asymmetry = {right - left:+.6f}\n")

print("Mode 1 never feels the phase of mode 2:")
base = one_mode_coefficients(make_preset("yurke_stoler_plus", 1.0, 1.0), 0.0, 1)
rotated = one_mode_coefficients(
    make_preset("yurke_stoler_plus", 1.0, np.exp(1.9j)), 0.0, 1
)
print(
    "  max coefficient change under phi_beta -> phi_beta + 1.9:",
    float(
        max(
            np.max(np.abs(np.subtract(base.cos_coeffs, rotated.cos_coeffs))),
            np.max(np.abs(np.subtract(base.sin_coeffs, rotated.sin_coeffs))),
        )
    ),
)
