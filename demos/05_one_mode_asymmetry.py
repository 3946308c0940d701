"""One-mode phase distributions keep more state information.

Every spectrum is one line of the joint two-phase distribution.  The
phase-sum and phase-difference lines carry Re(mu nu*) alone (cosine series
only, hence symmetric); the mode lines also carry odd-index sine terms
through Im(mu nu*) and odd cosine terms through |mu|^2 - |nu|^2.  The
Yurke-Stoler state (nu = i mu) is the cleanest example: its one-mode
density is visibly lopsided, while its phase-sum density is not.
"""

import math

import numpy as np

from catphase import build_spectrum, eval_phase_dist, make_preset, one_mode_coefficients


def lopsidedness(spectrum):
    """P(phi_ref + pi/4) - P(phi_ref - pi/4) on the spectrum's own line."""
    left = eval_phase_dist(spectrum, spectrum.phi_ref - math.pi / 4)
    right = eval_phase_dist(spectrum, spectrum.phi_ref + math.pi / 4)
    return left, right


for preset in ("even_cat", "yurke_stoler_plus"):
    state = make_preset(preset, 1.0, 1.0)
    spectrum = one_mode_coefficients(state, -1.0, 1)
    print(f"{preset}, line {spectrum.line!r}: n_used = {spectrum.n_used}")
    print(f"  c_odd  = {np.array2string(np.array(spectrum.c_odd[:3]), precision=5)}")
    print(f"  c_even = {np.array2string(np.array(spectrum.c_even[:3]), precision=5)}")
    print(f"  d_odd  = {np.array2string(np.array(spectrum.d_odd[:3]), precision=5)}")
    left, right = lopsidedness(spectrum)
    print(f"  P(phi_ref - pi/4) = {left:.6f}   P(phi_ref + pi/4) = {right:.6f}")
    print(f"  asymmetry = {right - left:+.6f}")
    pair = build_spectrum(state, -1.0, "plus")
    left, right = lopsidedness(pair)
    print(f"  line 'plus': {len(pair.sin_coeffs)} sine terms, asymmetry = {right - left:+.6f}\n")

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
