"""Every analytic formula against its independent numerical oracle.

The package never trusts a closed form alone: normalization integrates
the full four-variable quasi-probability, the phase-distribution series
are compared against quadrature marginals, and the characteristic
function against a number-basis trace.  The quadrature runs on a fixed
40 radial x 64 angular node grid per mode; because each term of W is a
product of one factor per mode, it is taken as one radial sum per mode
and angle, which gives the four-variable node sum up to rounding.  This
script runs a compact version of that validation (the full matrix lives
in the acceptance test suite).
"""

import math
import time

import numpy as np

from catphase import (
    build_spectrum,
    eval_one_mode_dist,
    eval_phase_dist,
    make_preset,
    one_mode_coefficients,
    quadrature_normalization,
    quadrature_one_mode,
    quadrature_phase_dist,
)

t0 = time.time()

print("Four-variable quadrature of the symmetrized distribution (expected 1):")
for preset in ("even_cat", "odd_cat"):
    state = make_preset(preset, 1.0, 1.0)
    for s in (-1.0, 0.4):
        value = quadrature_normalization(state, s)
        print(f"  {preset:9s} s = {s:4.1f}: {value:.12f}")

print("\nSeries vs quadrature, phase-difference density:")
offsets = np.array([0.0, 0.7, 1.9, math.pi])
for preset in ("even_cat", "odd_cat", "yurke_stoler_plus"):
    state = make_preset(preset, 1.0, 1.0)
    for s in (-1.0, 0.4):
        spectrum = build_spectrum(state, s, "minus")
        phis = spectrum.phi_prime + offsets
        dev = np.max(
            np.abs(eval_phase_dist(spectrum, phis) - quadrature_phase_dist(state, s, "minus", phis))
        )
        print(f"  {preset:18s} s = {s:4.1f}: max dev {dev:.3e}")

print("\nSeries vs quadrature, one-mode density:")
state = make_preset("yurke_stoler_plus", 1.0, 1.0)
spectrum = one_mode_coefficients(state, 0.0, 1)
phis = spectrum.phi_ref + offsets
dev = np.max(
    np.abs(eval_one_mode_dist(spectrum, phis) - quadrature_one_mode(state, 0.0, 1, phis))
)
print(f"  yurke_stoler_plus s = 0: max dev {dev:.3e}")

print(f"\nelapsed: {time.time() - t0:.1f} s")
