"""Characteristic function and s-ordered quasi-probability distributions.

All evaluators broadcast over NumPy arrays of phase-space points and return
scalars for scalar input.  The ordering parameter s is real throughout the
public API; the quasi-probability exists for s < 1 only, with a guard band
below 1 to keep the 1/(1-s) factors finite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .states import QuasiBellState, normalization_constant

__all__ = ["S_UPPER", "chi", "w", "w_symmetrized"]

# Quasi-probability distributions exist for s < 1 strictly; this guard band
# keeps 1/(1-s) from blowing up catastrophically.
S_UPPER = 1.0 - 1e-9

# Largest exponent handed to np.exp before the evaluation refuses to proceed.
_EXP_LIMIT = 700.0


def _require_real_s(s: float) -> float:
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"ordering parameter must be finite, got {s!r}")
    return s


def _require_s_below_one(s: float) -> float:
    s = _require_real_s(s)
    if s >= S_UPPER:
        raise DomainError(
            f"quasi-probability requires s < {S_UPPER!r} (got s = {s!r}); "
            "at s = 1 the distribution is singular"
        )
    return s


def chi(state: QuasiBellState, xi, eta, s: float):
    """s-ordered characteristic function chi(xi, eta; s), closed form.

    Entire in s (any real value is accepted); chi(0, 0; s) = 1.  ``xi`` and
    ``eta`` may be complex scalars or broadcastable arrays.  The Gaussian
    factor exp(-(1-s)(|xi|^2+|eta|^2)/2) is fused into the exponent of each
    of the four terms, so no term meets an overflow where chi underflows.
    """
    s = _require_real_s(s)
    scalar = np.ndim(xi) == 0 and np.ndim(eta) == 0
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    alpha, beta, mu, nu = state.alpha, state.beta, state.mu, state.nu
    asq = state.amplitude_sq_sum

    gauss = -0.5 * (1.0 - s) * (np.abs(xi) ** 2 + np.abs(eta) ** 2)
    # xi alpha* - xi* alpha is purely imaginary; xi alpha* + xi* alpha is real.
    g = 2j * ((xi * np.conj(alpha)).imag + (eta * np.conj(beta)).imag)
    h = 2.0 * ((xi * np.conj(alpha)).real + (eta * np.conj(beta)).real)
    cross = state.weight_overlap  # mu nu*
    out = normalization_constant(state) ** 2 * (
        abs(mu) ** 2 * np.exp(gauss + g)
        + abs(nu) ** 2 * np.exp(gauss - g)
        + np.conj(cross) * np.exp(gauss + h - 2.0 * asq)
        + cross * np.exp(gauss - h - 2.0 * asq)
    )
    return complex(out) if scalar else out


def w(state: QuasiBellState, gamma, delta, s: float):
    """s-ordered quasi-probability distribution W(gamma, delta; s), s < 1.

    The two Gaussian terms and the two interference terms are paired into
    manifestly real combinations and every term's exponent is fused before
    exponentiation, so the result is exactly real and safe from spurious
    overflow; if a fused interference exponent still exceeds the float
    range (large |alpha|^2 with s close to 1), OverflowError is raised with
    the offending numbers rather than returning inf.
    """
    s = _require_s_below_one(s)
    gamma = np.asarray(gamma, dtype=complex)
    delta = np.asarray(delta, dtype=complex)
    scalar = gamma.ndim == 0 and delta.ndim == 0

    alpha, beta, mu, nu = state.alpha, state.beta, state.mu, state.nu
    one_minus = 1.0 - s
    asq = state.amplitude_sq_sum
    pref = 4.0 * normalization_constant(state) ** 2 / (math.pi**2 * one_minus**2)

    e_gauss1 = -2.0 * (np.abs(gamma - alpha) ** 2 + np.abs(delta - beta) ** 2) / one_minus
    e_gauss2 = -2.0 * (np.abs(gamma + alpha) ** 2 + np.abs(delta + beta) ** 2) / one_minus
    rsq = np.abs(gamma) ** 2 + np.abs(delta) ** 2
    e_interf = 2.0 * (s * asq - rsq) / one_minus
    max_exp = float(np.max(e_interf, initial=-math.inf))
    if max_exp > _EXP_LIMIT:
        raise OverflowError(
            f"interference exponent 2(s(|alpha|^2+|beta|^2) - r^2)/(1-s) = {max_exp:.6g} "
            f"exceeds {_EXP_LIMIT:g} (s = {s!r}, |alpha|^2+|beta|^2 = {asq!r}); "
            "the quasi-probability is out of float range in this parameter region"
        )

    theta = (
        4.0
        * ((np.conj(alpha) * gamma).imag + (np.conj(beta) * delta).imag)
        / one_minus
    )
    cross = np.conj(mu) * nu  # note Re(mu* nu) = Re(mu nu*)
    interference = 2.0 * np.exp(e_interf) * (
        cross.real * np.cos(theta) - cross.imag * np.sin(theta)
    )
    out = pref * (
        abs(mu) ** 2 * np.exp(e_gauss1) + abs(nu) ** 2 * np.exp(e_gauss2) + interference
    )
    return float(out) if scalar else out


def w_symmetrized(state: QuasiBellState, r_gamma, r_delta, phi_plus, phi_minus, s: float):
    """2pi-periodic symmetrization of W in phase-sum/difference variables.

    Evaluates (1/2)[W(gamma, delta) + W(-gamma, -delta)] at
    gamma = r_gamma e^(i phi_gamma), delta = r_delta e^(i phi_delta) with
    phi_gamma = (phi_plus - phi_minus)/2 and phi_delta = (phi_plus + phi_minus)/2.
    Angles are reduced to [0, 2pi) first; radii must be non-negative.
    """
    r_gamma = np.asarray(r_gamma, dtype=float)
    r_delta = np.asarray(r_delta, dtype=float)
    if np.any(r_gamma < 0.0) or np.any(r_delta < 0.0):
        raise DomainError("radial coordinates must be non-negative")
    two_pi = 2.0 * math.pi
    phi_plus = np.mod(np.asarray(phi_plus, dtype=float), two_pi)
    phi_minus = np.mod(np.asarray(phi_minus, dtype=float), two_pi)
    scalar = all(
        a.ndim == 0 for a in (r_gamma, r_delta, np.asarray(phi_plus), np.asarray(phi_minus))
    )

    phi_gamma = 0.5 * (phi_plus - phi_minus)
    phi_delta = 0.5 * (phi_plus + phi_minus)
    gamma = r_gamma * np.exp(1j * phi_gamma)
    delta = r_delta * np.exp(1j * phi_delta)
    out = 0.5 * (w(state, gamma, delta, s) + w(state, -gamma, -delta, s))
    return float(out) if scalar else out
