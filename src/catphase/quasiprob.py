"""Characteristic function and s-ordered quasi-probability distributions.

All evaluators broadcast over NumPy arrays of phase-space points and return
scalars for scalar input; a point, radius or angle that is not finite, or is
a bool, a string or (where a real is due) complex, is a DomainError naming
the argument.  A finite point so far out that |xi|^2 + |eta|^2 (or
|gamma|^2 + |delta|^2) passes the float range, where chi (for s < 1) and W
underflow, gives exactly 0.  The ordering parameter s is a real number, not
a bool, throughout the public API; the quasi-probability exists for s < 1
only, with a guard band below 1 to keep the 1/(1-s) factors finite.  NumPy
is imported on the first call that makes arrays, so importing this module
does not load it.  chi has one route, cmath at one point: a point of
numbers runs without NumPy, and an array is evaluated point by point, each
entry bit for bit the point's own call, at about 2.5 us a point; W is
evaluated on whole arrays.  The argument rules are those of
:mod:`catphase.errors`.
"""

from __future__ import annotations

import cmath
import math
import numbers

from .errors import DomainError, _finite, _finite_array, _require_s_below_one
from .states import QuasiBellState, normalization_constant

__all__ = ["chi", "w", "w_symmetrized"]

# Largest exponent handed to numpy's exp before the evaluation refuses to proceed.
_EXP_LIMIT = 700.0


def _clear_far(p, q):
    """(p, q, |p|^2 + |q|^2, far): ``far`` marks where that sum passes the float range, or is None.

    At those points p, q and the sum are set to 0, so that no term of W
    forms inf - inf; the caller puts its exact 0 there.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        rsq = np.abs(p) ** 2 + np.abs(q) ** 2
    far = np.isinf(rsq)
    if not (far.any() if far.ndim else far):  # a 0-d check skips the reduction
        return p, q, rsq, None
    return np.where(far, 0j, p), np.where(far, 0j, q), np.where(far, 0.0, rsq), far


def _square_of_spread(value: float, s: float) -> float:
    """value**2, value a multiple of 1 - s; DomainError, naming s, past the float range."""
    try:
        return value**2
    except OverflowError:
        raise DomainError(
            f"s = {s!r} is too far below 0: the square of 1 - s in W's prefactor "
            "is past the float range"
        ) from None


def chi(state: QuasiBellState, xi, eta, s: float):
    """s-ordered characteristic function chi(xi, eta; s), closed form.

    Entire in s (any real value is accepted); chi(0, 0; s) = 1.  ``xi`` and
    ``eta`` may be complex scalars or broadcastable arrays.  Every point is
    evaluated alone, in cmath: a point whose xi and eta are both numbers
    (NumPy scalars included) runs without NumPy and returns a complex, and
    an array call evaluates its broadcast pairs one by one in C order, so
    each entry has the bits of that point's own call and a refusal names
    the first point that fails.  That costs about 2.5 us a point.  The
    Gaussian factor exp(-(1-s)(|xi|^2+|eta|^2)/2) is fused into the
    exponent of each of the four terms, so no term meets an overflow where
    chi underflows.  At s = 1 that factor is exactly 1, however far out the
    point.  A point where a term of chi passes the float range (for s < 1,
    an interference term close to s = 1) is an OverflowError naming xi, eta
    and s; where mu nu* = 0 the interference terms add exact zeros.  A xi
    or eta that is not finite is a DomainError.
    """
    s = _finite(s, "s")
    if isinstance(xi, numbers.Number) and isinstance(eta, numbers.Number):
        return _chi_point(state, _finite(xi, "xi", False), _finite(eta, "eta", False), s)
    import numpy as np

    pairs = np.broadcast(_finite_array(xi, complex, "xi"), _finite_array(eta, complex, "eta"))
    values = [_chi_point(state, complex(p), complex(q), s) for p, q in pairs]
    return np.array(values, complex).reshape(pairs.shape) if pairs.shape else values[0]


def _chi_point(state: QuasiBellState, xi: complex, eta: complex, s: float) -> complex:
    """chi at one finite point of Python numbers: N^2 times its four terms, in cmath.

    Where mu nu* = 0 the interference terms are signed zeros whatever their
    exponent, so h is dropped from it: e^(gauss - 2(|alpha|^2+|beta|^2)) is
    finite wherever e^gauss, the modulus of the other two terms, is, and
    0 * inf cannot arise.
    """
    try:
        rsq = abs(xi) * abs(xi) + abs(eta) * abs(eta)  # inf past the float range
    except OverflowError:  # a modulus past the float range
        rsq = math.inf
    if s < 1.0 and rsq == math.inf:
        return 0j  # chi underflows there
    gauss = -0.5 * (1.0 - s) * rsq if s != 1.0 else -0.0
    mu, nu = state.mu, state.nu
    asq = state.amplitude_sq_sum
    cross = state.weight_overlap  # mu nu*
    # xi alpha* - xi* alpha is purely imaginary; xi alpha* + xi* alpha is real.
    xa, eb = xi * state.alpha.conjugate(), eta * state.beta.conjugate()
    g = 2j * (xa.imag + eb.imag)
    h = 2.0 * (xa.real + eb.real) if cross else 0.0
    n_sq = normalization_constant(state) ** 2
    try:
        out = n_sq * (
            abs(mu) ** 2 * cmath.exp(gauss + g)
            + abs(nu) ** 2 * cmath.exp(gauss - g)
            + cross.conjugate() * cmath.exp(gauss + h - 2.0 * asq)
            + cross * cmath.exp(gauss - h - 2.0 * asq)
        )
    except (OverflowError, ValueError):  # a real exponent past the float range; an infinite phase
        out = math.inf
    if not cmath.isfinite(out):
        raise OverflowError(
            f"a term of chi passes the float range at xi = {xi!r}, eta = {eta!r}, s = {s!r}"
        )
    return out


def w(state: QuasiBellState, gamma, delta, s: float):
    """s-ordered quasi-probability distribution W(gamma, delta; s), s < 1.

    The two Gaussian terms and the two interference terms are paired into
    manifestly real combinations and every term's exponent is fused before
    exponentiation, so the result is exactly real and safe from spurious
    overflow; if a fused interference exponent still exceeds the float
    range (large |alpha|^2 with s close to 1), OverflowError is raised with
    the offending numbers rather than returning inf.  Where (1-s)^2 passes
    the float range (s below about -1.3e154), DomainError names s; a gamma
    or delta that is not finite is a DomainError too.
    """
    import numpy as np

    s = _require_s_below_one(s)
    gamma = _finite_array(gamma, complex, "gamma")
    delta = _finite_array(delta, complex, "delta")
    scalar = gamma.ndim == 0 and delta.ndim == 0
    gamma, delta, rsq, far = _clear_far(gamma, delta)

    alpha, beta, mu, nu = state.alpha, state.beta, state.mu, state.nu
    one_minus = 1.0 - s
    asq = state.amplitude_sq_sum
    spread = _square_of_spread(one_minus, s)
    pref = 4.0 * normalization_constant(state) ** 2 / (math.pi**2 * spread)

    # An exponent that passes the float range here is -inf, whose exp is the right 0;
    # +inf is refused below.
    with np.errstate(over="ignore"):
        e_gauss1 = -2.0 * (np.abs(gamma - alpha) ** 2 + np.abs(delta - beta) ** 2) / one_minus
        e_gauss2 = -2.0 * (np.abs(gamma + alpha) ** 2 + np.abs(delta + beta) ** 2) / one_minus
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
    if far is not None:
        out = np.where(far, 0.0, out)
    return float(out) if scalar else out


def w_symmetrized(state: QuasiBellState, r_gamma, r_delta, phi_plus, phi_minus, s: float):
    """2pi-periodic symmetrization of W in phase-sum/difference variables.

    Evaluates (1/2)[W(gamma, delta) + W(-gamma, -delta)] at
    gamma = r_gamma e^(i phi_gamma), delta = r_delta e^(i phi_delta) with
    phi_gamma = (phi_plus - phi_minus)/2 and phi_delta = (phi_plus + phi_minus)/2.
    Angles are reduced to [0, 2pi) first; radii must be non-negative, and
    radii and angles finite.
    """
    import numpy as np

    r_gamma = _finite_array(r_gamma, float, "r_gamma")
    r_delta = _finite_array(r_delta, float, "r_delta")
    if np.any(r_gamma < 0.0) or np.any(r_delta < 0.0):
        raise DomainError("radial coordinates must be non-negative")
    two_pi = 2.0 * math.pi
    phi_plus = np.mod(_finite_array(phi_plus, float, "phi_plus"), two_pi)
    phi_minus = np.mod(_finite_array(phi_minus, float, "phi_minus"), two_pi)
    scalar = all(a.ndim == 0 for a in (r_gamma, r_delta, phi_plus, phi_minus))

    phi_gamma = 0.5 * (phi_plus - phi_minus)
    phi_delta = 0.5 * (phi_plus + phi_minus)
    gamma = r_gamma * np.exp(1j * phi_gamma)
    delta = r_delta * np.exp(1j * phi_delta)
    out = 0.5 * (w(state, gamma, delta, s) + w(state, -gamma, -delta, s))
    return float(out) if scalar else out
