"""Analytic s-ordered phase distributions and their moments.

The phase-sum (plus) and phase-difference (minus) distributions are Fourier
cosine series

    P(phi) = (1/2pi) [1 + 2 sum_n c_n cos n(phi - phi_prime)],

with coefficients built from the scaled Bessel combinations of
:mod:`catphase.specfun`; the one-mode distributions add odd-index sine
terms.  One generator per spectrum kind walks the cached combinations tables
a segment (n = 1..64, 65..128, 129..256, ...) at a time: the first n of each
comes through :func:`~catphase.specfun.i_n_combo`, which checks it and picks
the table, the rest straight from that table.  It appends each fused c_n (and
d_n) to the spectrum's lists of floats and yields the row's magnitude, which
one truncation loop draws until two consecutive rows drop below ``eps_tail``
(the decay is super-geometric, so a two-term test is safe against even/odd
alternation).
Spectra carry their construction context so moments can recompute
coefficients on demand.  Coefficients and moments are plain Python floats;
NumPy is imported on first use by the array functions, ``wrap_angle`` and
the series evaluators.

One complex Horner pass sums either series: with a_n = c_n - i d_n (d_n = 0
for a pair branch) and z = e^(i delta), delta the wrapped offset of phi,
Re sum_n a_n z^n = sum_n (c_n cos n delta + d_n sin n delta).  For |z| = 1 its
rounding error is at most about gamma_(cN) sum_n |a_n|, gamma_k = ku/(1 - ku),
N terms and c a small constant (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, sec. 5.1), so the density's error is about
gamma_(cN) (2 sum_n |a_n|)/2pi.  A phi that is not finite is a DomainError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, NoConvergenceError
from .quasiprob import _finite_array, _require_s_below_one
from .specfun import (
    LogScaledValue,
    _branch_sign,
    _combo_table,
    _integer,
    _positive_int,
    _table_top,
    i_n_combo,
)
from .states import QuasiBellState, _require_mode, normalization_constant

__all__ = [
    "TruncationPolicy",
    "FourierSpectrum",
    "OneModeSpectrum",
    "TrigMoments",
    "PhaseStats",
    "wrap_angle",
    "fourier_coefficient",
    "build_spectrum",
    "eval_phase_dist",
    "one_mode_coefficients",
    "eval_one_mode_dist",
    "trig_moments",
    "phase_mean_var",
]

_TWO_PI = 2.0 * math.pi
_LOG_MAX = 709.0


@dataclass(frozen=True)
class TruncationPolicy:
    """Stop once max(|c_n|, |c_(n-1)|) < eps_tail at some n >= n_min."""

    eps_tail: float = 1e-14
    n_min: int = 4
    n_max: int = 512

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_min", _integer(self.n_min, "n_min"))
        object.__setattr__(self, "n_max", _integer(self.n_max, "n_max"))
        if not (self.eps_tail > 0.0 and math.isfinite(self.eps_tail)):
            raise ValueError(f"eps_tail must be positive, got {self.eps_tail!r}")
        if not (1 <= self.n_min <= self.n_max):
            raise ValueError(
                f"need 1 <= n_min <= n_max, got n_min={self.n_min!r}, n_max={self.n_max!r}"
            )


@dataclass(frozen=True)
class FourierSpectrum:
    """Truncated cosine spectrum of a phase-sum/difference distribution.

    ``coeffs[n-1]`` is c_n for n = 1..n_used, in a list of floats;
    ``phi_prime`` is the reference phase phi_beta +/- phi_alpha reduced to
    [0, 2pi).  The construction context (state, s) is kept so higher
    coefficients can be recomputed on demand by :func:`trig_moments`.
    """

    branch: str
    phi_prime: float
    coeffs: list[float]
    n_used: int
    tail_bound: float
    state: QuasiBellState
    s: float


@dataclass(frozen=True)
class OneModeSpectrum:
    """Truncated cosine+sine spectrum of a one-mode phase distribution.

    ``cos_coeffs[n-1]`` and ``sin_coeffs[n-1]`` hold c_n and d_n for
    n = 1..n_used, as lists of floats; d_n vanishes identically for even n.
    """

    mode: int
    phi_ref: float
    cos_coeffs: list[float]
    sin_coeffs: list[float]
    n_used: int
    state: QuasiBellState
    s: float

    @property
    def c_even(self) -> list[float]:
        """Coefficients c_2, c_4, ..."""
        return self.cos_coeffs[1::2]

    @property
    def c_odd(self) -> list[float]:
        """Coefficients c_1, c_3, ..."""
        return self.cos_coeffs[0::2]

    @property
    def d_odd(self) -> list[float]:
        """Coefficients d_1, d_3, ..."""
        return self.sin_coeffs[0::2]


class TrigMoments(NamedTuple):
    mean_cos: float
    mean_sin: float
    var_cos: float
    var_sin: float


class PhaseStats(NamedTuple):
    mean: float
    variance: float


def wrap_angle(phi):
    """Reduce angles to (-pi, pi]; DomainError names the first angle that is not finite."""
    import numpy as np

    out = np.asarray(np.mod(_finite_array(phi, float, "angle"), _TWO_PI))  # 0-d stays an array
    np.subtract(out, _TWO_PI, out, where=out > math.pi)
    return out if out.ndim else float(out)


def _fused(sign_a, log_a, sign_b, log_b, log_scale: float, label: str, n: int) -> float:
    """exp(log_scale) * (sign_a e^log_a + sign_b e^log_b), exponentiating only fused exponents.

    A term whose sign is 0 is absent.  One term is copysign(exp(log_a + log_scale), sign_a),
    the two-term route's bits: its peak is log_a, and e^0 = 1 and log(1) = 0 add nothing.
    Two terms, each at most 1 after the peak is taken out, are summed by one correctly
    rounded float addition (``math.fsum``'s value).  ``label.format(n=n)`` names c_n.
    """
    if sign_a == 0:
        sign_a, log_a, sign_b = sign_b, log_b, 0
    if sign_a == 0:
        return 0.0
    if sign_b == 0:
        acc, total_log = sign_a, log_a + log_scale
    else:
        peak = log_b if log_b > log_a else log_a
        acc = sign_a * math.exp(log_a - peak) + sign_b * math.exp(log_b - peak)
        if acc == 0.0:
            return 0.0
        total_log = peak + log_scale + math.log(abs(acc))
    if total_log > _LOG_MAX:
        raise OverflowError(
            f"{label.format(n=n)}: fused exponent {total_log:.6g} exceeds the float range; "
            "the coefficient is astronomically large this close to s = 1"
        )
    return math.copysign(math.exp(total_log), acc)


def _segment(x: float, n: int):
    """(sign_plus, logs_plus, sign_minus, logs_minus) at x, from n to the top of n's table segment.

    i_n_combo serves n and checks it (x >= 0, n <= 2**16); its table, or its 0 at x = 0, the rest.
    """
    sign_p, log_p = i_n_combo(n, x, "plus")
    sign_m, log_m = i_n_combo(n, x, "minus")
    top = _table_top(n)
    plus, minus = _combo_table(x, top) if x else ((log_p,) * top, (log_m,) * top)
    return sign_p, plus[n - 1 :], sign_m, minus[n - 1 :]


def _pair_rows(state: QuasiBellState, s: float, branch: str, sign: int, coeffs, n: int = 1):
    """Append c_n of the sum (plus, sign 1) or difference (minus, -1) series from n; yield |c_n|."""
    x_a, x_b = abs(state.alpha) ** 2 / (1.0 - s), abs(state.beta) ** 2 / (1.0 - s)
    shift = -2.0 * state.amplitude_sq_sum
    w_sign, log_w = LogScaledValue.from_value(2.0 * state.weight_overlap.real)
    log_scale = 2.0 * math.log(normalization_constant(state)) + math.log(0.5 * math.pi)
    label = f"c_{{n}}^({branch}) at s={s!r}"
    while True:
        sign_pa, plus_a, sign_ma, minus_a = _segment(x_a, n)
        sign_pb, plus_b, sign_mb, minus_b = _segment(x_b, n)
        gauss_sign, interf_sign = sign_pa * sign_pb, sign**n * w_sign * sign_ma * sign_mb
        for log_pa, log_ma, log_pb, log_mb in zip(plus_a, minus_a, plus_b, minus_b):
            interf_log = log_w + log_ma + log_mb + shift
            c_n = _fused(gauss_sign, log_pa + log_pb, interf_sign, interf_log, log_scale, label, n)
            coeffs.append(c_n)
            yield abs(c_n)
            interf_sign *= sign
            n += 1


def _one_mode_rows(state: QuasiBellState, s: float, amp: complex, cos_coeffs, sin_coeffs):
    """Append the one-mode c_n and d_n of the mode of amplitude ``amp``; yield max(|c_n|, |d_n|)."""
    x_m = abs(amp) ** 2 / (1.0 - s)
    shift = -2.0 * state.amplitude_sq_sum
    log_scale = 2.0 * math.log(normalization_constant(state)) + 0.5 * math.log(0.5 * math.pi)
    cross = state.weight_overlap
    re_sign, log_re = LogScaledValue.from_value(2.0 * cross.real)
    im_sign, log_im = LogScaledValue.from_value(2.0 * cross.imag)
    imb_sign, log_imb = LogScaledValue.from_value(abs(state.mu) ** 2 - abs(state.nu) ** 2)
    c_label, d_label = f"one-mode c_{{n}} at s={s!r}", f"one-mode d_{{n}} at s={s!r}"
    n = 1
    while True:
        sign_p, plus, sign_m, minus = _segment(x_m, n)
        for log_p, log_m in zip(plus, minus):
            if n % 2 == 0:
                interf_log = log_re + log_m + shift
                c_n = _fused(sign_p, log_p, re_sign * sign_m, interf_log, log_scale, c_label, n)
                d_n = 0.0
            else:
                c_n = _fused(imb_sign * sign_p, log_imb + log_p, 0, 0.0, log_scale, c_label, n)
                d_log = log_im + log_m + shift
                d_n = _fused(im_sign * sign_m, d_log, 0, 0.0, log_scale, d_label, n)
            cos_coeffs.append(c_n)
            sin_coeffs.append(d_n)
            yield max(abs(c_n), abs(d_n))
            n += 1


def _truncate(magnitudes, policy: TruncationPolicy | None) -> float:
    """Draw each row's max(|c_n|, |d_n|) for n = 1, 2, ... from ``magnitudes``; return the tail.

    It stops at the first n >= max(n_min, 2) where the larger of rows n - 1
    and n, the tail, is below eps_tail, or raises NoConvergenceError by n_max.
    """
    policy = policy or TruncationPolicy()
    if policy.n_max < 2:
        raise NoConvergenceError(f"the two-term tail test needs n_max >= 2, got {policy.n_max}")
    prev = next(magnitudes)
    for n, mag in zip(range(2, policy.n_max + 1), magnitudes):
        tail = mag if mag > prev else prev
        if tail < policy.eps_tail and n >= policy.n_min:
            return tail
        prev = mag
    raise NoConvergenceError(
        f"spectrum tail still {tail:.3e} above eps_tail={policy.eps_tail:g} at n_max={policy.n_max}"
    )


def fourier_coefficient(state: QuasiBellState, s: float, n: int, branch: str) -> float:
    """Coefficient c_n of the phase-sum (plus) or phase-difference (minus) series.

    c_n = N^2 (pi/2) [comb_plus(n, x_a) comb_plus(n, x_b)
          + (+-1)^n 2 Re(mu nu*) e^(-2(|alpha|^2+|beta|^2))
            comb_minus(n, x_a) comb_minus(n, x_b)]

    with x_a = |alpha|^2/(1-s), x_b = |beta|^2/(1-s).  The suppression factor
    e^(-2(...)) is fused with the log-scaled minus combinations before
    anything is exponentiated.
    """
    sign = _branch_sign(branch)
    s = _require_s_below_one(s)
    n = _positive_int(n, "coefficient index n")
    coeffs: list[float] = []
    next(_pair_rows(state, s, branch, sign, coeffs, n))
    return coeffs[0]


def build_spectrum(
    state: QuasiBellState,
    s: float,
    branch: str,
    policy: TruncationPolicy | None = None,
) -> FourierSpectrum:
    """Compute c_1..c_N until the two-term tail test passes.

    Raises NoConvergenceError if the tail is still above ``eps_tail`` at
    ``n_max``.
    """
    sign = _branch_sign(branch)
    s = _require_s_below_one(s)
    phi_prime = (cmath.phase(state.beta) + sign * cmath.phase(state.alpha)) % _TWO_PI
    coeffs: list[float] = []
    tail = _truncate(_pair_rows(state, s, branch, sign, coeffs), policy)
    return FourierSpectrum(
        branch=branch,
        phi_prime=phi_prime,
        coeffs=coeffs,
        n_used=len(coeffs),
        tail_bound=tail,
        state=state,
        s=s,
    )


def _horner(coeffs, z):
    """sum_n coeffs[n-1] z^n, n >= 1, on the array z by Horner's rule: one add, one multiply a term.

    The product goes to a second buffer, not back into its operand: numpy
    runs an in-place multiply of one element as a reduction, which rounds
    differently from its multiply on longer arrays, and a scalar phi is
    summed as a one-element array.
    """
    import numpy as np

    acc, spare = np.zeros_like(z), np.empty_like(z)
    for a in reversed(coeffs):
        np.add(acc, a, acc)
        np.multiply(acc, z, spare)
        acc, spare = spare, acc
    return acc


def _eval_series(coeffs, phi_ref: float, phi):
    """(1/2pi)[1 + 2 Re sum_n a_n e^(i n delta)], delta = phi - phi_ref wrapped.

    With a_n = c_n - i d_n the real part is sum_n (c_n cos n delta + d_n sin n delta).
    """
    import numpy as np

    phi = np.asarray(phi, dtype=float)
    # Summed as a 1-d array whatever phi's shape: numpy's complex multiply
    # rounds differently on 0-d operands.
    z = np.exp(1j * wrap_angle(phi.reshape(-1) - phi_ref))
    out = 2.0 * _horner(coeffs, z).real
    out = np.divide(np.add(out, 1.0, out), _TWO_PI, out).reshape(phi.shape)
    return float(out) if out.ndim == 0 else out


def eval_phase_dist(spectrum: FourierSpectrum, phi):
    """Evaluate (1/2pi)[1 + 2 sum_n c_n cos n(phi - phi_prime)].

    ``phi`` may be any real scalar or array; the offset is reduced to
    (-pi, pi] and the series is summed without per-term trig calls.
    """
    return _eval_series(spectrum.coeffs, spectrum.phi_prime, phi)


def one_mode_coefficients(
    state: QuasiBellState,
    s: float,
    mode: int,
    policy: TruncationPolicy | None = None,
) -> OneModeSpectrum:
    """Cosine/sine coefficients of the one-mode phase distribution.

    Even cosine coefficients carry the interference term, odd cosine
    coefficients the weight imbalance |mu|^2 - |nu|^2, and odd sine
    coefficients Im(mu nu*); even sine terms are absent.  Truncation uses
    max(|c_n|, |d_n|).
    """
    s = _require_s_below_one(s)
    mode = _require_mode(mode)
    amp = state.alpha if mode == 1 else state.beta
    cos_coeffs, sin_coeffs = [], []
    _truncate(_one_mode_rows(state, s, amp, cos_coeffs, sin_coeffs), policy)
    return OneModeSpectrum(
        mode=mode,
        phi_ref=cmath.phase(amp) % _TWO_PI,
        cos_coeffs=cos_coeffs,
        sin_coeffs=sin_coeffs,
        n_used=len(cos_coeffs),
        state=state,
        s=s,
    )


def eval_one_mode_dist(spectrum: OneModeSpectrum, phi):
    """Evaluate the one-mode distribution at phi (scalar or array)."""
    column = [complex(c, -d) for c, d in zip(spectrum.cos_coeffs, spectrum.sin_coeffs)]
    return _eval_series(column, spectrum.phi_ref, phi)


def _coefficient(spectrum: FourierSpectrum, k: int) -> float:
    if k <= spectrum.n_used:
        return spectrum.coeffs[k - 1]
    return fourier_coefficient(spectrum.state, spectrum.s, k, spectrum.branch)


def trig_moments(spectrum: FourierSpectrum, n: int) -> TrigMoments:
    """Central trigonometric moments of order n.

    <cos n(phi-phi')> = c_n and <sin n(phi-phi')> = 0; the variances need
    c_2n, which is recomputed on demand if it falls past the truncation.
    """
    n = _positive_int(n, "moment order")
    c_n = _coefficient(spectrum, n)
    c_2n = _coefficient(spectrum, 2 * n)
    return TrigMoments(
        mean_cos=c_n,
        mean_sin=0.0,
        var_cos=0.5 * (1.0 - 2.0 * c_n**2 + c_2n),
        var_sin=0.5 * (1.0 - c_2n),
    )


def phase_mean_var(spectrum: FourierSpectrum, phi0: float) -> PhaseStats:
    """Mean and variance of the phase over the window [phi0 - pi, phi0 + pi).

    mean = phi0 + 2 sum_n ((-1)^n / n) c_n sin n(phi0 - phi_prime)
    variance = pi^2/3 - (mean - phi0)^2
               + 4 sum_n ((-1)^n / n^2) c_n cos n(phi0 - phi_prime)

    Each sum is taken by ``math.fsum``, correctly rounded.  OverflowError,
    naming phi0, if either result is not finite; DomainError if phi0 is not
    finite, or so large that n (phi0 - phi_prime) passes the float range.
    """
    phi0 = float(phi0)
    if not math.isfinite(phi0):
        raise DomainError(f"window center must be finite, got {phi0!r}")
    delta0 = phi0 - spectrum.phi_prime
    if math.isinf(len(spectrum.coeffs) * delta0):
        raise DomainError(f"window center {phi0!r} is so large that n (phi0 - phi_prime) overflows")
    terms = [(-1.0 if n % 2 else 1.0, n, c) for n, c in enumerate(spectrum.coeffs, start=1)]
    try:
        shift = 2.0 * math.fsum(sign / n * c * math.sin(n * delta0) for sign, n, c in terms)
        variance = (
            math.pi**2 / 3.0
            - shift * shift
            + 4.0 * math.fsum(sign / n**2 * c * math.cos(n * delta0) for sign, n, c in terms)
        )
    except OverflowError:  # a partial sum in fsum passed the float range
        shift = variance = math.inf
    mean = phi0 + shift
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise OverflowError(
            f"phase mean {mean!r}, variance {variance!r} not finite at window center {phi0!r}"
        )
    return PhaseStats(mean=mean, variance=variance)
