"""Analytic s-ordered phase distributions and their moments.

Each distribution is a line of the joint s-parametrized distribution of the
two mode phases (Tanas, Miranowicz & Gantsog, Prog. Opt. 35 (1996) 355),

    P(phi_a, phi_b) = (1/4pi^2) sum_(k_a, k_b) C(k_a, k_b)
                      e^(i (k_a (phi_a - arg alpha) + k_b (phi_b - arg beta))),
    C(k_a, k_b) = N^2 (pi/2) [(|mu|^2 + (-1)^(k_a+k_b) |nu|^2) P_a P_b
                  + e^(-2(|alpha|^2+|beta|^2))
                    (mu nu* f(k_a) f(k_b) + mu* nu f(-k_a) f(-k_b)) M_a M_b],

with P_j = comb_plus(|k_j|, x_j) and M_j = comb_minus(|k_j|, x_j) the scaled
Bessel combinations of :mod:`catphase.specfun` at x_a = |alpha|^2/(1-s) and
x_b = |beta|^2/(1-s), comb_plus(0, x) = comb_minus(0, x) = sqrt(2/pi), and
f(k) = (-1)^k for k > 0, else 1.  The line (p, q) keeps the rows
a_n = C(pn, qn) = c_n - i d_n and has the density

    P(phi) = (1/2pi) [1 + 2 Re sum_(n>=1) a_n e^(i n (phi - phi_ref))],
    phi_ref = p arg alpha + q arg beta:

the phase sum "plus" is (1, 1), the phase difference "minus" (-1, 1), and
modes 1 and 2 are (1, 0) and (0, 1).  The sum and difference lines have
d_n = 0 and keep only Re(mu nu*) of the weights; that is their loss of
information about the entangled state.  A mode line keeps |mu|^2 - |nu|^2 in
its odd c_n and Im(mu nu*) in its odd d_n.

One generator builds every line from the cached combinations tables, a
segment (n = 1..64, 65..128, 129..256, ...) at a time, the first n of each
through :func:`~catphase.specfun.i_n_combo`.  A mode off the line gives sign 1
and log 0.  Each row's two terms are fused in log space into plain floats, and
one truncation loop stops once two consecutive rows drop below ``eps_tail``
(the decay is super-geometric, so a two-term test is safe against even/odd
alternation).  NumPy is imported on first use by ``wrap_angle`` and the
series evaluator.

One complex Horner pass sums the series: with z = e^(i delta), delta the
wrapped offset of phi, Re sum_n a_n z^n = sum_n (c_n cos n delta + d_n sin n delta).
For |z| = 1 its rounding error is at most about gamma_(cN) sum_n |a_n|,
gamma_k = ku/(1 - ku), N terms and c a small constant (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 2002, sec. 5.1), so the density's
error is about gamma_(cN) (2 sum_n |a_n|)/2pi.  A phi that is not finite is a
DomainError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import count, cycle, repeat
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
    "Spectrum",
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


# Each line, by its branch or mode, as (p, q, re, im): row n is C(pn, qn), and at
# odd n, mu nu* f(pn) f(qn) + mu* nu f(-pn) f(-qn) = re 2 Re(mu nu*) + i im 2 Im(mu nu*).
_LINES = {"plus": (1, 1, 1, 0), "minus": (-1, 1, -1, 0), 1: (1, 0, 0, -1), 2: (0, 1, 0, -1)}


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
class Spectrum:
    """Truncated spectrum a_n = c_n - i d_n, n = 1..n_used, of one line of the joint distribution.

    ``line`` is the branch ("plus", "minus") or the mode (1, 2).  ``cos_coeffs``
    and ``sin_coeffs`` hold c_n and d_n at index n - 1; ``sin_coeffs`` is empty
    on a branch line, where every d_n vanishes.  ``phi_ref`` is in [0, 2pi);
    ``tail_bound`` is the larger max(|c_n|, |d_n|) of the last two rows.
    (state, s) let :func:`trig_moments` recompute past the truncation.
    """

    line: str | int
    phi_ref: float
    cos_coeffs: list[float]
    sin_coeffs: list[float]
    n_used: int
    tail_bound: float
    state: QuasiBellState
    s: float

    c_even = property(lambda self: self.cos_coeffs[1::2], doc="c_2, c_4, ...")
    c_odd = property(lambda self: self.cos_coeffs[0::2], doc="c_1, c_3, ...")
    d_odd = property(lambda self: self.sin_coeffs[0::2], doc="d_1, d_3, ... of a mode line")
    # Read-only aliases of cos_coeffs and phi_ref, kept only for perfbench/jobs.py.
    coeffs = property(lambda self: self.cos_coeffs)
    phi_prime = property(lambda self: self.phi_ref)


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
        if sign_b == 0:
            return 0.0
        sign_a, log_a, sign_b = sign_b, log_b, 0
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


def _segment(x: float | None, n: int):
    """(sign_plus, logs_plus, sign_minus, logs_minus) at x, from n to the top of n's table segment.

    i_n_combo serves n and checks it (x >= 0, n <= 2**16); its table, or its 0 at x = 0, the rest.
    A mode off the line (x None) has sign 1 and log 0 at every n, and calls nothing.
    """
    if x is None:
        return 1, repeat(0.0), 1, repeat(0.0)
    sign_p, log_p = i_n_combo(n, x, "plus")
    sign_m, log_m = i_n_combo(n, x, "minus")
    top = _table_top(n)
    plus, minus = _combo_table(x, top) if x else ((log_p,) * top, (log_m,) * top)
    return sign_p, plus[n - 1 :], sign_m, minus[n - 1 :]


def _rows(state: QuasiBellState, s: float, line, cos, sin, n: int = 1):
    """Append C(pn, qn) of ``line`` from row n: c_n to ``cos``, and d_n to ``sin`` on a mode line.

    Yields max(|c_n|, |d_n|).  At even n the weights are 1 and 2 Re(mu nu*); at
    odd n they are |mu|^2 - |nu|^2 (1 where p + q is even) and those of _LINES.
    """
    p, q, odd_re, odd_im = _LINES[line]
    x_a = abs(state.alpha) ** 2 / (1.0 - s) if p else None  # None: the mode is off the line
    x_b = abs(state.beta) ** 2 / (1.0 - s) if q else None
    shift = -2.0 * state.amplitude_sq_sum
    half_log = 0.5 * ((p != 0) + (q != 0))  # each mode on the line carries sqrt(pi/2)
    log_scale = 2.0 * math.log(normalization_constant(state)) + half_log * math.log(0.5 * math.pi)
    cross = state.weight_overlap
    w_sign, log_w = LogScaledValue.from_value(2.0 * cross.real)
    if odd_im:  # a mode line
        odd_sign, odd_log = LogScaledValue.from_value(abs(state.mu) ** 2 - abs(state.nu) ** 2)
        im_sign, log_im = LogScaledValue.from_value(-2.0 * odd_im * cross.imag)
        c_label, d_label = f"one-mode c_{{n}} at s={s!r}", f"one-mode d_{{n}} at s={s!r}"
    else:
        odd_sign, odd_log, im_sign = 1, 0.0, 0
        c_label = f"c_{{n}}^({line}) at s={s!r}"
    # (Gaussian sign, Gaussian log weight, interference sign, d_n sign) at even and odd n.
    even, odd = (1, 0.0, w_sign, 0), (odd_sign, odd_log, odd_re * w_sign, im_sign)
    if n % 2:
        even, odd = odd, even
    append_c, append_d = cos.append, sin.append
    while True:
        sign_pa, plus_a, sign_ma, minus_a = _segment(x_a, n)
        sign_pb, plus_b, sign_mb, minus_b = _segment(x_b, n)
        sign_p, sign_m = sign_pa * sign_pb, sign_ma * sign_mb
        weights = [(g * sign_p, log_g, h * sign_m, d * sign_m) for g, log_g, h, d in (even, odd)]
        for n, (g_sign, log_g, h_sign, d_sign), log_pa, log_ma, log_pb, log_mb in zip(
            count(n), cycle(weights), plus_a, minus_a, plus_b, minus_b
        ):
            interf_log = log_w + log_ma + log_mb + shift
            c_n = _fused(g_sign, log_g + log_pa + log_pb, h_sign, interf_log, log_scale, c_label, n)
            append_c(c_n)
            if odd_im:
                d_n = 0.0
                if d_sign:
                    d_log = log_im + log_ma + log_mb + shift
                    d_n = _fused(d_sign, d_log, 0, 0.0, log_scale, d_label, n)
                append_d(d_n)
                yield max(abs(c_n), abs(d_n))
            else:
                yield abs(c_n)
        n += 1  # the next segment starts after its last row


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


def _spectrum(state: QuasiBellState, s: float, line, policy: TruncationPolicy | None) -> Spectrum:
    """The truncated spectrum of ``line``, its arguments already checked."""
    p, q = _LINES[line][:2]
    phi_ref = (p * cmath.phase(state.alpha) + q * cmath.phase(state.beta)) % _TWO_PI
    cos, sin = [], []
    tail = _truncate(_rows(state, s, line, cos, sin), policy)
    return Spectrum(line, phi_ref, cos, sin, len(cos), tail, state, s)


def fourier_coefficient(state: QuasiBellState, s: float, n: int, branch: str) -> float:
    """c_n = C(n, n) of the phase-sum (plus) or C(-n, n) of the phase-difference (minus) line."""
    _branch_sign(branch)
    s = _require_s_below_one(s)
    n = _positive_int(n, "coefficient index n")
    cos: list[float] = []
    next(_rows(state, s, branch, cos, [], n))
    return cos[0]


def build_spectrum(
    state: QuasiBellState,
    s: float,
    branch: str,
    policy: TruncationPolicy | None = None,
) -> Spectrum:
    """The phase-sum (plus) or phase-difference (minus) spectrum c_1..c_N.

    It stops when the two-term tail test passes, and raises
    NoConvergenceError if the tail is still above ``eps_tail`` at ``n_max``.
    """
    _branch_sign(branch)
    return _spectrum(state, _require_s_below_one(s), branch, policy)


def one_mode_coefficients(
    state: QuasiBellState,
    s: float,
    mode: int,
    policy: TruncationPolicy | None = None,
) -> Spectrum:
    """The one-mode spectrum of mode 1 or 2: cosine c_n and sine d_n coefficients.

    Even cosine coefficients carry the interference term, odd cosine
    coefficients the weight imbalance |mu|^2 - |nu|^2, and odd sine
    coefficients Im(mu nu*); even sine terms are absent.  Truncation uses
    max(|c_n|, |d_n|).
    """
    s = _require_s_below_one(s)
    return _spectrum(state, s, _require_mode(mode), policy)


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


def eval_phase_dist(spectrum: Spectrum, phi):
    """Evaluate the line's density (1/2pi)[1 + 2 Re sum_n a_n e^(i n delta)], delta = phi - phi_ref.

    ``phi`` may be any real scalar or array; delta is reduced to (-pi, pi]
    and the series is summed without per-term trig calls.  A branch line
    sums its cosine coefficients as they are.
    """
    import numpy as np

    column = spectrum.cos_coeffs
    if spectrum.sin_coeffs:
        column = [complex(c, -d) for c, d in zip(column, spectrum.sin_coeffs)]
    phi = np.asarray(phi, dtype=float)
    # Summed as a 1-d array whatever phi's shape: numpy's complex multiply
    # rounds differently on 0-d operands.
    z = np.exp(1j * wrap_angle(phi.reshape(-1) - spectrum.phi_ref))
    out = 2.0 * _horner(column, z).real
    out = np.divide(np.add(out, 1.0, out), _TWO_PI, out).reshape(phi.shape)
    return float(out) if out.ndim == 0 else out


eval_one_mode_dist = eval_phase_dist  # the same evaluator, under its one-mode name


def _branch_line(spectrum: Spectrum, what: str) -> None:
    if spectrum.line not in ("plus", "minus"):
        raise DomainError(
            f"{what} needs a phase-sum or phase-difference spectrum, "
            f"got the mode {spectrum.line!r} line"
        )


def _coefficient(spectrum: Spectrum, k: int) -> float:
    if k <= spectrum.n_used:
        return spectrum.cos_coeffs[k - 1]
    return fourier_coefficient(spectrum.state, spectrum.s, k, spectrum.line)


def trig_moments(spectrum: Spectrum, n: int) -> TrigMoments:
    """Central trigonometric moments of order n of a phase-sum or phase-difference spectrum.

    <cos n(phi-phi')> = c_n and <sin n(phi-phi')> = 0; the variances need
    c_2n, which is recomputed on demand if it falls past the truncation.  A
    mode line, whose d_n these ignore, is a DomainError.
    """
    _branch_line(spectrum, "trig_moments")
    n = _positive_int(n, "moment order")
    c_n = _coefficient(spectrum, n)
    c_2n = _coefficient(spectrum, 2 * n)
    return TrigMoments(
        mean_cos=c_n,
        mean_sin=0.0,
        var_cos=0.5 * (1.0 - 2.0 * c_n**2 + c_2n),
        var_sin=0.5 * (1.0 - c_2n),
    )


def phase_mean_var(spectrum: Spectrum, phi0: float) -> PhaseStats:
    """Mean and variance of the phase over the window [phi0 - pi, phi0 + pi).

    mean = phi0 + 2 sum_n ((-1)^n / n) c_n sin n(phi0 - phi_prime)
    variance = pi^2/3 - (mean - phi0)^2
               + 4 sum_n ((-1)^n / n^2) c_n cos n(phi0 - phi_prime)

    Each sum is taken by ``math.fsum``, correctly rounded.  OverflowError,
    naming phi0, if either result is not finite; DomainError if phi0 is not
    finite, or so large that n (phi0 - phi_prime) passes the float range, or
    if the spectrum is a mode line, whose d_n these sums ignore.
    """
    _branch_line(spectrum, "phase_mean_var")
    phi0 = float(phi0)
    if not math.isfinite(phi0):
        raise DomainError(f"window center must be finite, got {phi0!r}")
    delta0 = phi0 - spectrum.phi_ref
    if math.isinf(len(spectrum.cos_coeffs) * delta0):
        raise DomainError(f"window center {phi0!r} is so large that n (phi0 - phi_prime) overflows")
    terms = [(-1.0 if n % 2 else 1.0, n, c) for n, c in enumerate(spectrum.cos_coeffs, start=1)]
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
