"""Analytic s-ordered phase distributions and their moments.

The phase-sum (plus) and phase-difference (minus) distributions are Fourier
cosine series

    P(phi) = (1/2pi) [1 + 2 sum_n c_n cos n(phi - phi_prime)],

with coefficients built from the scaled Bessel combinations of
:mod:`catphase.specfun`; the one-mode distributions add odd-index sine
terms.  One row reader per Bessel argument x reads the combinations table
segment by table segment: the first n of each cached table comes through the
scalar :func:`~catphase.specfun.i_n_combo` (which checks it and picks the
table), the rest straight from that table.  A row generator per spectrum
fuses one row of each reader into (c_n,) for a pair branch or (c_n, d_n) for
a mode; one truncation loop draws rows until two consecutive ones drop below
``eps_tail`` (the decay is super-geometric, so a two-term test is safe
against even/odd alternation) and makes one array per column, and one
Clenshaw evaluator sums either series.  Spectra carry their construction
context so moments can recompute coefficients on demand.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoConvergenceError
from .quasiprob import _require_s_below_one
from .specfun import (
    LogScaledValue,
    _branch_sign,
    _combo_table,
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
        if not (self.eps_tail > 0.0 and math.isfinite(self.eps_tail)):
            raise ValueError(f"eps_tail must be positive, got {self.eps_tail!r}")
        if not (1 <= self.n_min <= self.n_max):
            raise ValueError(
                f"need 1 <= n_min <= n_max, got n_min={self.n_min!r}, n_max={self.n_max!r}"
            )


@dataclass(frozen=True)
class FourierSpectrum:
    """Truncated cosine spectrum of a phase-sum/difference distribution.

    ``coeffs[n-1]`` is c_n for n = 1..n_used; ``phi_prime`` is the reference
    phase phi_beta +/- phi_alpha reduced to [0, 2pi).  The construction
    context (state, s) is kept so higher coefficients can be recomputed on
    demand by :func:`trig_moments`.
    """

    branch: str
    phi_prime: float
    coeffs: np.ndarray
    n_used: int
    tail_bound: float
    state: QuasiBellState
    s: float


@dataclass(frozen=True)
class OneModeSpectrum:
    """Truncated cosine+sine spectrum of a one-mode phase distribution.

    ``cos_coeffs[n-1]`` and ``sin_coeffs[n-1]`` hold c_n and d_n for
    n = 1..n_used; d_n vanishes identically for even n.
    """

    mode: int
    phi_ref: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    n_used: int
    state: QuasiBellState
    s: float

    @property
    def c_even(self) -> np.ndarray:
        """Coefficients c_2, c_4, ..."""
        return self.cos_coeffs[1::2]

    @property
    def c_odd(self) -> np.ndarray:
        """Coefficients c_1, c_3, ..."""
        return self.cos_coeffs[0::2]

    @property
    def d_odd(self) -> np.ndarray:
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
    """Reduce angles to (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    out = np.mod(phi, _TWO_PI)
    out = np.where(out > math.pi, out - _TWO_PI, out)
    return out if out.ndim else float(out)


def _fused(sign_a, log_a, sign_b, log_b, log_scale: float, label: str, n: int) -> float:
    """exp(log_scale) * (sign_a e^log_a + sign_b e^log_b), exponentiating only fused exponents.

    A term whose sign is 0 is absent.  The sum of two terms, each at most 1 in
    magnitude after the peak is taken out, is one correctly rounded float
    addition, the value ``math.fsum`` gives.  ``label.format(n=n)`` names the
    coefficient in the OverflowError.
    """
    if sign_a == 0:
        sign_a, log_a, sign_b = sign_b, log_b, 0
    if sign_a == 0:
        return 0.0
    peak = log_b if sign_b != 0 and log_b > log_a else log_a
    acc = sign_a * math.exp(log_a - peak)
    if sign_b != 0:
        acc += sign_b * math.exp(log_b - peak)
    if acc == 0.0:
        return 0.0
    total_log = peak + log_scale + math.log(abs(acc))
    if total_log > _LOG_MAX:
        raise OverflowError(
            f"{label.format(n=n)}: fused exponent {total_log:.6g} exceeds the float range; "
            "the coefficient is astronomically large this close to s = 1"
        )
    return math.copysign(math.exp(total_log), acc)


def _combo_rows(x: float, n: int):
    """Rows (sign_plus, log_plus, sign_minus, log_minus) of the combinations at x, for n, n + 1, ...

    Each row comes from the table that i_n_combo reads for its n, so it has
    i_n_combo's bits.  i_n_combo serves the first n of every table, which
    applies its checks (x >= 0, n <= 2**16) and gives the zeros at x = 0; the
    rest of that table is read straight from the cache.
    """
    while True:
        first = (*i_n_combo(n, x, "plus"), *i_n_combo(n, x, "minus"))
        yield first
        top = _table_top(n)
        if x == 0.0:
            yield from repeat(first, top - n)
        else:
            plus, minus = _combo_table(x, top)
            yield from zip(repeat(1), plus[n:], repeat(1), minus[n:])
        n = top + 1


def _pair_rows(state: QuasiBellState, s: float, branch: str, sign: int, n: int = 1):
    """Rows (c_n,) of the phase-sum (plus, sign 1) or difference (minus, sign -1) series from n."""
    x_a = abs(state.alpha) ** 2 / (1.0 - s)
    x_b = abs(state.beta) ** 2 / (1.0 - s)
    shift = -2.0 * state.amplitude_sq_sum
    w_sign, log_w = LogScaledValue.from_value(2.0 * state.weight_overlap.real)
    log_scale = 2.0 * math.log(normalization_constant(state)) + math.log(0.5 * math.pi)
    label = f"c_{{n}}^({branch}) at s={s!r}"
    for n, (sign_pa, log_pa, sign_ma, log_ma), (sign_pb, log_pb, sign_mb, log_mb) in zip(
        count(n), _combo_rows(x_a, n), _combo_rows(x_b, n)
    ):
        interf_sign = sign**n * w_sign * sign_ma * sign_mb
        interf_log = log_w + log_ma + log_mb + shift
        c_n = _fused(
            sign_pa * sign_pb, log_pa + log_pb, interf_sign, interf_log, log_scale, label, n
        )
        yield (c_n,)


def _one_mode_rows(state: QuasiBellState, s: float, amp: complex):
    """Rows (c_n, d_n) of the one-mode series of the mode of amplitude ``amp``, for n = 1, 2, ..."""
    x_m = abs(amp) ** 2 / (1.0 - s)
    shift = -2.0 * state.amplitude_sq_sum
    log_scale = 2.0 * math.log(normalization_constant(state)) + 0.5 * math.log(0.5 * math.pi)
    cross = state.weight_overlap
    re_sign, log_re = LogScaledValue.from_value(2.0 * cross.real)
    im_sign, log_im = LogScaledValue.from_value(2.0 * cross.imag)
    imb_sign, log_imb = LogScaledValue.from_value(abs(state.mu) ** 2 - abs(state.nu) ** 2)
    c_label = f"one-mode c_{{n}} at s={s!r}"
    d_label = f"one-mode d_{{n}} at s={s!r}"
    for n, (sign_p, log_p, sign_m, log_m) in enumerate(_combo_rows(x_m, 1), start=1):
        if n % 2 == 0:
            interf_log = log_re + log_m + shift
            c_n = _fused(sign_p, log_p, re_sign * sign_m, interf_log, log_scale, c_label, n)
            yield c_n, 0.0
        else:
            yield (
                _fused(imb_sign * sign_p, log_imb + log_p, 0, 0.0, log_scale, c_label, n),
                _fused(im_sign * sign_m, log_im + log_m + shift, 0, 0.0, log_scale, d_label, n),
            )


def _truncate(rows, policy: TruncationPolicy | None) -> tuple[list[np.ndarray], float]:
    """One array per column of the rows drawn from ``rows`` for n = 1..n_used, and the tail there.

    They stop at the first n >= max(n_min, 2) where every entry of rows n - 1
    and n is below eps_tail in magnitude, or raise NoConvergenceError by n_max.
    """
    policy = policy or TruncationPolicy()
    if policy.n_max < 2:
        raise NoConvergenceError(f"the two-term tail test needs n_max >= 2, got {policy.n_max}")
    kept = [next(rows)]
    for n in range(2, policy.n_max + 1):
        kept.append(next(rows))
        tail = max(map(abs, kept[-2] + kept[-1]))
        if n >= policy.n_min and tail < policy.eps_tail:
            return [np.array(column) for column in zip(*kept)], tail
    raise NoConvergenceError(
        f"spectrum tail still {tail:.3e} "
        f"above eps_tail={policy.eps_tail:g} at n_max={policy.n_max}"
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
    return next(_pair_rows(state, s, branch, sign, n))[0]


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
    (coeffs,), tail = _truncate(_pair_rows(state, s, branch, sign), policy)
    return FourierSpectrum(
        branch=branch,
        phi_prime=phi_prime,
        coeffs=coeffs,
        n_used=len(coeffs),
        tail_bound=tail,
        state=state,
        s=s,
    )


def _clenshaw(coeffs, cos_delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw recurrence for the series with coefficients coeffs[n-1], n >= 1.

    Returns (b1, b2) with sum_n coeffs[n-1] cos(n delta) = b1 cos(delta) - b2
    and sum_n coeffs[n-1] sin(n delta) = b1 sin(delta).
    """
    two_cos = 2.0 * cos_delta
    b1 = np.zeros_like(cos_delta)
    b2 = np.zeros_like(cos_delta)
    # t = a + 2 cos(delta) b1 - b2 in place, with the same roundings:
    # multiplying by 2.0 is exact, and a + t = t + a.
    for a in coeffs[::-1].tolist():
        t = two_cos * b1
        t += a
        t -= b2
        b1, b2 = t, b1
    return b1, b2


def _eval_series(cos_coeffs, sin_coeffs, phi_ref: float, phi):
    """(1/2pi)[1 + 2 sum_n (c_n cos n delta + d_n sin n delta)], delta = phi - phi_ref.

    ``sin_coeffs`` is None for a cosine-only series.
    """
    scalar = np.ndim(phi) == 0
    delta = wrap_angle(np.asarray(phi, dtype=float) - phi_ref)
    cos_delta = np.cos(delta)
    b1, b2 = _clenshaw(cos_coeffs, cos_delta)
    total = b1 * cos_delta - b2
    if sin_coeffs is not None:
        total = total + _clenshaw(sin_coeffs, cos_delta)[0] * np.sin(delta)
    out = (1.0 + 2.0 * total) / _TWO_PI
    return float(out) if scalar else out


def eval_phase_dist(spectrum: FourierSpectrum, phi):
    """Evaluate (1/2pi)[1 + 2 sum_n c_n cos n(phi - phi_prime)].

    ``phi`` may be any real scalar or array; the offset is reduced to
    (-pi, pi] and the series is summed without per-term trig calls.
    """
    return _eval_series(spectrum.coeffs, None, spectrum.phi_prime, phi)


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
    (cos_coeffs, sin_coeffs), _ = _truncate(_one_mode_rows(state, s, amp), policy)
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
    return _eval_series(spectrum.cos_coeffs, spectrum.sin_coeffs, spectrum.phi_ref, phi)


def _coefficient(spectrum: FourierSpectrum, k: int) -> float:
    if k <= spectrum.n_used:
        return float(spectrum.coeffs[k - 1])
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

    OverflowError, naming phi0, if either is not finite.
    """
    phi0 = float(phi0)
    if not math.isfinite(phi0):
        raise DomainError(f"window center must be finite, got {phi0!r}")
    n = np.arange(1, spectrum.n_used + 1)
    signs = np.where(n % 2 == 0, 1.0, -1.0)
    delta0 = phi0 - spectrum.phi_prime
    with np.errstate(over="ignore", invalid="ignore"):
        mean_shift = 2.0 * np.sum(signs / n * spectrum.coeffs * np.sin(n * delta0))
        variance = (
            math.pi**2 / 3.0
            - mean_shift**2
            + 4.0 * np.sum(signs / n**2 * spectrum.coeffs * np.cos(n * delta0))
        )
    mean, variance = phi0 + float(mean_shift), float(variance)
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise OverflowError(
            f"phase mean {mean!r}, variance {variance!r} not finite at window center {phi0!r}"
        )
    return PhaseStats(mean=mean, variance=variance)
