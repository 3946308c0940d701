"""Modified Bessel ratios and the log-scaled combinations built from them.

Everything here is scalar and pure.  The quantities that grow like exp(+2x)
are carried as :class:`LogScaledValue` (sign, natural-log magnitude) pairs so
that callers can fuse exponents before ever materializing a float; the
growing branch of the Bessel combination is always multiplied downstream by
a compensating exp(-2(|alpha|^2+|beta|^2)) factor.  Arguments are checked by
the rules of :mod:`catphase.errors`, the only package module imported here.

Two independent evaluation routes are provided for the combination

    comb_plus(n, x)  = sqrt(x) e^(-x) (I_((n-1)/2)(x) + I_((n+1)/2)(x))
    comb_minus(n, x) = sqrt(x) e^(+x) (I_((n-1)/2)(x) - I_((n+1)/2)(x))

one through scaled Bessel functions (:func:`i_n_combo`) and one through
Kummer's confluent hypergeometric function (:func:`i_n_combo_kummer`); their
agreement is a library-level invariant.

The Bessel route serves every n <= top at one x from one cached table, top
the smallest power of two >= max(n, 64): per order chain (integer and
half-integer nu) one continued fraction at the top order, then the downward
recurrences for r = I_(nu+1)/I_nu and u = 1 - r (Gautschi, SIAM Rev. 9
(1967) 24; Gil, Segura & Temme, Numerical Methods for Special Functions,
2007, ch. 4), with log I_0 and the elementary log I_(1/2) as the only series
or closed form.  Against 40-digit mpmath, for n <= 512 and 1e-8 <= x <= 2000,
the log magnitude is within 9.1e-13 on the plus branch and 5.9e-12 on the
minus branch (at n = 1, x = 2000, where the seed's 1e-15 tolerance is
amplified on the way down); the per-n route it replaced measured 9.1e-13 and
5.5e-12.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .errors import (
    _INDEX_CAP,
    DomainError,
    NoConvergenceError,
    _branch_sign,
    _finite,
    _integer,
    _number,
)

__all__ = [
    "LogScaledValue",
    "bessel_i_ratio",
    "i_n_combo",
    "i_n_combo_kummer",
]

# Series terms below _TAIL_REL * partial_sum for _TAIL_RUN consecutive terms
# terminate a summation; _SERIES_CAP guards against runaway series.
_TAIL_REL = 1e-17
_TAIL_RUN = 3
_SERIES_CAP = 10000

_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)

# i_n_combo tables cover n = 1..top, top a power of two >= _TABLE_MIN_TOP.
_TABLE_MIN_TOP = 64


class LogScaledValue(NamedTuple):
    """A real number carried as (sign, log of absolute value).

    ``sign`` is -1, 0 or +1; ``log_mag`` is the natural log of the absolute
    value and is ``-inf`` (and ignored) when ``sign == 0``.  A plain tuple, so
    callers can unpack it as ``sign, log_mag = value``.
    """

    sign: int
    log_mag: float

    @classmethod
    def zero(cls) -> "LogScaledValue":
        return cls(0, -math.inf)

    @classmethod
    def from_value(cls, value: float) -> "LogScaledValue":
        """(sign, log |value|); DomainError if ``value`` is not a real number, NaN or infinite."""
        value = _finite(value, "value")
        if value == 0.0:
            return cls.zero()
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    def scaled(self, log_factor: float) -> "LogScaledValue":
        """Multiply by exp(log_factor) without leaving log space.

        DomainError if ``log_factor`` is not a real number, NaN or infinite.
        OverflowError, naming log_mag and log_factor, if their sum is not
        finite, so the result's log is always finite.
        """
        log_factor = _finite(log_factor, "log_factor")
        if self.sign == 0:
            return self
        log_mag = self.log_mag + log_factor
        if not math.isfinite(log_mag):
            raise OverflowError(
                f"log_mag + log_factor = {self.log_mag!r} + {log_factor!r} is not finite"
            )
        return LogScaledValue(self.sign, log_mag)


def _check_half_order(order: float) -> int:
    """Validate an integer-or-half-integer order >= 0; return 2*order."""
    _number(order, "order")
    twice = round(2.0 * order) if math.isfinite(2.0 * order) else -1  # round(inf) raises
    if abs(2.0 * order - twice) > 1e-12 or twice < 0:
        raise DomainError(f"order must be a non-negative integer or half-integer, got {order!r}")
    return int(twice)


def bessel_i_ratio(order: float, x: float) -> float:
    """Ratio I_(order+1)(x) / I_order(x) in (0, 1), by continued fraction.

    Modified Lentz iteration on the standard Gauss continued fraction for
    adjacent modified Bessel functions, started from its first partial
    denominator (Thompson & Barnett, J. Comput. Phys. 64 (1986) 490) and
    converged to a relative 1e-15.  Where b_2 = 2(order + 2)/x overflows, the
    ratio is its leading term x/(2(order + 1)) to far below rounding.
    """
    nu = 0.5 * _check_half_order(order)
    if not _finite(x, "x") > 0.0:
        raise DomainError(f"bessel_i_ratio needs x > 0, got {x!r}")
    x = float(x)  # a NumPy float32 would carry the iteration in single precision
    if not math.isfinite(2.0 * (nu + 2.0) / x):
        return x / (2.0 * (nu + 1.0))

    # r = 1 / g with g = b_1 + 1 / (b_2 + 1 / (b_3 + ...)) and b_j = 2 (nu + j) / x.
    # Every b_j is positive, so neither c nor d can vanish.
    g = c = 2.0 * (nu + 1.0) / x
    d = 0.0
    for j in range(2, _SERIES_CAP + 1):
        b = 2.0 * (nu + j) / x
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        g *= delta
        if abs(delta - 1.0) < 1e-15:
            return 1.0 / g
    raise NoConvergenceError(
        f"bessel_i_ratio(order={order}, x={x}) did not converge in {_SERIES_CAP} iterations"
    )


def _log_seeds(x: float) -> tuple[float, float]:
    """log(e^(-x) I_0(x)) and log(e^(-x) I_(1/2)(x)) at finite x > 0: the chain seeds.

    e^(-x) I_(1/2)(x) = (1 - e^(-2x)) / sqrt(2 pi x) is elementary.  For I_0,
    below x = 40 the ascending series sum_k (x^2/4)^k / k!^2 is summed in
    plain floats with Neumaier compensation (its partial sums stay under
    I_0(40) ~ 1.5e16); from x = 40 the asymptotic expansion
    sqrt(2 pi x) e^(-x) I_0(x) ~ sum_k prod_(j<=k) (2j-1)^2 / (8xj), whose
    terms fall below rounding within 16 terms, long before they turn to grow
    (at k ~ 2x).  Each sum stops once _TAIL_RUN terms in a row fail to reach
    _TAIL_REL of it, so a NaN x ends in NaN seeds rather than looping.
    """
    log_norm = -0.5 * math.log(2.0 * math.pi * x)
    log_half = log_norm + math.log(-math.expm1(-2.0 * x))
    term = total = 1.0
    small_run = 0
    if x >= 40.0:
        for k in itertools.count(1):
            term *= (2.0 * k - 1.0) ** 2 / (8.0 * x * k)
            total += term
            small_run = 0 if term >= _TAIL_REL * total else small_run + 1
            if small_run >= _TAIL_RUN:
                return log_norm + math.log(total), log_half
    q = 0.25 * x * x
    comp = 0.0
    for k in itertools.count(1):
        term *= q / (k * k)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        small_run = 0 if term >= _TAIL_REL * total else small_run + 1
        if small_run >= _TAIL_RUN:
            return math.log(total + comp) - x, log_half


def _check_combo_args(n: int, x: float) -> tuple[int, float]:
    """(n, x) as a Python int and float, once 1 <= n <= 2**16 and x >= 0 are checked."""
    n = _integer(n, "combination index n", 1, _INDEX_CAP)
    if _finite(x, "combination argument x") < 0.0:
        raise DomainError(f"combination argument x must be finite and >= 0, got {x!r}")
    return n, float(x)


def _table_top(n: int) -> int:
    """Rows of the table that serves index n: 64 for n <= 64, else the next power of two."""
    return _TABLE_MIN_TOP if n <= _TABLE_MIN_TOP else 1 << (n - 1).bit_length()


@functools.lru_cache(maxsize=16)
def _combo_table(x: float, top: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """log_mag of the plus and minus combinations at x > 0 for n = 1..top (index n - 1).

    Each order chain (nu integer, nu half-integer) is seeded with one continued
    fraction r = I_(nu+1)/I_nu at its highest order and run down with
    r_(nu-1) = 1/(2nu/x + r_nu) and u_(nu-1) = (2nu/x - u_nu)/(2nu/x + r_nu),
    u = 1 - r, so the minus branch reads log u without cancellation.  log I_nu
    is log I_0 or the elementary log I_(1/2) plus the running sum of log r.
    Where the recurrence's largest 2nu/x passes the float range (x below
    about 1e-303), both branches are the leading term sqrt(x) (x/2)^nu /
    Gamma(nu + 1) of sqrt(x) I_nu(x), nu = (n - 1)/2; the terms dropped are a
    relative O(x), far below rounding.  The entries depend on (x, top) alone.
    """
    half_log_x = 0.5 * math.log(x)
    if math.isinf((top - 1) / x):
        log_half_x = math.log(x) - math.log(2.0)  # x / 2 loses bits when x is subnormal
        row = tuple(
            half_log_x + 0.5 * k * log_half_x - math.lgamma(0.5 * k + 1.0) for k in range(top)
        )
        return row, row
    plus = [0.0] * top  # first r_nu, then log_mag of the plus branch, at index n - 1 = 2 nu
    minus = [0.0] * top  # first u_nu, then log_mag of the minus branch
    for low, seed in enumerate(_log_seeds(x)):
        r = bessel_i_ratio(0.5 * (top - 2 + low), x)
        u = 1.0 - r
        for two_nu in range(top - 2 + low, -1, -2):
            plus[two_nu], minus[two_nu] = r, u
            a = two_nu / x
            u = (a - u) / (a + r)
            r = 1.0 / (a + r)
        total, comp = seed, 0.0  # Neumaier running sum of log r
        for two_nu in range(low, top, 2):
            r, u = plus[two_nu], minus[two_nu]
            log_ive = total + comp
            plus[two_nu] = half_log_x + log_ive + math.log1p(r)
            minus[two_nu] = half_log_x + 2.0 * x + log_ive + math.log(u)
            step = math.log(r)
            t = total + step
            if abs(total) >= abs(step):
                comp += (total - t) + step
            else:
                comp += (step - t) + total
            total = t
    return tuple(plus), tuple(minus)


def i_n_combo(n: int, x: float, branch: str) -> LogScaledValue:
    """Bessel-route combination, log-scaled.

    plus branch:  sqrt(x) e^(-x) (I_((n-1)/2)(x) + I_((n+1)/2)(x))
    minus branch: sqrt(x) e^(+x) (I_((n-1)/2)(x) - I_((n+1)/2)(x))

    Read from a cached table of every n up to the smallest power of two
    >= max(n, 64) at this x (:func:`_combo_table`): one continued fraction
    per order chain, a downward ratio recurrence, and log I_0 and the
    elementary log I_(1/2).  The value depends on (n, x, branch) alone, never
    on what was cached before.  The minus branch carries 1 - I_((n+1)/2) /
    I_((n-1)/2) through its own recurrence, so it has no cancellation at large
    x.  Against 40-digit mpmath the log magnitude is within 9.1e-13 (plus) and
    5.9e-12 (minus) for n <= 512 and 1e-8 <= x <= 2000.  Both branches are
    non-negative; the value is exactly zero at x = 0.  n above 2**16 raises
    DomainError, which bounds the table size.  ``n`` may be any integer type
    but bool.

    This is the scalar API.  The spectra of :mod:`catphase.phasedist` call it
    once per table segment, for the first n the segment serves, and read the
    rest of that segment from the same table, chosen by the same rule
    (:func:`_table_top`); so every check stays here.
    """
    sign = _branch_sign(branch)
    n, x = _check_combo_args(n, x)
    if x == 0.0:
        return LogScaledValue.zero()
    plus, minus = _combo_table(x, _table_top(n))
    return LogScaledValue(1, (plus if sign > 0 else minus)[n - 1])


def _kummer_series_log(a: float, b: float, x: float) -> LogScaledValue:
    """Log-scaled ascending series sum_k (a)_k x^k / ((b)_k k!) for x >= 0."""
    term = 1.0
    total = 1.0
    comp = 0.0
    offset = 0.0
    small_run = 0
    for k in range(_SERIES_CAP):
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if abs(term) < _TAIL_REL * abs(total):
            small_run += 1
            if small_run >= _TAIL_RUN:
                value = total + comp
                if value == 0.0:
                    return LogScaledValue.zero()
                return LogScaledValue(1 if value > 0 else -1, math.log(abs(value)) + offset)
        else:
            small_run = 0
        if abs(total) > 1e280:
            total *= 1e-280
            comp *= 1e-280
            term *= 1e-280
            offset += 280.0 * math.log(10.0)
    raise NoConvergenceError(f"Kummer series for a={a}, b={b}, x={x} exceeded {_SERIES_CAP} terms")


def _kummer_m_log(a: float, b: float, x: float) -> LogScaledValue:
    """Kummer's confluent hypergeometric function M(a, b, x), log-scaled.

    For x >= 0 the defining ascending series is summed directly; for x < 0
    the Kummer transformation M(a, b, x) = e^x M(b - a, b, -x) is applied
    first so the series again has same-sign terms in this artifact's domain
    (a = n/2 + 1, b = n + 1).
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(x)):
        raise DomainError("Kummer's M(a, b, x) requires finite arguments")
    if b <= 0.0 and b == round(b):
        raise DomainError(f"b must not be a non-positive integer, got {b!r}")
    if x >= 0.0:
        return _kummer_series_log(a, b, x)
    return _kummer_series_log(b - a, b, -x).scaled(x)


def i_n_combo_kummer(n: int, x: float, branch: str) -> LogScaledValue:
    """Kummer-route combination, log-scaled; independent cross-check of i_n_combo.

    Evaluates sqrt(2/pi) Gamma(n/2+1)/Gamma(n+1) (2x)^(n/2) e^(-+2x)
    M(n/2+1, n+1, +-2x) with the gamma ratio taken through log-gamma.

    A reference only: the Kummer series needs about 2x terms, so from
    x ~ 4.6e3 (n <= 100) it passes the 10,000-term cap and raises
    NoConvergenceError, where the Bessel route still converges.  Its
    arguments are checked as i_n_combo's, n <= 2**16 included.
    """
    sign = _branch_sign(branch)
    n, x = _check_combo_args(n, x)
    if x == 0.0:
        return LogScaledValue.zero()
    log_pref = (
        _LOG_SQRT_2_OVER_PI
        + math.lgamma(0.5 * n + 1.0)
        - math.lgamma(n + 1.0)
        + 0.5 * n * math.log(2.0 * x)
    )
    m = _kummer_m_log(0.5 * n + 1.0, n + 1.0, sign * 2.0 * x)
    return m.scaled(log_pref - sign * 2.0 * x)
