"""Modified Bessel ratios and the log-scaled combinations built from them.

Everything here is scalar and pure.  The quantities that grow like exp(+2x)
are carried as :class:`LogScaledValue` (sign, natural-log magnitude) pairs so
that callers can fuse exponents before ever materializing a float; the
growing branch of the Bessel combination is always multiplied downstream by
a compensating exp(-2(|alpha|^2+|beta|^2)) factor.

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
import math
import operator
from typing import NamedTuple

from .errors import DomainError, NoConvergenceError

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

# i_n_combo tables cover n = 1..top, top a power of two >= _TABLE_MIN_TOP;
# n past _N_CAP is refused, so one table holds at most 2 * _N_CAP floats.
_TABLE_MIN_TOP = 64
_N_CAP = 1 << 16


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
        """(sign, log |value|); DomainError if ``value`` is NaN or infinite."""
        if value == 0.0:
            return cls.zero()
        if not math.isfinite(value):
            raise DomainError(f"log-scaled value must be finite, got {value!r}")
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    def scaled(self, log_factor: float) -> "LogScaledValue":
        """Multiply by exp(log_factor) without leaving log space."""
        if self.sign == 0:
            return self
        return LogScaledValue(self.sign, self.log_mag + log_factor)


def _check_half_order(order: float) -> int:
    """Validate an integer-or-half-integer order >= 0; return 2*order."""
    twice = round(2.0 * order) if math.isfinite(order) else -1
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
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"bessel_i_ratio needs x > 0, got {x!r}")
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


def _log_ive_series(nu: float, x: float) -> float:
    """log(e^(-x) I_nu(x)) by the ascending power series, x > 0.

    All terms are positive, so the sum is computed in plain floats with
    Neumaier compensation and rescaled on the fly if it threatens overflow.
    """
    log_t0 = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0) - x
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    comp = 0.0
    offset = 0.0
    small_run = 0
    for k in range(1, _SERIES_CAP + 1):
        term *= q / (k * (nu + k))
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if term < _TAIL_REL * total:
            small_run += 1
            if small_run >= _TAIL_RUN:
                return log_t0 + offset + math.log(total + comp)
        else:
            small_run = 0
        if total > 1e280:
            total *= 1e-280
            comp *= 1e-280
            term *= 1e-280
            offset += 280.0 * math.log(10.0)
    raise NoConvergenceError(f"Bessel series for nu={nu}, x={x} exceeded {_SERIES_CAP} terms")


def _log_ive_asymptotic(nu: float, x: float) -> float | None:
    """log(e^(-x) I_nu(x)) by the large-x asymptotic expansion.

    Returns None when the expansion fails to reach full precision before its
    terms start growing (caller falls back to the series).
    """
    mu4 = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    prev_mag = 1.0
    small_run = 0
    for k in range(1, 200):
        term *= -(mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * x * k)
        mag = abs(term)
        if mag > prev_mag:
            return None
        total += term
        prev_mag = mag
        if mag < _TAIL_REL * abs(total):
            small_run += 1
            if small_run >= _TAIL_RUN:
                return -0.5 * math.log(2.0 * math.pi * x) + math.log(total)
        else:
            small_run = 0
    return None


def _log_ive(two_nu: int, x: float) -> float:
    """log(e^(-x) I_(two_nu/2)(x)) for x > 0."""
    if two_nu == 1:
        # Elementary: e^(-x) I_(1/2)(x) = (1 - e^(-2x)) / sqrt(2 pi x).
        return -0.5 * math.log(2.0 * math.pi * x) + math.log(-math.expm1(-2.0 * x))
    nu = 0.5 * two_nu
    if x >= 40.0 and x >= 2.0 * nu * nu:
        res = _log_ive_asymptotic(nu, x)
        if res is not None:
            return res
    return _log_ive_series(nu, x)


def _integer(value, what: str) -> int:
    """``value`` as a Python int: any integer type but bool, else DomainError (a ValueError)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{what} must be an integer, got {value!r}")


def _positive_int(value, what: str) -> int:
    """``value`` as a Python int >= 1: any integer type but bool, else DomainError."""
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if index >= 1:
                return index
    raise DomainError(f"{what} must be an integer >= 1, got {value!r}")


def _check_combo_args(n: int, x: float) -> int:
    """The index n as a Python int, once n >= 1 and x >= 0 are checked."""
    n = _positive_int(n, "combination index n")
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"combination argument x must be finite and >= 0, got {x!r}")
    return n


def _branch_sign(branch: str) -> int:
    """+1 for the plus (phase-sum) branch, -1 for the minus (phase-difference) branch."""
    if branch == "plus":
        return 1
    if branch == "minus":
        return -1
    raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")


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
    for low in (0, 1):
        r = bessel_i_ratio(0.5 * (top - 2 + low), x)
        u = 1.0 - r
        for two_nu in range(top - 2 + low, -1, -2):
            plus[two_nu], minus[two_nu] = r, u
            a = two_nu / x
            u = (a - u) / (a + r)
            r = 1.0 / (a + r)
        total, comp = _log_ive(low, x), 0.0  # Neumaier running sum of log r
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
    n = _check_combo_args(n, x)
    if n > _N_CAP:
        raise DomainError(f"combination index n must be <= {_N_CAP}, got {n}")
    if x == 0.0:
        return LogScaledValue.zero()
    plus, minus = _combo_table(float(x), _table_top(n))
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
    NoConvergenceError, where the Bessel route still converges.
    """
    sign = _branch_sign(branch)
    n = _check_combo_args(n, x)
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
