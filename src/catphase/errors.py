"""Exception types shared by all catphase modules, and the argument rules that raise them.

Every module takes its general argument checks from here; each refusal is a
:class:`DomainError` naming the argument.  A check of one formula stays in its module.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator

__all__ = [
    "CatPhaseError", "NullStateError", "DomainError", "NoConvergenceError", "CutoffTooSmallError"
]


class CatPhaseError(Exception):
    """Base class for every error raised by this package."""


class NullStateError(CatPhaseError, ValueError):
    """The requested superposition has (numerically) zero norm."""


class DomainError(CatPhaseError, ValueError):
    """An argument lies outside the domain an operation supports."""


class NoConvergenceError(CatPhaseError, RuntimeError):
    """A series or iteration failed to converge within its cap."""


class CutoffTooSmallError(CatPhaseError, ValueError):
    """A Fock-space truncation is too small for the requested accuracy."""


# Quasi-probability distributions exist for s < 1 strictly; this guard band
# keeps 1/(1-s) from blowing up catastrophically.
_S_UPPER = 1.0 - 1e-9

# The largest index of a Bessel combination, a Fourier coefficient or a Fock
# cutoff (a moment order reads c_2n, so it stops at half of it).  It bounds the
# work: one combination table holds at most 2 * _INDEX_CAP floats, and a cutoff
# n allocates arrays of n + 1.
_INDEX_CAP = 2**16


def _number(value, what: str, real: bool = True):
    """A real (any if not ``real``) number but a bool, as a float (complex); else DomainError."""
    if type(value) is float:  # the common case, without the slower checks on abstract types
        return value if real else complex(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real if real else numbers.Number):
        kind = "a real number" if real else "a number"
        raise DomainError(f"{what} must be {kind} and not a bool, got {value!r}")
    try:
        return float(value) if real else complex(value)
    except OverflowError:  # an int or a Fraction past the float range
        raise DomainError(f"{what} is past the float range") from None


def _finite(value, what: str, real: bool = True):
    """``value`` as by ``_number`` once it is finite; else DomainError."""
    value = _number(value, what, real)
    if not (math.isfinite(value) if real else cmath.isfinite(value)):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return value


def _integer(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` as an int in [``least``, ``most``] (each if given): any integer type but bool.

    Else DomainError, which says ``most`` when the integer is above it.
    """
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if least is None or index >= least:
                if most is not None and index > most:
                    raise DomainError(f"{what} must be <= {most}, got {index}")
                return index
    bound = "" if least is None else f" >= {least}"
    raise DomainError(f"{what} must be an integer{bound}, got {value!r}")


def _finite_array(values, dtype, what: str):
    """``values`` as a float or complex ``dtype`` array, each entry finite and as by ``_number``."""
    import numpy as np

    array = np.asarray(values)
    # Bools, strings and objects; and any list or tuple, in which NumPy reads a
    # bool among numbers as a number.  An ndarray of numbers skips the scan.
    if array.dtype.kind not in ("iuf" if dtype is float else "iufc") or (
        array.ndim and not isinstance(values, np.ndarray)
    ):
        for value in np.asarray(values, dtype=object).flat:
            _number(value, what, dtype is float)
    array = array.astype(dtype, copy=False)
    finite = np.isfinite(array)
    if not (finite.all() if finite.ndim else finite):  # a 0-d check skips the reduction
        raise DomainError(f"{what} must be finite, got {array[~finite][0].item()!r}")
    return array


def _require_s_below_one(s: float) -> float:
    """The ordering parameter s as a finite float below ``_S_UPPER``; else DomainError."""
    s = _finite(s, "s")
    if s >= _S_UPPER:
        raise DomainError(
            f"quasi-probability requires s < {_S_UPPER!r} (got s = {s!r}); "
            "at s = 1 the distribution is singular"
        )
    return s


def _branch_sign(branch: str) -> int:
    """+1 for the plus (phase-sum) branch, -1 for the minus (phase-difference) branch."""
    if branch == "plus":
        return 1
    if branch == "minus":
        return -1
    raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")


def _require_mode(mode) -> int:
    """Mode number ``mode`` as the int 1 or 2; a bool, float or string is refused."""
    if isinstance(mode, numbers.Integral) and not isinstance(mode, bool) and mode in (1, 2):
        return int(mode)
    raise DomainError(f"mode must be 1 or 2, got {mode!r}")
