"""Two-mode Schrödinger-cat states: construction, presets, normalization.

The central object is :class:`QuasiBellState`, the superposition

    mu |alpha, beta>  +  nu |-alpha, -beta>

of two-mode coherent states, with complex weights restricted by
|mu|^2 + |nu|^2 = 1.  All quantities downstream (characteristic function,
quasi-probability distributions, phase distributions) are parameterized by
this state.  A JSON state descriptor takes its amplitudes and weights as
JSON numbers only, and ``"renormalize"`` as a JSON bool only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, NullStateError, _number

__all__ = [
    "QuasiBellState",
    "PRESET_WEIGHTS",
    "make_preset",
    "normalization_constant",
    "validate_params",
    "params_from_descriptor",
    "state_from_descriptor",
]

# Tolerance for the |mu|^2 + |nu|^2 = 1 constraint at construction.
WEIGHT_NORM_TOL = 1e-12

# The radicand 1 + 2 Re(mu nu*) exp(...) carries an absolute rounding error
# of a few ulps of its leading terms; a state whose computed radicand is
# below that noise has no correct digits in its norm and is rejected as the
# zero vector (only the odd cat near alpha = beta = 0 gets here).
_RADICAND_NOISE_ULPS = 16.0 * 2.220446049250313e-16


def _radicand_is_null(radicand: float, interference: float) -> bool:
    return radicand < _RADICAND_NOISE_ULPS * (1.0 + 2.0 * abs(interference))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Superposition weights (mu, nu) of the named preset states.
PRESET_WEIGHTS = {
    "even_cat": (_INV_SQRT2 + 0j, _INV_SQRT2 + 0j),
    "odd_cat": (_INV_SQRT2 + 0j, -_INV_SQRT2 + 0j),
    "yurke_stoler_plus": (_INV_SQRT2 + 0j, _INV_SQRT2 * 1j),
    "yurke_stoler_minus": (_INV_SQRT2 + 0j, -_INV_SQRT2 * 1j),
}


def _unit_weights(mu: complex, nu: complex) -> tuple[complex, complex]:
    """(mu, nu) rescaled onto |mu|^2 + |nu|^2 = 1."""
    try:
        norm = math.hypot(abs(mu), abs(nu))
    except OverflowError:  # abs() of a weight past the float range
        norm = math.inf
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("cannot renormalize weights with zero or non-finite norm")
    return mu / norm, nu / norm


def _preset_weights(kind: str) -> tuple[complex, complex]:
    try:
        return PRESET_WEIGHTS[kind]
    except (KeyError, TypeError):  # TypeError: a kind that cannot be a key, such as a list
        valid = ", ".join(sorted(PRESET_WEIGHTS))
        raise ValueError(f"unknown preset {kind!r}; expected one of: {valid}") from None


def validate_params(alpha: complex, beta: complex, mu: complex, nu: complex) -> list[str]:
    """Check the state invariants on raw parameters.

    Returns a list of human-readable diagnostics with measured residuals;
    an empty list means the parameters describe a valid state.  An argument
    that is a bool, a string or not a number gets the diagnostic of
    ``QuasiBellState``'s DomainError.  Nothing is raised here, so this can be
    used to inspect bad inputs.
    """
    diagnostics = []
    for name, z in (("alpha", alpha), ("beta", beta), ("mu", mu), ("nu", nu)):
        try:
            finite = cmath.isfinite(_number(z, name, real=False))
        except DomainError as exc:
            diagnostics.append(str(exc))
        else:
            if not finite:
                diagnostics.append(f"{name} is not finite: {z!r}")
    if diagnostics:
        return diagnostics

    alpha, beta, mu, nu = complex(alpha), complex(beta), complex(mu), complex(nu)
    weight_norm = _sq_sum(mu, nu)
    if abs(weight_norm - 1.0) > WEIGHT_NORM_TOL:
        diagnostics.append(
            f"|mu|^2+|nu|^2 = {weight_norm!r} differs from 1 by "
            f"{abs(weight_norm - 1.0):.3e} (tolerance {WEIGHT_NORM_TOL:g})"
        )
    if not math.isfinite(_sq_sum(alpha, beta)):
        diagnostics.append(
            f"|alpha|^2+|beta|^2 is past the float range (alpha={alpha!r}, beta={beta!r})"
        )
    radicand, interference = _radicand(alpha, beta, mu, nu)
    if _radicand_is_null(radicand, interference):
        diagnostics.append(
            f"non-normalizable: 1 + 2 Re(mu nu*) exp(-2(|alpha|^2+|beta|^2)) = "
            f"{radicand!r} is null to working precision"
        )
    return diagnostics


def _sq_sum(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2, or inf where it passes the float range."""
    try:
        return abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        return math.inf


def _radicand(alpha: complex, beta: complex, mu: complex, nu: complex) -> tuple[float, float]:
    """Squared norm 1 + 2 Re(mu nu*) exp(-2(...)) and its interference part."""
    asq = _sq_sum(alpha, beta)
    interference = (mu * nu.conjugate()).real * math.exp(-2.0 * asq)
    return 1.0 + 2.0 * interference, interference


@dataclass(frozen=True)
class QuasiBellState:
    """Normalizable superposition mu|alpha,beta> + nu|-alpha,-beta>.

    Parameters
    ----------
    alpha, beta : complex
        Coherent amplitudes of mode 1 and mode 2.
    mu, nu : complex
        Superposition weights, |mu|^2 + |nu|^2 = 1 (within 1e-12).  Weights
        that miss it are rejected; a descriptor with ``"renormalize": true``
        (see :func:`params_from_descriptor`) rescales them first.

    Raises
    ------
    DomainError
        A parameter that is a bool (Python's or NumPy's) or not a number.
    ValueError
        Non-finite parameters, |alpha|^2 + |beta|^2 past the float range,
        or weight norm off by more than the tolerance.
    NullStateError
        The superposition has zero norm (odd cat at alpha = beta = 0).

    Instances are immutable; all operations on them are pure functions.
    """

    alpha: complex
    beta: complex
    mu: complex
    nu: complex

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "mu", "nu"):
            object.__setattr__(self, name, _number(getattr(self, name), name, real=False))
        problems = validate_params(self.alpha, self.beta, self.mu, self.nu)
        if problems:
            null = _radicand_is_null(*_radicand(self.alpha, self.beta, self.mu, self.nu))
            raise (NullStateError if null else ValueError)("; ".join(problems))

    @property
    def weight_overlap(self) -> complex:
        """The product mu nu* controlling all interference terms."""
        return self.mu * self.nu.conjugate()

    @property
    def amplitude_sq_sum(self) -> float:
        """|alpha|^2 + |beta|^2."""
        return abs(self.alpha) ** 2 + abs(self.beta) ** 2


def normalization_constant(state: QuasiBellState) -> float:
    """Normalization constant N = {1 + 2 Re(mu nu*) exp[-2(|alpha|^2+|beta|^2)]}^(-1/2)."""
    return _radicand(state.alpha, state.beta, state.mu, state.nu)[0] ** -0.5


def make_preset(kind: str, alpha: complex, beta: complex) -> QuasiBellState:
    """Build one of the named preset states.

    ``kind`` is one of ``even_cat``, ``odd_cat``, ``yurke_stoler_plus``,
    ``yurke_stoler_minus``, i.e. weights (1, 1)/sqrt2, (1, -1)/sqrt2,
    (1, i)/sqrt2 and (1, -i)/sqrt2 respectively.
    """
    return QuasiBellState(alpha, beta, *_preset_weights(kind))


def _complex_from_polar(entry: dict, key: str) -> complex:
    try:
        mag = _number(entry["abs"], key)
        arg = _number(entry["arg"], key)
    except (LookupError, TypeError, ValueError) as exc:  # LookupError: an entry that is not a dict
        raise ValueError(f"{key!r} must be an object with numeric 'abs' and 'arg'") from exc
    if math.isinf(arg):  # cmath.rect raises a bare "math domain error" here
        raise ValueError(f"{key} is not finite: arg {arg!r}")
    return cmath.rect(mag, arg)


def _complex_from_cartesian(entry: dict, key: str) -> complex:
    try:
        return complex(_number(entry["re"], key), _number(entry["im"], key))
    except (LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"{key!r} must be an object with numeric 're' and 'im'") from exc


def params_from_descriptor(descriptor: dict) -> tuple[complex, complex, complex, complex]:
    """Resolve a JSON descriptor to (alpha, beta, mu, nu) without validating.

    The weights are rescaled to unit norm if the descriptor has a true
    ``"renormalize"`` entry, which must be a bool.  A number entry must be a
    real number and not a bool or a string (``true`` is not read as 1, nor
    ``"0.5"`` as 0.5); anything else is a ValueError.
    """
    if not isinstance(descriptor, dict):
        raise ValueError("state descriptor must be a JSON object")
    if "alpha" not in descriptor or "beta" not in descriptor:
        raise ValueError("state descriptor needs polar 'alpha' and 'beta' entries")
    alpha = _complex_from_polar(descriptor["alpha"], "alpha")
    beta = _complex_from_polar(descriptor["beta"], "beta")

    if "preset" in descriptor:
        if "mu" in descriptor or "nu" in descriptor:
            raise ValueError("give either 'preset' or explicit 'mu'/'nu', not both")
        mu, nu = _preset_weights(str(descriptor["preset"]))
    else:
        if "mu" not in descriptor or "nu" not in descriptor:
            raise ValueError("state descriptor needs 'preset' or both 'mu' and 'nu'")
        mu = _complex_from_cartesian(descriptor["mu"], "mu")
        nu = _complex_from_cartesian(descriptor["nu"], "nu")
    renormalize = descriptor.get("renormalize", False)
    if not isinstance(renormalize, bool):
        raise ValueError(f"'renormalize' must be true or false, got {renormalize!r}")
    if renormalize:
        mu, nu = _unit_weights(mu, nu)
    return alpha, beta, mu, nu


def state_from_descriptor(descriptor: dict) -> QuasiBellState:
    """Build a state from its JSON descriptor.

    The descriptor carries either ``{"preset": "<tag>"}`` or explicit weights
    ``{"mu": {"re":..,"im":..}, "nu": {...}}``, plus polar amplitudes
    ``{"alpha": {"abs":..,"arg":..}, "beta": {...}}`` (angles in radians).
    An optional ``"renormalize": true`` rescales the weights to unit norm.
    """
    return QuasiBellState(*params_from_descriptor(descriptor))

