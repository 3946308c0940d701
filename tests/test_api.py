"""The package surface: catphase re-exports exactly each module's __all__, and fails closed."""

import ast
import cmath
import dataclasses
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catphase
from catphase import errors, oracle, phasedist, quasiprob, specfun, states

MODULES = (errors, oracle, phasedist, quasiprob, specfun, states)


def test_all_is_the_modules_lists_and_version():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert len(set(catphase.__all__)) == len(catphase.__all__)
    assert catphase.__all__ == expected


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(catphase, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from catphase import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(catphase.__all__)


# The private names a module may take from a peer other than errors, which
# owns the argument rules: each serves one formula shared by two modules.
PRIVATE_PEER_IMPORTS = {
    ("phasedist", "specfun", "_combo_table"),
    ("phasedist", "specfun", "_table_top"),
    ("oracle", "quasiprob", "_square_of_spread"),
    ("oracle", "states", "_sq_sum"),
}


def _package_imports():
    """(module, peer, name) for each name a package module imports from the package, anywhere."""
    out = set()
    for path in Path(catphase.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    peer, name = (node.module, alias.name) if node.module else (alias.name, None)
                    out.add((path.stem, peer, name))
    return out


def test_specfun_imports_only_errors_from_the_package():
    assert {peer for module, peer, _ in _package_imports() if module == "specfun"} == {"errors"}


def test_private_names_cross_between_peers_only_from_errors():
    private = {
        (module, peer, name)
        for module, peer, name in _package_imports()
        if name and name.startswith("_") and peer != "errors"
    }
    assert private == PRIVATE_PEER_IMPORTS


# The library-level fuzz: each public callable, one argument at a time, on the
# values below.  A state, spectrum or QuadratureSpec argument is an object the
# library built, not fuzzed; a descriptor's entries are fuzzed one at a time.
FUZZ = (
    0,
    5e-324,
    -5e-324,
    1e308,
    -1e308,
    math.inf,
    -math.inf,
    math.nan,
    np.int64(2),
    np.float32(0.25),
    np.bool_(True),
    True,
    "1",
    1j,
    None,
    [0.5, 1.0],
)

STATE = catphase.QuasiBellState(1.0, 0.5j, 0.6, 0.8)
SUM = catphase.build_spectrum(STATE, 0.2, "minus")
MODE = catphase.one_mode_coefficients(STATE, 0.2, 2)
SPEC = catphase.QuadratureSpec(16, 32)
EXPLICIT = {
    "mu": {"re": 0.6, "im": 0.0},
    "nu": {"re": 0.0, "im": 0.8},
    "alpha": {"abs": 1.0, "arg": 0.5},
    "beta": {"abs": 0.5, "arg": -0.25},
    "renormalize": False,
}
PRESET = {"preset": "odd_cat", "alpha": {"abs": 1.0, "arg": 0.5}, "beta": {"abs": 0.5, "arg": 0.0}}


def _resolved(descriptor):
    # params_from_descriptor resolves without validating; validate_params reports on what it gives.
    return catphase.validate_params(*catphase.params_from_descriptor(descriptor))


# name -> (callable, valid arguments)
CALLS = {
    "QuasiBellState": (catphase.QuasiBellState, (1.0, 0.5j, 0.6, 0.8)),
    "make_preset": (catphase.make_preset, ("odd_cat", 1.0, 0.5j)),
    "normalization_constant": (catphase.normalization_constant, (STATE,)),
    "validate_params": (catphase.validate_params, (1.0, 0.5j, 0.6, 0.8)),
    "params_from_descriptor": (_resolved, (PRESET,)),
    "state_from_descriptor": (catphase.state_from_descriptor, (EXPLICIT,)),
    "chi": (catphase.chi, (STATE, 0.3, -0.2j, 0.4)),
    "w": (catphase.w, (STATE, 0.3, -0.2j, 0.4)),
    "w_symmetrized": (catphase.w_symmetrized, (STATE, 0.5, 0.7, 0.3, -0.4, 0.2)),
    "bessel_i_ratio": (catphase.bessel_i_ratio, (0.5, 2.5)),
    "i_n_combo": (catphase.i_n_combo, (3, 2.5, "minus")),
    "i_n_combo_kummer": (catphase.i_n_combo_kummer, (3, 2.5, "minus")),
    "LogScaledValue.from_value": (catphase.LogScaledValue.from_value, (-2.5,)),
    "LogScaledValue.scaled": (catphase.LogScaledValue(-1, 0.5).scaled, (2.0,)),
    "TruncationPolicy": (catphase.TruncationPolicy, (1e-12, 3, 100)),
    "fourier_coefficient": (catphase.fourier_coefficient, (STATE, 0.2, 3, "plus")),
    "build_spectrum": (catphase.build_spectrum, (STATE, 0.2, "minus")),
    "eval_phase_dist": (catphase.eval_phase_dist, (SUM, 0.3)),
    "one_mode_coefficients": (catphase.one_mode_coefficients, (STATE, 0.2, 2)),
    "eval_one_mode_dist": (catphase.eval_one_mode_dist, (MODE, 0.3)),
    "trig_moments": (catphase.trig_moments, (SUM, 2)),
    "phase_mean_var": (catphase.phase_mean_var, (SUM, 0.3)),
    "QuadratureSpec": (catphase.QuadratureSpec, (16, 32, 6.0)),
    "quadrature_phase_dist": (catphase.quadrature_phase_dist, (STATE, 0.2, "plus", 0.3, SPEC)),
    "quadrature_normalization": (catphase.quadrature_normalization, (STATE, 0.2, SPEC)),
    "quadrature_one_mode": (catphase.quadrature_one_mode, (STATE, 0.2, 1, 0.3, SPEC)),
    "fock_chi_oracle": (catphase.fock_chi_oracle, (STATE, 0.3, -0.2j, 0.1, 30)),
}

# Public names that are not fuzzed: exception types, and result records that
# hold what the library computed.  LogScaledValue is fuzzed through its methods.
NOT_CALLED = {*errors.__all__, "Spectrum", "TrigMoments", "PhaseStats"}
# A parameter whose refusals name the quantity by another word.
ALIASES = {"kind": "preset"}


def _slots():
    """(name, position, path, parameter) for every argument, or descriptor entry, that is fuzzed.

    ``path`` is () for an argument, (key,) for a descriptor entry and (key, part)
    for a number in it; a descriptor's refusals name the entry.
    """
    out = []
    for name, (function, args) in CALLS.items():
        params = list(inspect.signature(function).parameters)
        for position, arg in enumerate(args):
            if isinstance(arg, dict):
                for key, entry in arg.items():
                    out.append((name, position, (key,), key))
                    parts = entry if isinstance(entry, dict) else ()
                    out.extend((name, position, (key, part), key) for part in parts)
            elif isinstance(arg, (int, float, complex, str)):
                out.append((name, position, (), params[position]))
    return out


SLOTS = _slots()


def _replaced(arg, path, value):
    if not path:
        return value
    key, *rest = path
    return {**arg, key: _replaced(arg[key], rest, value)}


def _args(name, position, path, value):
    args = list(CALLS[name][1])
    args[position] = _replaced(args[position], path, value)
    return args


def _all_finite(result) -> bool:
    """Every number in ``result`` is finite and a Python number (a zero's -inf log aside)."""
    if isinstance(result, catphase.LogScaledValue) and result.sign == 0:
        return result.log_mag == -math.inf
    if isinstance(result, np.ndarray):
        return result.dtype.kind in "fc" and bool(np.isfinite(result).all())
    if dataclasses.is_dataclass(result):
        return all(_all_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return all(_all_finite(item) for item in result)
    if isinstance(result, str):
        return True
    return isinstance(result, (int, float, complex)) and cmath.isfinite(result)


def _read_as(value):
    """The number a bool or a numeric string would be taken for if read as one, else None."""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    try:
        return float(value) if isinstance(value, str) else None
    except ValueError:
        return None


def _check(name, position, path, parameter, value):
    """The call returns finite values, or raises a CatPhaseError, or a ValueError or
    OverflowError whose message names the fuzzed argument.  A bool or a numeric
    string that is not refused must not give what its number gives."""
    function = CALLS[name][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = function(*_args(name, position, path, value))
        except catphase.CatPhaseError:
            return
        except (ValueError, OverflowError) as exc:
            named = ALIASES.get(parameter, parameter)
            assert re.search(rf"\b{named}\b", str(exc)), (name, parameter, value, exc)
            return
        assert _all_finite(result), (name, parameter, value, result)
        number = _read_as(value)
        if number is not None:
            try:
                as_number = function(*_args(name, position, path, number))
            except (ValueError, OverflowError):
                return
            assert repr(result) != repr(as_number), (name, parameter, value, "read as", number)


def test_every_public_callable_is_fuzzed():
    called = {name.split(".")[0] for name in CALLS}
    assert called | NOT_CALLED == set(catphase.__all__) - {"PRESET_WEIGHTS", "__version__"}


@pytest.mark.parametrize("name,position,path,parameter", SLOTS)
def test_fuzz_listed_values(name, position, path, parameter):
    for value in FUZZ:
        _check(name, position, path, parameter, value)


@settings(max_examples=300, deadline=None)
@given(
    slot=st.sampled_from(SLOTS),
    value=st.one_of(
        st.floats(),
        # A count sizes the work (a Fock cutoff of n allocates arrays of n + 1), so
        # integers stay within 2**16, the largest index i_n_combo and the largest
        # cutoff fock_chi_oracle take; both refuse a larger one before any work.
        st.integers(-(2**16), 2**16),
        st.complex_numbers(),
        st.booleans(),
        st.text(max_size=3),
        st.none(),
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=3),
    ),
)
def test_fuzz_hypothesis_values(slot, value):
    _check(*slot, value)


# Each entry point that takes an index, with the name its refusals use and its cap:
# errors._INDEX_CAP, or half of it for a moment order, which reads c_2n.
CAPPED = {
    "i_n_combo": (lambda n: catphase.i_n_combo(n, 1.0, "plus"), "combination index n", 2**16),
    "i_n_combo_kummer": (
        lambda n: catphase.i_n_combo_kummer(n, 1.0, "minus"), "combination index n", 2**16
    ),
    "fourier_coefficient": (
        lambda n: catphase.fourier_coefficient(STATE, 0.3, n, "plus"), "coefficient index n", 2**16
    ),
    "fock_chi_oracle": (
        lambda n: catphase.fock_chi_oracle(STATE, 0.1, 0.1, 0.0, n), "n_cut", 2**16
    ),
    "trig_moments": (lambda n: catphase.trig_moments(SUM, n), "moment order", 2**15),
}


@pytest.mark.parametrize("name", CAPPED)
def test_an_index_past_its_cap_is_refused_naming_the_argument(name):
    call, what, cap = CAPPED[name]
    assert _all_finite(call(cap))
    for n in (cap + 1, 10**400):
        with pytest.raises(catphase.DomainError, match=rf"^{what} must be <= {cap}, got {n}$"):
            call(n)


@pytest.mark.parametrize("combo", [catphase.i_n_combo, catphase.i_n_combo_kummer])
@pytest.mark.parametrize("x", [math.nan, -1.0])
def test_an_index_past_its_cap_is_refused_before_a_bad_argument(combo, x):
    n = errors._INDEX_CAP + 1
    message = rf"^combination index n must be <= 65536, got {n}$"
    with pytest.raises(catphase.DomainError, match=message):
        combo(n, x, "plus")
    with pytest.raises(catphase.DomainError, match="^combination argument x must be finite"):
        combo(errors._INDEX_CAP, x, "plus")
