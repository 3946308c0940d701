"""Library oracle census: a hash and the numbers of each fixed call's output, or its refusal.

Runs a fixed, seeded list of library calls and writes, per call,
``["value", sha256 of its output bytes, its numbers]`` or ``[error type,
message]`` as JSON.  Two censuses taken on two versions of the code show
which calls changed a bit of their output, or the type or text of their
refusal, and how far each moved output moved.  It is the library-side
partner of ``tools/cli_census.py``.

The calls, on the four presets at |alpha| = |beta| = 1 and on ``N_RANDOM``
states drawn from ``random.Random(SEED)`` (|alpha|, |beta| <= 2, any phases,
complex weights on the unit sphere):

- ``build_spectrum`` on both branches and ``one_mode_coefficients`` on both
  modes, and ``eval_phase_dist`` of each of those four spectra on ``PHIS``;
- ``quadrature_phase_dist`` on both branches and ``quadrature_one_mode`` on
  both modes at ``PHIS``, and ``quadrature_normalization``, at 16 x 32 nodes
  (and at the default 40 x 64 on the presets);
- ``fock_chi_oracle`` at n_cut 20, 40 and 60;

then ``EDGE_CALLS``: refusals and the values next to them (W past the float
range, a radius whose square is not finite, s far below 0 or at 1, phi not
finite, a bool s, a Fock cutoff too small, a trace past the float range or
lost to rounding, an amplitude whose coherent columns start below the
smallest normal float, a spectrum that does not converge by n_max); and the
argument rules: a value and the refusals of a number that is not finite, a
bool and a string, in ``chi``, ``w``, ``w_symmetrized``, ``trig_moments``,
``phase_mean_var``, the special functions, ``LogScaledValue.from_value`` and
``.scaled``, ``TruncationPolicy``, ``QuadratureSpec`` and
``state_from_descriptor`` (its number entries and ``renormalize``); and last
the quadrature calls of every state again at an odd radial node count,
``ODD`` = 17 x 32, whose middle radial node has no mirror.  The
names in ``PLAIN`` take their arguments as listed; ``LogScaledValue.scaled``
takes (sign, log_mag, log_factor); every other call takes a state first.

An output's bytes are, for an ndarray, its dtype, shape and raw buffer;
for anything else its ``repr``, which spells each float to the last bit.
Its numbers are recorded exactly: a float as ``float.hex``, a complex as
its two parts, an ndarray as its dtype, shape and values, and a tuple, a
list or a dataclass (``FockChiResult``, ``Spectrum``) field by field; a
string, a bool or ``None`` records nothing.  Calls are keyed by their name
and arguments, and are only ever appended.

Usage, from the repository root:

    PYTHONPATH=src python tools/oracle_census.py --out oracle.json
    PYTHONPATH=src python tools/oracle_census.py --compare before.json after.json

``--compare`` prints each call whose hash or refusal differs or that is
missing from one side, and exits 1 if there is one.  Where both sides
recorded the numbers of a moved value, it adds the largest absolute move
and that move over the call's largest |output| (both sides, finite
numbers).  A census written before the numbers were recorded compares by
hash alone.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import hashlib
import json
import math
import random
import sys

from catphase import PRESET_WEIGHTS

SEED = 2025
N_RANDOM = 200
PHIS = (-1.0, 0.0, 0.7, 2.5, 4.0, 6.2)
SMALL = (16, 32, 8.0)  # QuadratureSpec(n_radial, n_angular, radial_cutoff_sigma)
DEFAULT = (40, 64, 8.0)
ODD = (17, 32, 8.0)
PRESETS = ("even_cat", "odd_cat", "yurke_stoler_minus", "yurke_stoler_plus")
EVEN_3 = (3 + 0j, 3 + 0j, *PRESET_WEIGHTS["even_cat"])
EVEN_1 = (1 + 0j, 1 + 0j, *PRESET_WEIGHTS["even_cat"])
EVEN_2 = (2 + 0j, 2 + 0j, *PRESET_WEIGHTS["even_cat"])
ODD_1 = (1 + 0j, 1 + 0j, *PRESET_WEIGHTS["odd_cat"])
EVEN_4 = (4 + 0j, 0.5 + 0j, *PRESET_WEIGHTS["even_cat"])
DESCRIPTOR = {
    "mu": {"re": 0.8, "im": 0.0},
    "nu": {"re": 0.0, "im": 0.6},
    "alpha": {"abs": 1.0, "arg": 0.5},
    "beta": {"abs": 2.0, "arg": -0.25},
}
# Called with their arguments as listed; every other name takes a state first.
PLAIN = (
    "i_n_combo",
    "i_n_combo_kummer",
    "bessel_i_ratio",
    "LogScaledValue.from_value",
    "TruncationPolicy",
    "QuadratureSpec",
    "state_from_descriptor",
)

# (function name, arguments), with a state as its (alpha, beta, mu, nu) tuple.
EDGE_CALLS = (
    ("quadrature_phase_dist", (EVEN_3, 0.99, "plus", 0.3, DEFAULT)),
    ("quadrature_phase_dist", (EVEN_3, 0.99, "minus", PHIS, SMALL)),
    ("quadrature_one_mode", (EVEN_3, 0.99, 1, 0.3, DEFAULT)),
    ("quadrature_one_mode", (EVEN_3, 0.99, 2, PHIS, SMALL)),
    ("quadrature_normalization", (EVEN_3, 0.99, DEFAULT)),
    ("quadrature_phase_dist", (EVEN_1, 0.0, "plus", 0.3, (16, 32, 1e155))),
    ("quadrature_one_mode", (EVEN_1, 0.0, 1, 0.3, (16, 32, 1e300))),
    ("quadrature_normalization", (EVEN_1, 0.0, (16, 32, 1e155))),
    ("quadrature_phase_dist", (EVEN_1, 0.0, "plus", 0.3, (16, 32, 1e150))),
    ("quadrature_one_mode", (EVEN_1, 0.0, 2, 0.3, (16, 32, 1e150))),
    ("quadrature_normalization", (EVEN_1, 0.0, (16, 32, 1e150))),
    ("quadrature_normalization", (ODD_1, -1e156, SMALL)),
    ("quadrature_phase_dist", (ODD_1, -4.3e153, "minus", 0.3, SMALL)),
    ("quadrature_normalization", (ODD_1, -4e153, SMALL)),
    ("quadrature_one_mode", (ODD_1, 1.0, 1, 0.3, SMALL)),
    ("quadrature_phase_dist", (ODD_1, 0.0, "plus", math.nan, SMALL)),
    ("quadrature_one_mode", (ODD_1, 0.0, 2, (0.3, math.inf), SMALL)),
    ("quadrature_phase_dist", (ODD_1, True, "plus", 0.3, SMALL)),
    ("quadrature_phase_dist", (ODD_1, 0.0, "sum", 0.3, SMALL)),
    ("quadrature_one_mode", (ODD_1, 0.0, 3, 0.3, SMALL)),
    ("quadrature_normalization", ((1.95 + 0j, 0j, 0.6 + 0j, 0.8 + 0j), 0.99, (16, 32, 1e3))),
    ("fock_chi_oracle", (EVEN_2, 0.5, 0.5, 0.0, 6)),
    ("fock_chi_oracle", (EVEN_1, 1e100, 0.3, 0.0, 40)),
    ("fock_chi_oracle", (EVEN_1, 0.3, 1e100, 0.0, 40)),
    ("fock_chi_oracle", (EVEN_1, 1e200, 0.3, 0.0, 40)),
    ("fock_chi_oracle", (EVEN_1, math.nan, 0.3, 0.0, 40)),
    ("fock_chi_oracle", (EVEN_1, 40.0, 0.0, 1.0, 40)),
    ("fock_chi_oracle", (EVEN_1, 0.1, 0.1, 0.0, 0)),
    ("fock_chi_oracle", (EVEN_1, True, 0.1, 0.0, 40)),
    ("fock_chi_oracle", (EVEN_4, 8.0, 0.1, 0.0, 84)),
    ("fock_chi_oracle", (EVEN_4, 0.5, 0.1, 0.0, 84)),
    ("fock_chi_oracle", (EVEN_1, 0.5, 0.5, 0.9, 20)),
    ("build_spectrum", (EVEN_1, 0.999999, "plus")),
    ("build_spectrum", (EVEN_1, 1.0, "minus")),
    ("build_spectrum", (EVEN_1, 0.99, "minus")),
    ("build_spectrum", ((0.7 + 0j, 0.7 + 0j, *PRESET_WEIGHTS["even_cat"]), 0.997, "plus")),
    ("one_mode_coefficients", (EVEN_1, 0.999999, 2)),
    ("one_mode_coefficients", (EVEN_1, 0.0, True)),
    ("eval_phase_dist", (EVEN_1, 0.4, "plus", (0.3, math.nan))),
    ("eval_phase_dist", (EVEN_1, 0.4, 1, 0.3)),
    # The argument rules: each entry point on a value next to its refusals of a
    # number that is not finite, a bool and a string.
    ("chi", (EVEN_1, 0.3 + 0.1j, -0.2, 0.5)),
    ("chi", (EVEN_1, 0.3, 0.2, math.nan)),
    ("chi", (EVEN_1, 0.3, 0.2, math.inf)),
    ("chi", (EVEN_1, 0.3, 0.2, True)),
    ("chi", (EVEN_1, 0.3, 0.2, "0.5")),
    ("chi", (EVEN_1, complex(math.inf, 0.0), 0.2, 0.0)),
    ("chi", (EVEN_1, True, 0.2, 0.0)),
    ("chi", (EVEN_1, 0.3, "0.2", 0.0)),
    ("w", (EVEN_1, 0.3 + 0.1j, -0.2, 0.5)),
    ("w", (EVEN_1, 0.3, 0.2, math.nan)),
    ("w", (EVEN_1, 0.3, 0.2, -math.inf)),
    ("w", (EVEN_1, 0.3, 0.2, True)),
    ("w", (EVEN_1, 0.3, 0.2, "0.5")),
    ("w", (EVEN_1, math.nan, 0.2, 0.0)),
    ("w", (EVEN_1, 0.3, False, 0.0)),
    ("w", (EVEN_1, "0.3", 0.2, 0.0)),
    ("w_symmetrized", (EVEN_1, 0.5, 0.7, 0.3, -0.4, 0.2)),
    ("w_symmetrized", (EVEN_1, 0.5, 0.7, 0.3, -0.4, math.nan)),
    ("w_symmetrized", (EVEN_1, 0.5, 0.7, 0.3, -0.4, True)),
    ("w_symmetrized", (EVEN_1, 0.5, 0.7, 0.3, -0.4, "0.2")),
    ("w_symmetrized", (EVEN_1, math.inf, 0.7, 0.3, -0.4, 0.2)),
    ("w_symmetrized", (EVEN_1, 0.5, True, 0.3, -0.4, 0.2)),
    ("w_symmetrized", (EVEN_1, 0.5, 0.7, "0.3", -0.4, 0.2)),
    ("w_symmetrized", (EVEN_1, 0.5, 0.7, 0.3, math.nan, 0.2)),
    ("trig_moments", (ODD_1, 0.4, "minus", 2)),
    ("trig_moments", (ODD_1, 0.4, "minus", True)),
    ("trig_moments", (ODD_1, 0.4, "minus", "2")),
    ("trig_moments", (ODD_1, 0.4, "minus", 2.0)),
    ("trig_moments", (ODD_1, math.inf, "minus", 2)),
    ("trig_moments", (ODD_1, True, "minus", 2)),
    ("phase_mean_var", (ODD_1, 0.4, "plus", 0.3)),
    ("phase_mean_var", (ODD_1, 0.4, "plus", math.nan)),
    ("phase_mean_var", (ODD_1, 0.4, "plus", math.inf)),
    ("phase_mean_var", (ODD_1, 0.4, "plus", True)),
    ("phase_mean_var", (ODD_1, 0.4, "plus", "0.3")),
    ("phase_mean_var", (ODD_1, math.nan, "plus", 0.3)),
    ("i_n_combo", (3, 2.5, "minus")),
    ("i_n_combo", (3, math.nan, "minus")),
    ("i_n_combo", (3, math.inf, "plus")),
    ("i_n_combo", (3, -1.0, "plus")),
    ("i_n_combo", (3, True, "plus")),
    ("i_n_combo", (3, "2.5", "plus")),
    ("i_n_combo", (True, 2.5, "plus")),
    ("i_n_combo_kummer", (3, 2.5, "minus")),
    ("i_n_combo_kummer", (3, math.nan, "minus")),
    ("i_n_combo_kummer", (3, -math.inf, "plus")),
    ("i_n_combo_kummer", (3, True, "plus")),
    ("i_n_combo_kummer", (3, "2.5", "plus")),
    ("bessel_i_ratio", (0.5, 2.5)),
    ("bessel_i_ratio", (0.5, math.nan)),
    ("bessel_i_ratio", (0.5, math.inf)),
    ("bessel_i_ratio", (0.5, -2.5)),
    ("bessel_i_ratio", (0.5, True)),
    ("bessel_i_ratio", (0.5, "2.5")),
    ("bessel_i_ratio", (math.inf, 2.5)),
    ("bessel_i_ratio", (True, 2.5)),
    ("LogScaledValue.from_value", (-2.5,)),
    ("LogScaledValue.from_value", (0.0,)),
    ("LogScaledValue.from_value", (math.nan,)),
    ("LogScaledValue.from_value", (-math.inf,)),
    ("LogScaledValue.from_value", (True,)),
    ("LogScaledValue.from_value", ("2.5",)),
    ("LogScaledValue.from_value", (2.5j,)),
    ("LogScaledValue.scaled", (-1, 0.5, 2.0)),
    ("LogScaledValue.scaled", (0, -math.inf, 2.0)),
    ("LogScaledValue.scaled", (-1, 0.5, math.nan)),
    ("LogScaledValue.scaled", (-1, 0.5, math.inf)),
    ("LogScaledValue.scaled", (-1, 0.5, True)),
    ("LogScaledValue.scaled", (-1, 0.5, "2.0")),
    ("LogScaledValue.scaled", (-1, 0.5, 2.0j)),
    ("LogScaledValue.scaled", (-1, 0.5, None)),
    ("TruncationPolicy", (1e-12, 3, 100)),
    ("TruncationPolicy", (math.inf, 4, 512)),
    ("TruncationPolicy", (math.nan, 4, 512)),
    ("TruncationPolicy", (-1e-14, 4, 512)),
    ("TruncationPolicy", (True, 4, 512)),
    ("TruncationPolicy", ("1e-14", 4, 512)),
    ("TruncationPolicy", (1e-14, True, 512)),
    ("TruncationPolicy", (1e-14, 4, "512")),
    ("QuadratureSpec", (24, 48, 6.0)),
    ("QuadratureSpec", (40, 64, math.inf)),
    ("QuadratureSpec", (40, 64, -math.inf)),
    ("QuadratureSpec", (40, 64, math.nan)),
    ("QuadratureSpec", (40, 64, -1.0)),
    ("QuadratureSpec", (40, 64, True)),
    ("QuadratureSpec", (40, 64, "8.0")),
    ("QuadratureSpec", (True, 64, 8.0)),
    ("state_from_descriptor", (DESCRIPTOR,)),
    ("state_from_descriptor", ({**DESCRIPTOR, "alpha": {"abs": True, "arg": 0.0}},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "alpha": {"abs": "0.5", "arg": 0.0}},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "beta": {"abs": 1.0, "arg": False}},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "mu": {"re": True, "im": 0.0}},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "nu": {"re": 0.0, "im": "0.6"}},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "alpha": {"abs": 1.0, "arg": math.inf}},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "mu": {"re": 1.6, "im": 0.0}},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "mu": {"re": 1.6, "im": 0.0}, "renormalize": True},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "renormalize": False},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "renormalize": "false"},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "renormalize": 1},)),
    ("state_from_descriptor", ({**DESCRIPTOR, "renormalize": None},)),
    ("LogScaledValue.scaled", (1, 1e308, 1e308)),
    ("fock_chi_oracle", (EVEN_1, 0.1, 0.1, 0.0, 2**16 + 1)),
    # Past |alpha| = 37.64 the coherent columns' e^(-|alpha|^2/2) is not a normal float.
    ("fock_chi_oracle", ((37.7 + 0j, 0.5 + 0j, *PRESET_WEIGHTS["even_cat"]), 0j, 0j, 0.0, 5725)),
    ("fock_chi_oracle", ((38.5 + 0j, 0.5 + 0j, *PRESET_WEIGHTS["even_cat"]), 0j, 0j, 0.0, 5969)),
    ("fock_chi_oracle", ((40.0 + 0j, 0.5 + 0j, *PRESET_WEIGHTS["even_cat"]), 0j, 0j, 0.0, 6440)),
)


def _point(rng: random.Random) -> complex:
    return cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(-math.pi, math.pi))


def _states() -> list[tuple[complex, complex, complex, complex]]:
    """The presets at |alpha| = |beta| = 1, then N_RANDOM seeded states."""
    out = [(1 + 0j, 1 + 0j, *PRESET_WEIGHTS[kind]) for kind in PRESETS]
    rng = random.Random(SEED)
    for _ in range(N_RANDOM):
        alpha, beta = (_point(rng) for _ in "ab")
        mu, nu = (complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in "mn")
        norm = math.hypot(abs(mu), abs(nu))
        out.append((alpha, beta, mu / norm, nu / norm))
    return out


def calls() -> list[tuple[str, tuple]]:
    """Every (function name, arguments) pair of the census, in order."""
    rng = random.Random(SEED + 1)
    out = []
    odd = []
    for k, state in enumerate(_states()):
        s = rng.uniform(-1.0, 0.9)
        odd.extend(_quadrature_calls(state, s, ODD))
        for line in ("plus", "minus", 1, 2):
            name = "build_spectrum" if isinstance(line, str) else "one_mode_coefficients"
            out.append((name, (state, s, line)))
            out.append(("eval_phase_dist", (state, s, line, PHIS)))
        for spec in (SMALL, DEFAULT) if k < len(PRESETS) else (SMALL,):
            out.extend(_quadrature_calls(state, s, spec))
        xi, eta = (_point(rng) for _ in "xe")
        s_chi = rng.uniform(-1.0, 0.4)
        for n_cut in (20, 40, 60):
            out.append(("fock_chi_oracle", (state, xi, eta, s_chi, n_cut)))
    out.extend(EDGE_CALLS)
    out.extend(odd)
    return out


def _quadrature_calls(state, s: float, spec) -> list[tuple[str, tuple]]:
    """Both phase lines and both modes at ``PHIS``, and the normalization, at ``spec``."""
    out = [("quadrature_phase_dist", (state, s, branch, PHIS, spec)) for branch in ("plus", "minus")]
    out += [("quadrature_one_mode", (state, s, mode, PHIS, spec)) for mode in (1, 2)]
    out.append(("quadrature_normalization", (state, s, spec)))
    return out


def key(call: tuple[str, tuple]) -> str:
    name, args = call
    return f"{name}{args!r}"


def _invoke(name: str, args: tuple):
    import numpy as np

    import catphase

    if name in PLAIN:
        return functools.reduce(getattr, name.split("."), catphase)(*args)
    if name == "LogScaledValue.scaled":
        sign, log_mag, log_factor = args
        return catphase.LogScaledValue(sign, log_mag).scaled(log_factor)
    state, *rest = args
    state = catphase.QuasiBellState(*state)
    if name in ("eval_phase_dist", "trig_moments", "phase_mean_var"):
        s, line, arg = rest
        build = catphase.build_spectrum if isinstance(line, str) else catphase.one_mode_coefficients
        arg = np.array(arg) if name == "eval_phase_dist" else arg
        return getattr(catphase, name)(build(state, s, line), arg)
    if name.startswith("quadrature_"):
        *rest, spec = rest
        if name != "quadrature_normalization":
            rest[-1] = np.array(rest[-1])
        rest.append(catphase.QuadratureSpec(*spec))
    return getattr(catphase, name)(state, *rest)


def _output_bytes(value) -> bytes:
    import numpy as np

    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    return repr(value).encode()


def numbers(value):
    """The output's numbers, exactly and in JSON: see the module docstring."""
    import numpy as np

    if value is None or isinstance(value, (bool, str)):
        return None
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return value
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, np.ndarray):
        return {
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "values": [numbers(x) for x in value.ravel().tolist()],
        }
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {field: numbers(getattr(value, field)) for field in value._fields}
    if isinstance(value, (tuple, list)):
        return [numbers(x) for x in value]
    if dataclasses.is_dataclass(value):
        return {f.name: numbers(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return None


def _leaves(record, path=()):
    """(path, float) per number of a record, in order; an array's dtype and shape join the path."""
    if isinstance(record, str):
        yield path, float.fromhex(record)
    elif isinstance(record, int):
        yield path, float(record)
    elif isinstance(record, dict) and record.keys() == {"dtype", "shape", "values"}:
        yield from _leaves(record["values"], path + (record["dtype"], tuple(record["shape"])))
    elif isinstance(record, dict):
        for name, item in record.items():
            yield from _leaves(item, path + (name,))
    elif isinstance(record, list):
        for k, item in enumerate(record):
            yield from _leaves(item, path + (k,))


def move(before, after) -> tuple[float, float] | None:
    """The largest absolute move between two records, and it over the largest finite |output|.

    None where the records differ in structure (a dtype, a shape, a field or
    a length).  Equal numbers, infinities and NaNs included, move by 0; a
    number that turns NaN or infinite, or back, moves by inf.
    """
    first, second = list(_leaves(before)), list(_leaves(after))
    if [path for path, _ in first] != [path for path, _ in second]:
        return None
    largest, size = 0.0, 0.0
    for (_, a), (_, b) in zip(first, second):
        size = max([size] + [abs(x) for x in (a, b) if math.isfinite(x)])
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        diff = abs(a - b)
        largest = max(largest, diff if math.isfinite(diff) else math.inf)
    if not largest:
        return 0.0, 0.0
    return largest, largest / size if size else math.inf


def run(call: tuple[str, tuple]) -> list:
    """``["value", sha256 of the output bytes, numbers(output)]``, or ``[error type, message]``."""
    try:
        value = _invoke(*call)
    except Exception as exc:  # a refusal is a result too
        return [type(exc).__name__, str(exc)]
    return ["value", hashlib.sha256(_output_bytes(value)).hexdigest(), numbers(value)]


def census() -> dict[str, list]:
    return {key(call): run(call) for call in calls()}


def compare(before: dict, after: dict) -> list[str]:
    """Calls whose hash or refusal differs, or that only one census has."""
    keys = sorted(before.keys() | after.keys())
    return [key for key in keys if (before.get(key) or [])[:2] != (after.get(key) or [])[:2]]


def _report(first, second) -> str:
    """One moved call: both entries' heads, and the move where both recorded numbers."""
    line = f"{first and first[:2]} -> {second and second[:2]}"
    if first and second and len(first) == len(second) == 3:
        moved = move(first[2], second[2])
        if moved is None:
            return f"{line}; its numbers changed structure"
        return f"{line}; largest move {moved[0]:.3e}, {moved[1]:.3e} of its largest |output|"
    return line


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the census here (default stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list differing calls")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (_load(path) for path in args.compare)
        differ = compare(first, second)
        for entry in differ:
            print(f"{entry}: {_report(first.get(entry), second.get(entry))}")
        print(f"{len(differ)} of {len(first.keys() | second.keys())} calls differ")
        return 1 if differ else 0
    text = json.dumps(census(), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
