import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from catphase import QuadratureSpec, QuasiBellState, fock_chi_oracle, quadrature_phase_dist

_PATH = Path(__file__).resolve().parents[1] / "tools" / "oracle_census.py"
_SPEC = importlib.util.spec_from_file_location("oracle_census", _PATH)
oracle_census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle_census)


def test_calls_are_fixed_and_distinct():
    keys = [oracle_census.key(call) for call in oracle_census.calls()]
    assert len(keys) == 4449
    assert len(set(keys)) == 4449
    assert keys == [oracle_census.key(call) for call in oracle_census.calls()]
    names = {name for name, _ in oracle_census.calls()}
    assert names == {
        "build_spectrum",
        "one_mode_coefficients",
        "eval_phase_dist",
        "quadrature_phase_dist",
        "quadrature_one_mode",
        "quadrature_normalization",
        "fock_chi_oracle",
        "chi",
        "w",
        "w_symmetrized",
        "trig_moments",
        "phase_mean_var",
        "i_n_combo",
        "i_n_combo_kummer",
        "bessel_i_ratio",
        "LogScaledValue.from_value",
        "LogScaledValue.scaled",
        "TruncationPolicy",
        "QuadratureSpec",
        "state_from_descriptor",
    }


def test_run_records_a_refusal_type_and_message():
    call = ("fock_chi_oracle", (oracle_census.EVEN_2, 0.5, 0.5, 0.0, 6))
    assert oracle_census.run(call) == [
        "CutoffTooSmallError",
        "Fock truncation bound 3.547e+00 exceeds 1e-06 at n_cut=6; increase the cutoff",
    ]
    call = ("quadrature_one_mode", (oracle_census.ODD_1, 0.0, 3, 0.3, oracle_census.SMALL))
    assert oracle_census.run(call) == ["DomainError", "mode must be 1 or 2, got 3"]


def test_run_records_the_hash_of_the_output_bytes():
    state = oracle_census.EVEN_1
    value = fock_chi_oracle(QuasiBellState(*state), 0.5, 0.1, 0.2, 40)
    digest = hashlib.sha256(repr(value).encode()).hexdigest()
    entry = oracle_census.run(("fock_chi_oracle", (state, 0.5, 0.1, 0.2, 40)))
    assert entry[:2] == ["value", digest]

    phis, spec = oracle_census.PHIS, QuadratureSpec(16, 32)
    got = quadrature_phase_dist(QuasiBellState(*state), 0.1, "plus", np.array(phis), spec)
    assert got.shape == (len(phis),)
    raw = b"<f8(6,)" + got.tobytes()
    call = ("quadrature_phase_dist", (state, 0.1, "plus", phis, oracle_census.SMALL))
    assert oracle_census.run(call)[:2] == ["value", hashlib.sha256(raw).hexdigest()]


def test_run_records_each_number_exactly():
    state = oracle_census.EVEN_1
    value = fock_chi_oracle(QuasiBellState(*state), 0.5, 0.1, 0.2, 40)
    entry = oracle_census.run(("fock_chi_oracle", (state, 0.5, 0.1, 0.2, 40)))
    record = json.loads(json.dumps(entry))[2]  # as a census file holds it
    assert record == {
        "value": [value.value.real.hex(), value.value.imag.hex()],
        "bound": value.bound.hex(),
    }

    phis, spec = oracle_census.PHIS, QuadratureSpec(16, 32)
    got = quadrature_phase_dist(QuasiBellState(*state), 0.1, "plus", np.array(phis), spec)
    call = ("quadrature_phase_dist", (state, 0.1, "plus", phis, oracle_census.SMALL))
    record = oracle_census.run(call)[2]
    assert record["dtype"] == "<f8" and record["shape"] == [6]
    assert np.array_equal([float.fromhex(x) for x in record["values"]], got)

    assert oracle_census.numbers(np.array([[1 + 2j]])) == {
        "dtype": "<c16",
        "shape": [1, 1],
        "values": [[(1.0).hex(), (2.0).hex()]],
    }
    assert oracle_census.numbers((True, "plus", None, 3)) == [None, None, None, 3]


def test_move_is_the_largest_absolute_change_and_it_over_the_largest_output():
    record = oracle_census.numbers
    assert oracle_census.move(record([1.0, -4.0]), record([1.5, -4.0])) == (0.5, 0.5 / 4.0)
    same = record(np.array([2.0, 1.0]))
    assert oracle_census.move(same, same) == (0.0, 0.0)
    assert oracle_census.move(record(math.nan), record(math.nan)) == (0.0, 0.0)
    assert oracle_census.move(record(0.0), record(math.nan)) == (math.inf, math.inf)
    assert oracle_census.move(record([math.inf, 2.0]), record([math.inf, 1.0])) == (1.0, 0.5)
    assert oracle_census.move(record([1.0, 2.0]), record([1.0, math.nan])) == (math.inf, math.inf)
    # A changed shape, dtype or length is a change of structure, not a move.
    assert oracle_census.move(record(np.zeros(2)), record(np.zeros((2, 1)))) is None
    assert oracle_census.move(record(np.zeros(2)), record(np.zeros(2, dtype=complex))) is None
    assert oracle_census.move(record([1.0]), record([1.0, 2.0])) is None


def test_compare_reports_each_move(tmp_path, capsys):
    numbers = oracle_census.numbers
    before = {
        "a": ["value", "x", numbers(np.array([1.0, -2.0]))],
        "b": ["value", "y", numbers(0.25)],
        "c": ["DomainError", "m"],
    }
    after = {
        "a": ["value", "x2", numbers(np.array([1.0, -2.001]))],
        "b": ["value", "y", numbers(0.25)],
        "c": ["DomainError", "m"],
    }
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(before))
    second.write_text(json.dumps(after))
    assert oracle_census.main(["--compare", str(first), str(second)]) == 1
    lines = capsys.readouterr().out.splitlines()
    move = abs(-2.001 - -2.0)
    assert lines == [
        f"a: ['value', 'x'] -> ['value', 'x2']; largest move {move:.3e}, "
        f"{move / 2.001:.3e} of its largest |output|",
        "1 of 3 calls differ",
    ]


def test_a_census_without_numbers_compares_by_hash(tmp_path, capsys):
    # An older census holds ["value", hash] alone.
    old = {"a": ["value", "x"], "b": ["value", "y"]}
    new = {"a": ["value", "x", "0x1.0p+0"], "b": ["value", "z", "0x1.0p+1"]}
    first, second = tmp_path / "old.json", tmp_path / "new.json"
    first.write_text(json.dumps(old))
    second.write_text(json.dumps(new))
    assert oracle_census.compare(old, new) == ["b"]
    assert oracle_census.main(["--compare", str(first), str(second)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "b: ['value', 'y'] -> ['value', 'z']",
        "1 of 2 calls differ",
    ]


def test_compare_exit_codes(tmp_path):
    before = {"a": ["value", "x"], "b": ["DomainError", "m"]}
    after = {"a": ["value", "x"], "b": ["DomainError", "n"]}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(before))
    second.write_text(json.dumps(after))
    assert oracle_census.main(["--compare", str(first), str(first)]) == 0
    assert oracle_census.main(["--compare", str(first), str(second)]) == 1
