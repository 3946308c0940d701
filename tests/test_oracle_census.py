import hashlib
import importlib.util
import json
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
    assert oracle_census.run(("fock_chi_oracle", (state, 0.5, 0.1, 0.2, 40))) == ["value", digest]

    phis, spec = oracle_census.PHIS, QuadratureSpec(16, 32)
    got = quadrature_phase_dist(QuasiBellState(*state), 0.1, "plus", np.array(phis), spec)
    assert got.shape == (len(phis),)
    raw = b"<f8(6,)" + got.tobytes()
    call = ("quadrature_phase_dist", (state, 0.1, "plus", phis, oracle_census.SMALL))
    assert oracle_census.run(call) == ["value", hashlib.sha256(raw).hexdigest()]


def test_compare_exit_codes(tmp_path):
    before = {"a": ["value", "x"], "b": ["DomainError", "m"]}
    after = {"a": ["value", "x"], "b": ["DomainError", "n"]}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(before))
    second.write_text(json.dumps(after))
    assert oracle_census.main(["--compare", str(first), str(first)]) == 0
    assert oracle_census.main(["--compare", str(first), str(second)]) == 1
