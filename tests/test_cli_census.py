import hashlib
import importlib.util
import json
import os
from pathlib import Path

from catphase import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_census.py"
_SPEC = importlib.util.spec_from_file_location("cli_census", _PATH)
cli_census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_census)


def test_configs_are_fixed_and_distinct():
    keys = [" ".join(argv) for argv in cli_census.configs()]
    assert len(keys) == 1064
    assert len(set(keys)) == 1064
    assert keys == [" ".join(argv) for argv in cli_census.configs()]


def test_run_records_exit_code_and_stdout_hash(capsys):
    argv = ["coeffs", "--branch", "minus", "--preset", "odd_cat", "--s", "0.4"]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert cli_census.run(argv) == (0, hashlib.sha256(stdout.encode()).hexdigest())
    assert cli_census.run(["coeffs", "--branch", "minus", "--n-min", "1", "--n-max", "1"])[0] == 4
    assert cli_census.run(["coeffs", "--no-such-flag"])[0] == 2


def test_compare_lists_changed_and_missing_configs(tmp_path):
    before = {"a": [0, "x"], "b": [0, "y"], "c": [4, "z"]}
    after = {"a": [0, "x"], "b": [0, "w"], "d": [0, "v"]}
    assert cli_census.compare(before, after) == ["b", "c", "d"]
    assert cli_census.compare(before, dict(before)) == []
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(before))
    second.write_text(json.dumps(after))
    assert cli_census.main(["--compare", str(first), str(first)]) == 0
    assert cli_census.main(["--compare", str(first), str(second)]) == 1


def test_run_pins_help_width_and_restores_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    wide = cli_census.run(["wigner-slice", "--help"])
    monkeypatch.setenv("COLUMNS", "40")
    narrow = cli_census.run(["wigner-slice", "--help"])
    assert wide == narrow
    assert wide[0] == 0
    assert os.environ["COLUMNS"] == "40"


def test_run_counts_an_escaping_exception_as_exit_code_1(monkeypatch):
    def crash(argv):
        print("partial")
        raise FileNotFoundError(argv[0])

    monkeypatch.setattr(cli, "main", crash)
    digest = hashlib.sha256(b"partial\n").hexdigest()
    assert cli_census.run(["coeffs"]) == (1, digest)
