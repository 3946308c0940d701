import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catphase
from catphase import cli
from catphase.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    header = {}
    lines = text.strip("\n").split("\n")
    k = 0
    while lines[k].startswith("# "):
        key, _, value = lines[k][2:].partition("=")
        header[key] = value
        k += 1
    columns = lines[k].split(",")
    rows = [line.split(",") for line in lines[k + 1 :]]
    return header, columns, rows


class TestValidateCommand:
    def test_ok_state(self, capsys):
        code, out = run_cli(capsys, "validate", "--preset", "even_cat")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["diagnostics"] == []
        assert payload["checks"]["chi_origin_residual"] < 1e-12

    def test_bad_weights_reported(self, capsys):
        code, out = run_cli(
            capsys, "validate", "--mu", "1", "0", "--nu", "1", "0", "--alpha", "1", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is False
        assert any("|mu|" in d for d in payload["diagnostics"])

    def test_renormalize_applies_as_for_other_commands(self, capsys):
        flags = ["--mu", "1", "0", "--nu", "1", "0", "--renormalize"]
        code, out = run_cli(capsys, "validate", *flags)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["checks"]["weight_norm_residual"] < 1e-15
        assert run_cli(capsys, "coeffs", "--branch", "plus", *flags)[0] == 0

    def test_renormalize_of_zero_weights_is_invalid_state(self, capsys):
        flags = ["--mu", "0", "0", "--nu", "0", "0", "--renormalize"]
        code, out = run_cli(capsys, "validate", *flags)
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("invalid state: cannot renormalize")

    def test_renormalize_of_weight_past_float_range_is_invalid_state(self, capsys):
        flags = ["--mu", "1.7e308", "1.7e308", "--nu", "1", "0", "--renormalize"]
        code, out = run_cli(capsys, "validate", *flags)
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("invalid state: cannot renormalize")


    def test_amplitude_past_float_range_is_a_diagnostic(self, capsys):
        code, out = run_cli(capsys, "validate", "--alpha", "1e200", "0", "--beta", "1", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["diagnostics"] == [
            "|alpha|^2+|beta|^2 is past the float range (alpha=(1e+200+0j), beta=(1+0j))"
        ]


class TestCoeffsCommand:
    def test_branch_csv(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--branch", "minus", "--preset", "even_cat")
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["n", "c_n"]
        assert header["branch"] == "minus"
        assert [r[0] for r in rows] == [str(n) for n in range(1, len(rows) + 1)]
        assert float(rows[0][1]) == pytest.approx(0.5974967165579235, rel=1e-15, abs=0.0)

    def test_one_mode_csv(self, capsys):
        code, out = run_cli(
            capsys, "coeffs", "--mode", "1", "--preset", "yurke_stoler_plus", "--s", "-1"
        )
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["k", "c_even", "c_odd", "d_odd"]
        assert header["mode"] == "1"
        assert all(len(r) == 4 for r in rows)

    def test_one_mode_rows_interleave_with_odd_n_used(self, capsys):
        flags = ("--preset", "yurke_stoler_plus", "--alpha", "2.2", "0", "--s", "0.4")
        code, out = run_cli(capsys, "coeffs", "--mode", "1", *flags)
        assert code == 0
        _, _, rows = parse_csv(out)
        spectrum = catphase.one_mode_coefficients(
            catphase.make_preset("yurke_stoler_plus", 2.2, 1.0), 0.4, 1
        )
        assert spectrum.n_used % 2 == 1
        assert rows[-1][1] == ""
        cos = [float(c) for r in rows for c in (r[2], r[1]) if c]
        assert cos == spectrum.cos_coeffs
        assert [float(r[3]) for r in rows] == spectrum.d_odd
        assert [r[0] for r in rows] == [str(k) for k in range(1, len(rows) + 1)]

    @pytest.mark.parametrize("selector", [("--branch", "minus"), ("--mode", "1")])
    def test_single_term_cap_is_a_convergence_error(self, capsys, selector):
        code, out = run_cli(capsys, "coeffs", *selector, "--n-min", "1", "--n-max", "1")
        assert code == 4
        error = json.loads(out)["error"]
        assert error["type"] == "NoConvergenceError"
        assert error["status"] == 4
        assert "two-term tail test needs n_max >= 2" in error["message"]

    def test_branch_and_mode_conflict(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--branch", "plus", "--mode", "1")
        assert code == 2
        assert json.loads(out)["error"]["status"] == 2


class TestPhaseDistCommand:
    def test_uniform_vacuum(self, capsys):
        code, out = run_cli(
            capsys,
            "phase-dist",
            "--preset",
            "even_cat",
            "--alpha",
            "0",
            "0",
            "--beta",
            "0",
            "0",
            "--n-phi",
            "11",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 11
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)

    def test_density_integrates_to_one_on_own_grid(self, capsys):
        code, out = run_cli(
            capsys, "phase-dist", "--branch", "minus", "--s", "-1", "--n-phi", "361"
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        phi = np.array([float(r[0]) for r in rows])
        density = np.array([float(r[1]) for r in rows])
        trapezoid = 0.5 * float(np.sum((density[1:] + density[:-1]) * np.diff(phi)))
        assert trapezoid == pytest.approx(1.0, abs=1e-3)

    def test_deterministic_output(self, capsys):
        args = ("phase-dist", "--branch", "plus", "--s", "0.4", "--n-phi", "51")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "dist.csv"
        args = ("phase-dist", "--n-phi", "21")
        code, out = run_cli(capsys, *args)
        assert code == 0
        code2, _ = run_cli(capsys, *args, "--out", str(target))
        assert code2 == 0
        assert target.read_text(encoding="utf-8") == out

    def test_domain_error_status(self, capsys):
        code, out = run_cli(capsys, "phase-dist", "--s", "1.0")
        assert code == 3
        payload = json.loads(out)
        assert payload["error"]["type"] == "DomainError"

    def test_amplitude_past_float_range_is_invalid_state(self, capsys):
        code, out = run_cli(capsys, "phase-dist", "--alpha", "1e200", "0", "--beta", "1", "0")
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert message.startswith("invalid state: |alpha|^2+|beta|^2 is past the float range")

    def test_bessel_argument_past_float_range_names_finiteness(self, capsys):
        argv = ["phase-dist", "--alpha", "1e154", "0", "--beta", "1", "0", "--s", "0.5"]
        code, out = run_cli(capsys, *argv, "--n-phi", "3")
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "DomainError"
        assert error["message"] == "combination argument x must be finite, got inf"

    @pytest.mark.parametrize(
        "flags",
        [("--alpha", "1e-154", "0", "--beta", "1", "0", "--s", "0"), ("--s", "-1e307")],
        ids=["tiny-alpha", "huge-negative-s"],
    )
    def test_tiny_bessel_argument_exits_with_a_documented_status(self, flags):
        # x = |alpha|^2/(1-s) is about 1e-308 or 1e-307, below the Bessel
        # recurrence's range.
        src = os.path.dirname(os.path.dirname(os.path.abspath(catphase.__file__)))
        argv = ["phase-dist", "--preset", "odd_cat", *flags, "--n-phi", "3"]
        result = subprocess.run(
            [sys.executable, "-m", "catphase.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert result.returncode in (0, 2, 3, 4)
        assert "Traceback" not in result.stderr

    def test_convergence_error_status(self, capsys):
        code, out = run_cli(capsys, "phase-dist", "--n-max", "3", "--n-min", "2")
        assert code == 4
        assert json.loads(out)["error"]["type"] == "NoConvergenceError"


class TestOneModeCommand:
    def test_rows_and_header(self, capsys):
        code, out = run_cli(
            capsys, "one-mode", "--mode", "2", "--preset", "odd_cat", "--n-phi", "25"
        )
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["phi_offset", "density"]
        assert header["mode"] == "2"
        assert len(rows) == 25


class TestFigureCommand:
    @pytest.mark.parametrize("panel", ["1b", "1d", "2b", "2d"])
    def test_curve_panels(self, capsys, panel):
        code, out = run_cli(capsys, "figure", "--id", panel, "--n-phi", "61")
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["phi_offset", "density_s_m1", "density_s_0", "density_s_0p4"]
        assert header["panel"] == panel
        assert len(rows) == 61

    @pytest.mark.parametrize("panel", ["1a", "1c", "2a", "2c"])
    def test_surface_panels(self, capsys, panel):
        code, out = run_cli(
            capsys, "figure", "--id", panel, "--n-phi", "21", "--n-alpha", "7"
        )
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["alpha_sq", "phi_offset", "density"]
        assert len(rows) == 7 * 21
        assert float(rows[-1][0]) == pytest.approx(3.0)

    def test_odd_cat_surface_starts_non_uniform(self, capsys):
        # 1 + 2 Re(mu nu*) = 0: the small-amplitude limit keeps structure.
        code, out = run_cli(capsys, "figure", "--id", "1c", "--n-phi", "41", "--n-alpha", "4")
        assert code == 0
        _, _, rows = parse_csv(out)
        first_block = [float(r[2]) for r in rows if float(r[0]) == 0.0]
        assert max(first_block) - min(first_block) > 0.3

    def test_even_cat_surface_starts_uniform(self, capsys):
        code, out = run_cli(capsys, "figure", "--id", "1a", "--n-phi", "41", "--n-alpha", "4")
        assert code == 0
        _, _, rows = parse_csv(out)
        first_block = [float(r[2]) for r in rows if float(r[0]) == 0.0]
        assert max(first_block) - min(first_block) < 1e-6


class TestMomentsCommand:
    def test_payload(self, capsys):
        code, out = run_cli(
            capsys, "moments", "--preset", "even_cat", "--s", "-1", "--n", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_sin"] == 0.0
        assert payload["phase_mean"] == payload["phi_prime"]
        assert payload["phase_variance"] < math.pi**2 / 3.0
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_phi0_override(self, capsys):
        code, out = run_cli(capsys, "moments", "--phi0", "0.5", "--s", "-1")
        assert code == 0
        assert json.loads(out)["phi0"] == 0.5

    def test_variance_past_float_range_is_overflow_error(self, capsys):
        code, out = run_cli(
            capsys,
            "moments",
            "--preset",
            "odd_cat",
            "--alpha",
            "1.1361335358221332",
            "0",
            "--beta",
            "1.6326762425465526",
            "0",
            "--s",
            "0.9786597790976956",
            "--branch",
            "plus",
            "--phi0",
            "3.0",
        )
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "OverflowError"
        assert error["message"].endswith("window center 3.0")

    def test_window_center_past_the_sine_range_exits_3(self):
        # n (phi0 - phi_prime) passes the float range, where math.sin would raise.
        src = os.path.dirname(os.path.dirname(os.path.abspath(catphase.__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "catphase.cli", "moments", "--preset", "odd_cat",
             "--phi0", "1e308"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        error = json.loads(result.stdout)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].startswith("window center 1e+308 is so large")


class TestWignerSliceCommand:
    def test_grid_and_values(self, capsys):
        code, out = run_cli(
            capsys,
            "wigner-slice",
            "--preset",
            "odd_cat",
            "--nx",
            "3",
            "--ny",
            "3",
            "--x-min",
            "-1",
            "--x-max",
            "1",
            "--y-min",
            "-1",
            "--y-max",
            "1",
        )
        assert code == 0
        header, columns, rows = parse_csv(out)
        assert columns == ["gamma_re", "gamma_im", "w"]
        assert len(rows) == 9
        center = [r for r in rows if r[0] == "0.0" and r[1] == "0.0"][0]
        assert float(center[2]) == pytest.approx(-4.0 / math.pi**2, rel=1e-12, abs=0.0)

    def test_fix_option(self, capsys):
        code, out = run_cli(
            capsys,
            "wigner-slice",
            "--nx",
            "2",
            "--ny",
            "2",
            "--fix",
            "delta_re=0.5",
        )
        assert code == 0
        header, _, _ = parse_csv(out)
        assert header["fixed_delta_re"] == "0.5"

    def test_bad_axes(self, capsys):
        code, out = run_cli(
            capsys, "wigner-slice", "--x-axis", "gamma_re", "--y-axis", "gamma_re"
        )
        assert code == 2


class TestConfigAndFormat:
    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "state": {
                        "preset": "odd_cat",
                        "alpha": {"abs": 1.0, "arg": 0.0},
                        "beta": {"abs": 1.0, "arg": 0.0},
                    },
                    "s": 0.4,
                    "n_phi": 11,
                }
            ),
            encoding="utf-8",
        )
        code, out = run_cli(capsys, "phase-dist", "--config", str(config))
        assert code == 0
        header, _, rows = parse_csv(out)
        assert header["preset"] == "odd_cat"
        assert header["s"] == "0.4"
        assert len(rows) == 11

    def test_inline_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"s": 0.4, "n_phi": 11}), encoding="utf-8")
        code, out = run_cli(capsys, "phase-dist", "--config", str(config), "--s", "0.0")
        assert code == 0
        header, _, _ = parse_csv(out)
        assert header["s"] == "0.0"

    def test_missing_config(self, capsys):
        code, out = run_cli(capsys, "phase-dist", "--config", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize(
        "raw",
        [b'\xff\xfe{"s": 0.1}', b'{"s": ' + b"1" * 5000 + b"}", b"[" * 100_000],
        ids=["not-utf8", "integer-past-digit-limit", "nested-too-deep"],
    )
    def test_unreadable_config_is_config_error(self, capsys, tmp_path, raw):
        path = tmp_path / "run.json"
        path.write_bytes(raw)
        code, out = run_cli(capsys, "phase-dist", "--config", str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"cannot read config {str(path)!r}: ")

    @pytest.mark.parametrize(
        "state", ['{"s": ' + "1" * 5000 + "}", "[" * 100_000], ids=["long-integer", "too-deep"]
    )
    def test_unparsable_state_flag_is_config_error(self, capsys, state):
        code, out = run_cli(capsys, "coeffs", "--branch", "plus", "--state", state)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("--state is not valid JSON: ")

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_config_error(self, capsys, tmp_path, target):
        path = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
        code, out = run_cli(capsys, "coeffs", "--branch", "plus", "--out", str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert (error["type"], error["status"]) == ("ConfigError", 2)
        assert error["message"].startswith(f"cannot write output {str(path)!r}: ")
        assert not (tmp_path / "missing").exists()

    def test_format_mismatch(self, capsys):
        code, out = run_cli(capsys, "moments", "--format", "csv")
        assert code == 2
        assert "emits json" in json.loads(out)["error"]["message"]

    def test_format_match_accepted(self, capsys):
        code, _ = run_cli(capsys, "moments", "--format", "json", "--s", "-1")
        assert code == 0

    def test_null_state_is_config_error(self, capsys):
        code, out = run_cli(
            capsys,
            "phase-dist",
            "--preset",
            "odd_cat",
            "--alpha",
            "0",
            "0",
            "--beta",
            "0",
            "0",
        )
        assert code == 2


    @pytest.mark.parametrize(
        "command,config",
        [
            (["phase-dist"], {"state": "abc"}),
            (["phase-dist"], {"state": [1, 2]}),
            (["phase-dist"], {"state": 3}),
            (["phase-dist"], {"s": "x"}),
            (["phase-dist"], {"s": [0.1]}),
            (["phase-dist"], {"s": None}),
            (["phase-dist"], {"s": True}),
            (["phase-dist"], {"n_phi": "many"}),
            (["phase-dist"], {"n_phi": 3.5}),
            (["phase-dist"], {"n_phi": {"n": 3}}),
            (["phase-dist"], {"eps_tail": [1e-14]}),
            (["phase-dist"], {"n_min": "four"}),
            (["phase-dist"], {"n_max": 1e400}),
            (["one-mode"], {"s": "x"}),
            (["coeffs", "--branch", "plus"], {"n_max": "x"}),
            (["validate"], {"s": "x"}),
            (["moments"], {"n": "x"}),
            (["moments"], {"n": 1.5}),
            (["moments"], {"phi0": "x"}),
            (["wigner-slice"], {"nx": "x"}),
            (["wigner-slice"], {"x_min": "left"}),
            (["wigner-slice"], {"fix": "gamma_re=1"}),
            (["wigner-slice"], {"fix": [1.0]}),
            (["wigner-slice"], {"fix": ["delta_re=abc"]}),
            (["figure", "--id", "1a"], {"n_alpha": "x"}),
            (["oracle-compare"], {"seed": "x"}),
            (["oracle-compare"], {"seed": -1}),
            (["oracle-compare"], {"n_radial": [40]}),
            (["phase-dist"], {"s": math.nan}),
            (["moments"], {"n": 0}),
            (["oracle-compare"], {"n_chi_points": -1}),
            (["wigner-slice"], {"x_min": math.nan}),
            (["wigner-slice"], {"fix": ["delta_re=nan"]}),
            (["wigner-slice"], {"fix": ["nope=1"]}),
        ],
    )
    def test_wrong_config_value_is_config_error(self, capsys, tmp_path, command, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out = run_cli(capsys, *command, "--config", str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ConfigError"
        assert error["status"] == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["moments", "--n", "0"], "n must be >= 1, got 0"),
            (["wigner-slice", "--nx", "1", "--ny", "2"], "nx must be >= 2, got 1"),
            (["oracle-compare", "--n-chi-points", "-1"], "n_chi_points must be >= 0, got -1"),
            (["phase-dist", "--s", "nan"], "s must be finite, got nan"),
            (["oracle-compare", "--radial-sigma", "inf"], "radial_sigma must be finite, got inf"),
            (
                ["wigner-slice", "--nx", "2", "--ny", "2", "--fix", "delta_re=nan"],
                "--fix value for delta_re must be finite, got nan",
            ),
        ],
    )
    def test_setting_below_least_value_or_not_finite(self, capsys, argv, message):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["message"] == message

    @pytest.mark.parametrize("command", [["validate"], ["coeffs", "--branch", "plus"]])
    @pytest.mark.parametrize(
        "state,message",
        [
            ("[1, 2]", "--state must hold a JSON object"),
            (
                '{"preset": "nope", "alpha": {"abs": 1, "arg": 0}, "beta": {"abs": 1, "arg": 0}}',
                "invalid state: unknown preset 'nope'",
            ),
            (
                '{"preset": "odd_cat", "alpha": {"abs": 1, "arg": Infinity},'
                ' "beta": {"abs": 1, "arg": 0}}',
                "invalid state: alpha is not finite: arg inf",
            ),
            (
                '{"preset": "odd_cat", "alpha": {"abs": true, "arg": 0},'
                ' "beta": {"abs": 1, "arg": 0}}',
                "invalid state: 'alpha' must be an object with numeric 'abs' and 'arg'",
            ),
            (
                '{"preset": "odd_cat", "alpha": {"abs": 1, "arg": 0},'
                ' "beta": {"abs": "0.5", "arg": 0}}',
                "invalid state: 'beta' must be an object with numeric 'abs' and 'arg'",
            ),
            (
                '{"mu": {"re": 1, "im": 0}, "nu": {"re": 0, "im": false},'
                ' "alpha": {"abs": 1, "arg": 0}, "beta": {"abs": 1, "arg": 0}}',
                "invalid state: 'nu' must be an object with numeric 're' and 'im'",
            ),
            (
                '{"mu": {"re": 1, "im": 0}, "nu": {"re": 1, "im": 0}, "renormalize": "false",'
                ' "alpha": {"abs": 1, "arg": 0}, "beta": {"abs": 1, "arg": 0}}',
                "invalid state: 'renormalize' must be true or false, got 'false'",
            ),
        ],
    )
    def test_bad_state_flag_reads_alike_on_every_command(self, capsys, command, state, message):
        code, out = run_cli(capsys, *command, "--state", state)
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith(message)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_truncation_flags_only_where_a_spectrum_is_built(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        builds_spectrum = command not in ("validate", "wigner-slice")
        help_text = capsys.readouterr().out
        for flag in ("--eps-tail", "--n-min", "--n-max"):
            assert (flag in help_text) == builds_spectrum
        if not builds_spectrum:
            with pytest.raises(SystemExit) as refused:
                main([command, "--eps-tail", "0"])
            assert refused.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-compare", "--s", "3", "--n-chi-points", "0", "--n-radial", "16",
             "--n-angular", "32"],
            ["phase-dist", "--n-ph", "3"],
        ],
    )
    def test_abbreviated_flag_is_refused(self, capsys, argv):
        # A prefix is not read as the longer flag (--s as --seed, --n-ph as --n-phi).
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert f"unrecognized arguments: {argv[1]} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["phase-dist", "--n-ph", "3"], ["coeffs", "--bogus"]])
    def test_unknown_flag_prints_the_commands_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as refused:
            main(argv)
        captured = capsys.readouterr()
        assert refused.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage: catphase {argv[0]} [-h]")
        assert f"catphase {argv[0]}: error: unrecognized arguments: " in captured.err

    def test_negative_values_in_exponent_notation(self, capsys):
        code, out = run_cli(
            capsys,
            "phase-dist",
            "--mu", "-0.9997995352900749", "-7.719337989177595e-05",
            "--nu", "0.011482977458773622", "0.01640196645569401",
            "--alpha", "1.7785822603228478", "-1E-3",
            "--s", "-4.775e-01",
            "--n-phi", "3",
        )
        assert code == 0
        header, _, _ = parse_csv(out)
        assert header["mu_im"] == "-7.719337989177595e-05"
        assert header["alpha_arg"] == "-0.001"
        assert header["s"] == "-0.4775"

    def test_wrong_fix_flag_is_config_error(self, capsys):
        code, out = run_cli(capsys, "wigner-slice", "--nx", "2", "--ny", "2", "--fix", "delta_re=x")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ConfigError"

    def test_numeric_strings_and_integral_floats_accepted(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"s": "0.4", "n_phi": 11.0}), encoding="utf-8")
        code, out = run_cli(capsys, "phase-dist", "--config", str(path))
        assert code == 0
        header, _, rows = parse_csv(out)
        assert header["s"] == "0.4"
        assert len(rows) == 11


# Commands with small grids, and whether they take the state flags.  The fuzz
# test adds drawn flags and a drawn config file.
_FUZZ_COMMANDS = [
    (["validate"], True),
    (["coeffs", "--branch", "plus"], True),
    (["coeffs", "--branch", "minus"], True),
    (["coeffs", "--mode", "2"], True),
    (["coeffs"], True),
    (["phase-dist", "--n-phi", "5"], True),
    (["one-mode", "--mode", "2", "--n-phi", "5"], True),
    (["moments", "--branch", "plus"], True),
    (["wigner-slice", "--nx", "3", "--ny", "2"], True),
    (["figure", "--id", "1c", "--n-phi", "3", "--n-alpha", "3"], False),
    (["figure", "--id", "2b", "--n-phi", "3"], False),
    (["oracle-compare", "--n-chi-points", "0", "--n-radial", "4", "--n-angular", "4"], False),
]

_COMMON_FLAGS = st.one_of(
    st.tuples(st.just("--eps-tail"), st.floats(-1e-3, 1e-3).map(repr)),
    st.tuples(st.sampled_from(["--n-min", "--n-max"]), st.integers(-2, 40).map(str)),
    st.tuples(st.just("--format"), st.sampled_from(["csv", "json"])),
)

_STATE_FLAGS = st.one_of(
    st.tuples(st.just("--s"), st.floats(-3, 3).map(repr)),
    # Domain extremes: s past the quadrature's float range, subnormal, and
    # just below the guard errors._S_UPPER = 1 - 1e-9.
    st.tuples(
        st.just("--s"),
        st.sampled_from(["-1e307", "-1e156", "5e-324", "0.999999998", "0.9999999989"]),
    ),
    st.tuples(st.just("--preset"), st.sampled_from(["even_cat", "odd_cat", "yurke_stoler_minus"])),
    st.tuples(
        st.sampled_from(["--alpha", "--beta", "--mu", "--nu"]),
        st.sampled_from(["0 0", "1e-3 0.5", "1 0", "0.6 0.8", "2.5 -1", "nan 0", "1e200 0"]),
    ),
    # Amplitudes whose squares underflow or sit at the edge of the float range.
    st.tuples(
        st.sampled_from(["--alpha", "--beta"]),
        st.sampled_from(["1e-170 0", "1e-154 0", "1e154 0", "5e-324 0"]),
    ),
    st.tuples(st.just("--state"), st.sampled_from(["{}", "[]", "{bad", '{"preset": 3}'])),
    st.tuples(st.just("--renormalize"), st.just("")),
)

_FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),  # small, since grid sizes come from here too
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.5, 1.5),
    st.text(max_size=4),
    st.sampled_from(["0.4", "1e-10", "even_cat", "gamma_re=0.5", "plus"]),
    st.lists(st.sampled_from([1, "delta_im=1", "x"]), max_size=2),
    st.dictionaries(st.sampled_from(["abs", "arg", "re", "im"]), st.floats(-2, 2), max_size=2),
)

_FUZZ_KEYS = st.sampled_from(
    ["state", "s", "n_phi", "n_alpha", "n", "phi0", "eps_tail", "n_min", "n_max", "nx", "ny",
     "x_min", "x_max", "x_axis", "fix", "format", "seed", "n_chi_points", "radial_sigma"]
)


def _fuzz_argv(command):
    argv, takes_state = command
    flag = st.one_of(_COMMON_FLAGS, _STATE_FLAGS) if takes_state else _COMMON_FLAGS
    return st.tuples(st.just(argv), st.lists(flag, max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(_FUZZ_COMMANDS).flatmap(_fuzz_argv),
    config=st.dictionaries(_FUZZ_KEYS, _FUZZ_VALUES, max_size=3),
    bogus_flag=st.booleans(),
)
def test_cli_fuzz_exits_with_a_documented_status(tmp_path_factory, command, config, bogus_flag):
    path = tmp_path_factory.mktemp("fuzz") / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv, flags = command
    argv = argv + ["--config", str(path)] + (["--bogus-flag"] if bogus_flag else [])
    for flag, value in flags:
        argv += [flag, *value.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags with exit status 2
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, config, out.getvalue(), err.getvalue())
    if code != 0 and out.getvalue():
        assert json.loads(out.getvalue())["error"]["status"] == code


# Config file bytes the fuzz tests draw besides a well-formed object: bytes
# that are not UTF-8, an object cut short, and a JSON array.
_CONFIG_BYTES = st.one_of(
    st.dictionaries(_FUZZ_KEYS, _FUZZ_VALUES, max_size=3).map(lambda c: json.dumps(c).encode()),
    st.binary(max_size=6).map(lambda tail: b"\xff" + tail),
    st.dictionaries(_FUZZ_KEYS, _FUZZ_VALUES, max_size=3)
    .map(lambda c: json.dumps(c).encode())
    .flatmap(lambda text: st.integers(0, len(text) - 1).map(lambda k: text[:k])),
    st.lists(_FUZZ_VALUES, max_size=3).map(lambda items: json.dumps(items).encode()),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(_FUZZ_COMMANDS).flatmap(_fuzz_argv),
    raw=_CONFIG_BYTES,
    target=st.sampled_from(["stdout", "file", "missing-directory", "directory"]),
)
def test_cli_fuzz_config_bytes_and_out_exit_with_a_documented_status(
    tmp_path_factory, command, raw, target
):
    tmp = tmp_path_factory.mktemp("fuzz")
    config = tmp / "run.json"
    config.write_bytes(raw)
    out_path = {
        "stdout": "-",
        "file": str(tmp / "out.txt"),
        "missing-directory": str(tmp / "missing" / "out.txt"),
        "directory": str(tmp),
    }[target]
    argv, flags = command
    argv = argv + ["--config", str(config), "--out", out_path]
    for flag, value in flags:
        argv += [flag, *value.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags with exit status 2
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, raw, out.getvalue(), err.getvalue())
    if code != 0 and out.getvalue():
        assert json.loads(out.getvalue())["error"]["status"] == code
    if code == 0 and target == "file":
        assert out.getvalue() == "" and (tmp / "out.txt").read_text(encoding="utf-8")


class TestOracleCompareCommand:
    def test_report(self, capsys):
        code, out = run_cli(
            capsys,
            "oracle-compare",
            "--n-chi-points",
            "2",
            "--n-radial",
            "24",
            "--n-angular",
            "32",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["chi_vs_fock_max_abs_dev"] < 1e-8
        assert payload["phase_dist_vs_quadrature_max_abs_dev"] < 1e-6
        assert payload["one_mode_vs_quadrature_max_abs_dev"] < 1e-6
        assert payload["normalization_max_abs_dev"] < 1e-6
        assert payload["max_abs_dev"] < 1e-6

    def test_cutoff_past_float_range_is_domain_error(self, capsys):
        code, out = run_cli(
            capsys,
            "oracle-compare",
            "--radial-sigma",
            "1e300",
            "--n-chi-points",
            "0",
            "--n-radial",
            "16",
            "--n-angular",
            "32",
        )
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "DomainError"
        assert "radial_cutoff_sigma" in error["message"]


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(catphase.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", "import sys, catphase.cli; print('scipy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


# Run in a fresh interpreter, since this one has imported numpy already.
_NUMPY_FREE = textwrap.dedent(
    """
    import contextlib, io, sys
    import catphase
    import catphase.cli

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert catphase.cli.main(list(argv)) == 0, argv
        return out.getvalue()

    for argv in (
        ["coeffs", "--branch", "minus", "--s", "0.4"],
        ["coeffs", "--mode", "1", "--preset", "yurke_stoler_plus"],
        ["moments", "--n", "2", "--phi0", "0.3", "--s", "0.9"],
        ["validate", "--preset", "odd_cat", "--alpha", "1.2", "0.3", "--s", "0.7"],
    ):
        run(*argv)
        assert "numpy" not in sys.modules, argv
    state = catphase.make_preset("even_cat", 1.0, 0.5j)
    assert isinstance(catphase.chi(state, 0.3 + 0.1j, -0.2j, 0.4), complex)
    assert "numpy" not in sys.modules
    assert "n_used=" in run("phase-dist", "--n-phi", "5")
    assert "numpy" in sys.modules
    assert catphase.quadrature_normalization is catphase.oracle.quadrature_normalization
    print("ok")
    """
)


def test_coeffs_and_moments_run_without_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(catphase.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
