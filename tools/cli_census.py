"""CLI stdout census: the exit code and a hash of stdout for fixed configs.

Runs ``catphase.cli.main`` in-process over a fixed list of command lines and
writes ``{argv: [exit code, sha256 of stdout]}`` as JSON.  Two censuses taken
on two versions of the code show which command lines changed their output,
error payloads and exit codes included.

The configs:

- 12 command variants (validate; coeffs --branch plus/minus and --mode 1/2;
  phase-dist plus/minus; one-mode 1/2; moments plus/minus; wigner-slice)
  x 5 states (the 4 presets and one state with explicit weights)
  x 3 amplitude pairs x s in {-1, 0, 0.4, 0.9, 0.97}: 900;
- the 8 figure panels;
- 24 n_min/n_max edge configs (4 commands x 6 caps, odd cat, s = 0);
- 15 overflow/no-convergence region configs (5 regions x 3 commands);
- then the flag surface: every flag of every command at least once, the
  configuration errors those flags can raise, argparse refusals,
  unreadable ``--config`` and unwritable ``--out`` paths, and ``--help`` for
  the top level and every command (``oracle-compare`` at small node counts);
- then ``LATER_CONFIGS``: edges of the domain (results past the float
  range, Bessel arguments near 1e-308, a spectrum that does not converge by
  n_max), input errors (``validate --renormalize`` of bad weights, settings
  below their least value or not finite, abbreviated flags, a malformed
  ``--state``), and ``oracle-compare`` at its defaults (40 x 64 nodes,
  10 chi points).

Configs are only ever appended, never reordered or removed, so a census
taken on an older list still compares on its prefix.  ``run`` pins
``COLUMNS=80``, because argparse wraps help text to the terminal width.

Usage, from the repository root:

    PYTHONPATH=src python tools/cli_census.py --out census.json
    python tools/cli_census.py --compare before.json after.json

``--compare`` prints each command line whose entry differs or is missing
from one side, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

PRESETS = ("even_cat", "odd_cat", "yurke_stoler_minus", "yurke_stoler_plus")
EXPLICIT = ("--mu", "0.6", "0.0", "--nu", "-0.48", "0.64")
AMPLITUDES = (
    ("1.0", "0.0", "1.0", "0.0"),
    ("0.5", "0.3", "1.5", "-1.1"),
    ("2.0", "1.0", "0.0", "0.0"),
)
S_VALUES = ("-1.0", "0.0", "0.4", "0.9", "0.97")
COMMANDS = (
    ("validate",),
    ("coeffs", "--branch", "plus"),
    ("coeffs", "--branch", "minus"),
    ("coeffs", "--mode", "1"),
    ("coeffs", "--mode", "2"),
    ("phase-dist", "--branch", "plus"),
    ("phase-dist", "--branch", "minus"),
    ("one-mode", "--mode", "1"),
    ("one-mode", "--mode", "2"),
    ("moments", "--branch", "plus"),
    ("moments", "--branch", "minus"),
    ("wigner-slice",),
)
PANELS = ("1a", "1b", "1c", "1d", "2a", "2b", "2c", "2d")
EDGE_COMMANDS = (
    ("coeffs", "--branch", "minus"),
    ("coeffs", "--mode", "1"),
    ("phase-dist", "--branch", "plus"),
    ("one-mode", "--mode", "2"),
)
EDGE_CAPS = (("1", "1"), ("1", "2"), ("2", "2"), ("1", "3"), ("4", "4"), ("8", "8"))
# Regions at the edge of the domain, (preset, |alpha| = |beta|, s), and what
# the pair spectra do there.
REGIONS = (
    ("odd_cat", "1.0", "0.99"),  # converges with 466 terms
    ("odd_cat", "1.0", "0.999"),  # OverflowError at c_1
    ("even_cat", "4.0", "0.9"),  # NoConvergenceError at n_max = 512
    ("even_cat", "6.0", "0.9"),  # OverflowError
    ("odd_cat", "20.0", "0.0"),  # converges with 229 terms
)
REGION_COMMANDS = (
    ("coeffs", "--branch", "plus"),
    ("coeffs", "--mode", "1"),
    ("moments", "--branch", "minus"),
)

HELP_COMMANDS = (
    (),
    ("validate",),
    ("coeffs",),
    ("phase-dist",),
    ("one-mode",),
    ("figure",),
    ("moments",),
    ("wigner-slice",),
    ("oracle-compare",),
)
STATE_JSON = (
    '{"preset": "odd_cat", "alpha": {"abs": 0.7, "arg": 0.2}, "beta": {"abs": 1.1, "arg": -0.3}}',
    '{"mu": {"re": 0.6, "im": 0.0}, "nu": {"re": 0.0, "im": 1.6}, "renormalize": true,'
    ' "alpha": {"abs": 1.0, "arg": 0.0}, "beta": {"abs": 0.5, "arg": 1.0}}',
    '{"mu": {"re": 0.6, "im": 0.0}, "nu": {"re": 0.0, "im": 1.6}}',
    '{"preset": "no_such_preset"}',
    '{"alpha": {"abs": -1.0, "arg": 0.0}}',
    "{bad",
    "[1, 2]",
)
# Flags on the commands that take them, valid values and the errors they can
# raise, each after a cheap command line.
FLAG_CONFIGS = (
    ("phase-dist", "--n-phi", "5", "--mu", "1", "0", "--nu", "1", "0", "--renormalize"),
    ("phase-dist", "--n-phi", "5", "--mu", "1", "0", "--nu", "1", "0"),
    ("phase-dist", "--n-phi", "5", "--mu", "0.6", "0.0"),
    ("phase-dist", "--n-phi", "5", "--nu", "0.6", "0.0"),
    ("phase-dist", "--n-phi", "5", "--preset", "odd_cat", "--mu", "0.6", "0", "--nu", "0", "0.8"),
    ("phase-dist", "--n-phi", "5", "--preset", "odd_cat", "--alpha", "0", "0", "--beta", "0", "0"),
    ("phase-dist", "--n-phi", "5", "--s", "1.0"),
    ("phase-dist", "--n-phi", "5", "--s", "-4.775e-01", "--alpha", "1.2", "-1E-3"),
    ("phase-dist", "--n-phi", "2"),
    ("phase-dist", "--n-phi", "1"),
    ("phase-dist", "--n-phi", "5", "--eps-tail", "1e-8"),
    ("phase-dist", "--n-phi", "5", "--eps-tail", "0"),
    ("phase-dist", "--n-phi", "5", "--eps-tail", "-1e-3"),
    ("phase-dist", "--n-phi", "5", "--n-min", "0"),
    ("phase-dist", "--n-phi", "5", "--n-min", "9", "--n-max", "8"),
    ("one-mode", "--n-phi", "7", "--mode", "2", "--eps-tail", "1e-6"),
    ("one-mode", "--n-phi", "1"),
    ("coeffs",),
    ("coeffs", "--branch", "plus", "--mode", "2"),
    ("coeffs", "--branch", "plus", "--eps-tail", "1e-4", "--n-min", "2"),
    ("figure", "--id", "1a", "--n-phi", "5", "--n-alpha", "3"),
    ("figure", "--id", "2c", "--n-phi", "3", "--n-alpha", "2", "--eps-tail", "1e-6"),
    ("figure", "--id", "1a", "--n-alpha", "1"),
    ("figure", "--id", "2d", "--n-phi", "1"),
    ("figure", "--id", "2d", "--n-phi", "4", "--n-max", "3"),
    ("moments", "--n", "2", "--phi0", "0.3"),
    ("moments", "--branch", "plus", "--n", "3", "--phi0", "-1e-2", "--s", "-1"),
    ("moments", "--n", "0"),
    ("moments", "--n", "-2"),
    ("validate", "--s", "0.3", "--eps-tail", "0"),
    ("validate", "--mu", "1", "0", "--nu", "1", "0", "--alpha", "1", "0"),
    ("validate", "--mu", "0.6", "0.0"),
    ("wigner-slice", "--nx", "3", "--ny", "4", "--x-axis", "delta_re", "--y-axis", "gamma_im",
     "--x-min", "-1", "--x-max", "2", "--y-min", "-0.5", "--y-max", "0.5",
     "--fix", "delta_im=0.25", "--fix", "gamma_re=-1"),
    ("wigner-slice", "--nx", "2", "--ny", "2", "--x-axis", "delta_im", "--y-axis", "delta_re"),
    ("wigner-slice", "--nx", "2", "--ny", "2", "--fix", "gamma_re=3"),
    ("wigner-slice", "--nx", "1", "--ny", "2"),
    ("wigner-slice", "--nx", "2", "--ny", "0"),
    ("wigner-slice", "--x-axis", "gamma_im"),
    ("wigner-slice", "--nx", "2", "--ny", "2", "--fix", "delta_re"),
    ("wigner-slice", "--nx", "2", "--ny", "2", "--fix", "delta_re=x"),
    ("wigner-slice", "--nx", "2", "--ny", "2", "--fix", "nope=1"),
    ("oracle-compare", "--n-chi-points", "1", "--n-radial", "16", "--n-angular", "32"),
    ("oracle-compare", "--n-chi-points", "0", "--n-radial", "16", "--n-angular", "32",
     "--radial-sigma", "6", "--seed", "7", "--eps-tail", "1e-10", "--n-min", "3", "--n-max", "64"),
    ("oracle-compare", "--seed", "-1"),
    ("oracle-compare", "--n-radial", "4"),
    ("oracle-compare", "--n-angular", "8"),
    ("oracle-compare", "--radial-sigma", "0"),
    ("oracle-compare", "--n-chi-points", "0", "--n-radial", "16", "--n-angular", "32",
     "--n-max", "0"),
    # argparse refusals: nothing on stdout, exit 2
    ("phase-dist", "--preset", "no_such_preset"),
    ("phase-dist", "--branch", "sideways"),
    ("one-mode", "--mode", "3"),
    ("figure",),
    ("figure", "--id", "3a"),
    ("moments", "--s", "abc"),
    ("moments", "--n", "1.5"),
    ("wigner-slice", "--x-axis", "theta"),
    ("oracle-compare", "--preset", "even_cat"),
    ("phase-dist", "--alpha", "1"),
    ("no-such-command",),
    (),
)
# Only ever appended to, so a census taken on an older list compares on its prefix.
LATER_CONFIGS = (
    ("validate", "--mu", "1", "0", "--nu", "1", "0", "--renormalize"),
    ("validate", "--mu", "0", "0", "--nu", "0", "0", "--renormalize"),
    ("oracle-compare", "--n-chi-points", "-1", "--n-radial", "16", "--n-angular", "32"),
    ("wigner-slice", "--nx", "2", "--ny", "2", "--x-min", "nan"),
    ("wigner-slice", "--nx", "2", "--ny", "2", "--fix", "delta_re=nan"),
    (
        "moments", "--preset", "odd_cat", "--alpha", "1.1361335358221332", "0",
        "--beta", "1.6326762425465526", "0", "--s", "0.9786597790976956",
        "--branch", "plus", "--phi0", "3.0",
    ),
    (
        "oracle-compare", "--radial-sigma", "1e300", "--n-chi-points", "0",
        "--n-radial", "16", "--n-angular", "32",
    ),
    ("validate", "--alpha", "1e200", "0", "--beta", "1", "0"),
    ("phase-dist", "--alpha", "1e200", "0", "--beta", "1", "0", "--n-phi", "3"),
    ("phase-dist", "--alpha", "1e154", "0", "--beta", "1", "0", "--s", "0.5", "--n-phi", "3"),
    ("validate", "--mu", "1.7e308", "1.7e308", "--nu", "1", "0", "--renormalize"),
    (
        "phase-dist", "--preset", "odd_cat", "--alpha", "1e-154", "0", "--beta", "1", "0",
        "--s", "0", "--n-phi", "3",
    ),
    ("phase-dist", "--preset", "odd_cat", "--s", "-1e307", "--n-phi", "3"),
    ("oracle-compare", "--s", "3", "--n-chi-points", "0", "--n-radial", "16", "--n-angular", "32"),
    ("phase-dist", "--n-ph", "3"),
    ("moments", "--preset", "odd_cat", "--phi0", "1e308"),
    (
        "coeffs", "--mode", "1", "--preset", "yurke_stoler_plus", "--alpha", "1", "0",
        "--beta", "1", "0", "--s", "0.999",
    ),
    (
        "one-mode", "--mode", "2", "--preset", "yurke_stoler_plus", "--alpha", "1", "0",
        "--beta", "1", "0", "--s", "0.999",
    ),
    (
        "coeffs", "--mode", "2", "--preset", "yurke_stoler_minus", "--alpha", "6", "0",
        "--beta", "6", "0", "--s", "0.9",
    ),
    (
        "phase-dist", "--n-phi", "5", "--state",
        '{"mu": {"re": 1}, "nu": {"re": 0, "im": 1}, '
        '"alpha": {"abs": 1, "arg": 0}, "beta": {"abs": 1, "arg": 0}}',
    ),
    ("oracle-compare",),
)
NATIVE_FORMATS = (
    ("validate", "json"),
    ("coeffs", "csv", "--branch", "plus"),
    ("phase-dist", "csv", "--n-phi", "3"),
    ("one-mode", "csv", "--n-phi", "3"),
    ("figure", "csv", "--id", "1b", "--n-phi", "3"),
    ("moments", "json"),
    ("wigner-slice", "csv", "--nx", "2", "--ny", "2"),
    ("oracle-compare", "json", "--n-chi-points", "0", "--n-radial", "16", "--n-angular", "32"),
)
# Config paths that cannot be read, and output targets: stdout and two paths
# that cannot be written.  No path here depends on the working directory.
BAD_CONFIGS = ("/nonexistent/catphase-census.json", "/dev/null", "/")
OUT_PATHS = ("-", "/nonexistent/catphase-census.csv", "/")


def _flag_surface() -> list[list[str]]:
    """Every flag at least once, with the errors it can raise, and ``--help``."""
    out = [[*command, "--help"] for command in HELP_COMMANDS]
    for state in STATE_JSON:
        out.append(["coeffs", "--branch", "minus", "--state", state])
    out.extend(list(argv) for argv in FLAG_CONFIGS)
    for command, native, *rest in NATIVE_FORMATS:
        other = "csv" if native == "json" else "json"
        out.append([command, *rest, "--format", native])
        out.append([command, *rest, "--format", other])
    for path in BAD_CONFIGS:
        out.append(["moments", "--config", path])
    for path in OUT_PATHS:
        out.append(["coeffs", "--mode", "1", "--out", path])
    return out


def configs() -> list[list[str]]:
    """The census command lines, in a fixed order."""
    out = []
    states = [("--preset", name) for name in PRESETS] + [EXPLICIT]
    for command in COMMANDS:
        for state in states:
            for a_abs, a_arg, b_abs, b_arg in AMPLITUDES:
                for s in S_VALUES:
                    amps = ("--alpha", a_abs, a_arg, "--beta", b_abs, b_arg)
                    out.append([*command, *state, *amps, "--s", s])
    out.extend(["figure", "--id", panel] for panel in PANELS)
    for command in EDGE_COMMANDS:
        for n_min, n_max in EDGE_CAPS:
            flags = ("--preset", "odd_cat", "--n-min", n_min, "--n-max", n_max)
            out.append([*command, *flags])
    for command in REGION_COMMANDS:
        for preset, amp, s in REGIONS:
            amps = ("--alpha", amp, "0.0", "--beta", amp, "0.0")
            out.append([*command, "--preset", preset, *amps, "--s", s])
    out.extend(_flag_surface())
    out.extend(list(argv) for argv in LATER_CONFIGS)
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of stdout of one in-process ``catphase.cli.main`` call.

    An exception that escapes ``main`` counts as exit code 1, as it would
    for ``python -m catphase.cli``.
    """
    from catphase import cli

    buffer = io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusals and --help
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is a result too: exit code 1
                code = 1
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def census() -> dict[str, list]:
    return {" ".join(argv): list(run(argv)) for argv in configs()}


def compare(before: dict, after: dict) -> list[str]:
    """Command lines whose entries differ, or that only one census has."""
    keys = sorted(before.keys() | after.keys())
    return [key for key in keys if before.get(key) != after.get(key)]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the census here (default stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list differing configs")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (_load(path) for path in args.compare)
        differ = compare(first, second)
        for key in differ:
            print(f"{key}: {first.get(key)} -> {second.get(key)}")
        print(f"{len(differ)} of {len(first.keys() | second.keys())} configs differ")
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
