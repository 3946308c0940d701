"""CLI stdout census: the exit code and a hash of stdout for 947 fixed configs.

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
- 15 overflow/no-convergence region configs (5 regions x 3 commands).

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
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of stdout of one in-process ``catphase.cli.main`` call."""
    from catphase import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 1
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
