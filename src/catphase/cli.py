"""Command-line front end emitting deterministic CSV/JSON artifacts.

Every command resolves a state (preset or explicit weights, polar
amplitudes), an ordering parameter and grid settings either from inline
flags or from a JSON config file (flags win), runs the computation and
writes one artifact to --out (default stdout).  Floats are printed in their
shortest round-trip representation and row order is fixed, so identical
configurations produce byte-identical output.

Exit status: 0 success, 2 configuration/parse errors, 3 domain errors,
4 convergence/cutoff errors.

NumPy and the oracle module are imported inside the handlers that make
arrays, so ``coeffs`` and ``moments`` run without loading NumPy.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from itertools import zip_longest

from .errors import CutoffTooSmallError, DomainError, NoConvergenceError, NullStateError
from .phasedist import (
    TruncationPolicy,
    build_spectrum,
    eval_one_mode_dist,
    eval_phase_dist,
    one_mode_coefficients,
    phase_mean_var,
    trig_moments,
)
from .quasiprob import chi, w
from .states import (
    PRESET_WEIGHTS,
    QuasiBellState,
    make_preset,
    normalization_constant,
    params_from_descriptor,
    state_from_descriptor,
    validate_params,
)

# Nominal |alpha|^2 = 0 on a figure sweep is replaced by this floor when the
# state would otherwise be non-normalizable (odd cat).
_ALPHA_SQ_FLOOR = 1e-8

_SLICE_AXES = ("gamma_re", "gamma_im", "delta_re", "delta_im")

# argparse's own pattern (-1, -0.5) has no exponent, so it took a value such
# as "-7.7e-05" for an option flag and refused the command.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

# Every numeric setting: name -> (kind, default, least value or None).  The
# name is both the config key and, with dashes, the flag, except that the
# slice axes are set only by --fix NAME=VALUE; a default of None stays None.
_NUMBERS = {
    "s": (float, 0.0, None),
    "eps_tail": (float, 1e-14, None),
    "n_min": (int, 4, None),
    "n_max": (int, 512, None),
    "n_phi": (int, 361, 2),
    "n_alpha": (int, 61, 2),
    "n": (int, 1, 1),
    "phi0": (float, None, None),
    "nx": (int, 61, 2),
    "ny": (int, 61, 2),
    "x_min": (float, -3.0, None),
    "x_max": (float, 3.0, None),
    "y_min": (float, -3.0, None),
    "y_max": (float, 3.0, None),
    "seed": (int, 2024, 0),
    "n_chi_points": (int, 10, 0),
    "n_radial": (int, 40, None),
    "n_angular": (int, 64, None),
    "radial_sigma": (float, 8.0, None),
    **{axis: (float, 0.0, None) for axis in _SLICE_AXES},
}

# The settings each checked parameter object is built from, in field order.
_TRUNCATION = ("eps_tail", "n_min", "n_max")
_POLICY = (TruncationPolicy, *_TRUNCATION)
_QUADRATURE = ("n_radial", "n_angular", "radial_sigma")  # of oracle.QuadratureSpec


class ConfigError(ValueError):
    """Bad command-line/config input (exit status 2)."""


# Exit status of each error a command reports, tried in this order.
_EXIT_STATUS = {
    ConfigError: 2,
    NullStateError: 2,
    DomainError: 3,
    OverflowError: 3,
    NoConvergenceError: 4,
    CutoffTooSmallError: 4,
}


def _fmt(value) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(value))


def _csv_text(header: dict, columns: list[str], rows) -> str:
    lines = [f"# {key}={header[key]}" for key in sorted(header)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bytes that are not UTF-8, bad JSON and integers
        # past Python's digit limit; RecursionError, nesting too deep to parse.
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    return config


def _setting(args, config: dict, name: str, default):
    """Flag value if given, else config entry, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _number(args, config: dict, name: str, label: str | None = None):
    """Numeric setting ``name`` (flag, config entry or default) as its ``_NUMBERS`` kind.

    Raises ConfigError, naming the setting ``label`` (default ``name``), for
    any other JSON type, a string that does not parse, a non-integral int, a
    non-finite float and a value below the setting's least value.  A setting
    whose default is None stays None when it is absent or null.
    """
    kind, default, least = _NUMBERS[name]
    value = _setting(args, config, name, default)
    if value is None and default is None:
        return None
    label = label or name
    kind_name = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{label} must be {kind_name}, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{label} must be {kind_name}, got {value!r}")
    try:
        number = kind(value)
    except ValueError as exc:
        raise ConfigError(f"{label} must be {kind_name}, got {value!r}") from exc
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"{label} must be finite, got {number!r}")
    if least is not None and number < least:
        raise ConfigError(f"{label} must be >= {least}, got {number}")
    return number


def _checked(args, config: dict, cls, *names: str):
    """``cls`` built from the numeric settings ``names``; its ValueError is a ConfigError."""
    values = [_number(args, config, name) for name in names]
    try:
        return cls(*values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _phi_grid(args, config: dict):
    import numpy as np

    return np.linspace(-math.pi, math.pi, _number(args, config, "n_phi"))


def _state_descriptor(args, config: dict) -> dict:
    if getattr(args, "state", None) is not None:
        try:
            descriptor = json.loads(args.state)
        except (ValueError, RecursionError) as exc:  # as for a config file
            raise ConfigError(f"--state is not valid JSON: {exc}") from exc
        if not isinstance(descriptor, dict):
            raise ConfigError("--state must hold a JSON object")
        return descriptor

    descriptor = config.get("state", {})
    if not isinstance(descriptor, dict):
        raise ConfigError("config 'state' must be a JSON object")
    descriptor = dict(descriptor)

    if args.preset is not None:
        descriptor.pop("mu", None)
        descriptor.pop("nu", None)
        descriptor["preset"] = args.preset
    if args.mu is not None or args.nu is not None:
        if args.mu is None or args.nu is None:
            raise ConfigError("give both --mu and --nu or neither")
        descriptor.pop("preset", None)
        descriptor["mu"] = {"re": args.mu[0], "im": args.mu[1]}
        descriptor["nu"] = {"re": args.nu[0], "im": args.nu[1]}
    if args.alpha is not None:
        descriptor["alpha"] = {"abs": args.alpha[0], "arg": args.alpha[1]}
    if args.beta is not None:
        descriptor["beta"] = {"abs": args.beta[0], "arg": args.beta[1]}
    if args.renormalize:
        descriptor["renormalize"] = True

    if "mu" not in descriptor:
        descriptor.setdefault("preset", "even_cat")
    descriptor.setdefault("alpha", {"abs": 1.0, "arg": 0.0})
    descriptor.setdefault("beta", {"abs": 1.0, "arg": 0.0})
    return descriptor


def _resolve(args, config: dict) -> tuple[QuasiBellState, float, dict]:
    """The state, the ordering parameter s, and the header fields naming the state."""
    descriptor = _state_descriptor(args, config)
    try:
        state = state_from_descriptor(descriptor)
    except ValueError as exc:
        raise ConfigError(f"invalid state: {exc}") from exc
    header = {
        "alpha_abs": _fmt(abs(state.alpha)),
        "alpha_arg": _fmt(math.atan2(state.alpha.imag, state.alpha.real)),
        "beta_abs": _fmt(abs(state.beta)),
        "beta_arg": _fmt(math.atan2(state.beta.imag, state.beta.real)),
    }
    if "preset" in descriptor:
        header["preset"] = descriptor["preset"]
    else:
        header.update(
            mu_re=_fmt(state.mu.real),
            mu_im=_fmt(state.mu.imag),
            nu_re=_fmt(state.nu.real),
            nu_im=_fmt(state.nu.imag),
        )
    return state, _number(args, config, "s"), header


def _spectrum(args, state: QuasiBellState, s: float, policy: TruncationPolicy):
    """The pair spectrum of --branch or the one-mode spectrum of --mode, and its header fields."""
    branch, mode = getattr(args, "branch", None), getattr(args, "mode", None)
    if (branch is None) == (mode is None):
        raise ConfigError(f"{args.command} needs exactly one of --branch or --mode")
    if branch is not None:
        spectrum = build_spectrum(state, s, branch, policy)
        return spectrum, {"branch": branch, "phi_prime": _fmt(spectrum.phi_ref)}
    spectrum = one_mode_coefficients(state, s, mode, policy)
    return spectrum, {"mode": str(mode), "phi_ref": _fmt(spectrum.phi_ref)}


def _cmd_validate(args, config: dict) -> str:
    descriptor = _state_descriptor(args, config)
    try:
        params = params_from_descriptor(descriptor)
    except ValueError as exc:
        raise ConfigError(f"invalid state: {exc}") from exc
    diagnostics = validate_params(*params)
    payload = {"diagnostics": diagnostics, "ok": not diagnostics}
    if not diagnostics:
        state = QuasiBellState(*params)
        s = _number(args, config, "s")
        norm = normalization_constant(state)
        chi_origin = chi(state, 0.0, 0.0, s)
        payload["checks"] = {
            "chi_origin_residual": abs(chi_origin - 1.0),
            "normalization_constant": norm,
            "s": s,
            "weight_norm_residual": abs(abs(state.mu) ** 2 + abs(state.nu) ** 2 - 1.0),
        }
    return _json_text(payload)


def _cmd_coeffs(args, config: dict) -> str:
    state, s, header = _resolve(args, config)
    policy = _checked(args, config, *_POLICY)
    spectrum, fields = _spectrum(args, state, s, policy)
    header.update(fields, command="coeffs", s=_fmt(s), eps_tail=_fmt(policy.eps_tail))
    if args.branch is not None:
        rows = [(str(n + 1), spectrum.cos_coeffs[n]) for n in range(spectrum.n_used)]
        return _csv_text(header, ["n", "c_n"], rows)

    columns = zip_longest(spectrum.c_even, spectrum.c_odd, spectrum.d_odd, fillvalue="")
    rows = ((str(k), *row) for k, row in enumerate(columns, start=1))
    return _csv_text(header, ["k", "c_even", "c_odd", "d_odd"], rows)


def _cmd_density(args, config: dict) -> str:
    """Phase-sum/difference (phase-dist) or one-mode density over the phi grid."""
    state, s, header = _resolve(args, config)
    offsets = _phi_grid(args, config)
    policy = _checked(args, config, *_POLICY)
    spectrum, fields = _spectrum(args, state, s, policy)
    density = eval_phase_dist(spectrum, spectrum.phi_ref + offsets)
    header.update(
        fields,
        command=args.command,
        s=_fmt(s),
        n_phi=str(offsets.size),
        n_used=str(spectrum.n_used),
    )
    return _csv_text(header, ["phi_offset", "density"], zip(offsets, density))


_FIGURE_PANELS = {
    # panel id: (branch, preset, kind)
    "1a": ("minus", "even_cat", "surface"),
    "1b": ("minus", "even_cat", "curves"),
    "1c": ("minus", "odd_cat", "surface"),
    "1d": ("minus", "odd_cat", "curves"),
    "2a": ("plus", "even_cat", "surface"),
    "2b": ("plus", "even_cat", "curves"),
    "2c": ("plus", "odd_cat", "surface"),
    "2d": ("plus", "odd_cat", "curves"),
}

_CURVE_S_VALUES = (-1.0, 0.0, 0.4)


def _cmd_figure(args, config: dict) -> str:
    import numpy as np

    branch, preset, kind = _FIGURE_PANELS[args.id]
    offsets = _phi_grid(args, config)
    policy = _checked(args, config, *_POLICY)
    header = {
        "command": "figure",
        "panel": args.id,
        "preset": preset,
        "branch": branch,
        "n_phi": str(offsets.size),
    }

    if kind == "curves":
        state = make_preset(preset, 1.0, 1.0)
        header.update(alpha_abs=_fmt(1.0), beta_abs=_fmt(1.0), s_values="[-1.0,0.0,0.4]")
        series = []
        for s in _CURVE_S_VALUES:
            spectrum = build_spectrum(state, s, branch, policy)
            series.append(eval_phase_dist(spectrum, spectrum.phi_ref + offsets))
        rows = zip(offsets, *series)
        return _csv_text(
            header, ["phi_offset", "density_s_m1", "density_s_0", "density_s_0p4"], rows
        )

    n_alpha = _number(args, config, "n_alpha")
    alpha_sq_grid = np.linspace(0.0, 3.0, n_alpha)
    header.update(
        s=_fmt(0.0),
        n_alpha=str(n_alpha),
        alpha_sq_max=_fmt(3.0),
        alpha_sq_floor=_fmt(_ALPHA_SQ_FLOOR),
    )
    rows = []
    for alpha_sq in alpha_sq_grid:
        amp = math.sqrt(max(alpha_sq, _ALPHA_SQ_FLOOR))
        state = make_preset(preset, amp, amp)
        spectrum = build_spectrum(state, 0.0, branch, policy)
        density = eval_phase_dist(spectrum, spectrum.phi_ref + offsets)
        rows.extend((alpha_sq, off, den) for off, den in zip(offsets, density))
    return _csv_text(header, ["alpha_sq", "phi_offset", "density"], rows)


def _cmd_moments(args, config: dict) -> str:
    state, s, header = _resolve(args, config)
    n = _number(args, config, "n")
    spectrum = build_spectrum(state, s, args.branch, _checked(args, config, *_POLICY))
    phi0 = _number(args, config, "phi0")
    if phi0 is None:
        phi0 = spectrum.phi_ref
    moments = trig_moments(spectrum, n)
    stats = phase_mean_var(spectrum, phi0)
    payload = {
        "branch": args.branch,
        "c_n": moments.mean_cos,
        "mean_cos": moments.mean_cos,
        "mean_sin": moments.mean_sin,
        "n": n,
        "phase_mean": stats.mean,
        "phase_variance": stats.variance,
        "phi0": phi0,
        "phi_prime": spectrum.phi_ref,
        "s": s,
        "state": header,
        "var_cos": moments.var_cos,
        "var_sin": moments.var_sin,
    }
    return _json_text(payload)


def _cmd_wigner_slice(args, config: dict) -> str:
    import numpy as np

    state, s, header = _resolve(args, config)
    x_axis = _setting(args, config, "x_axis", "gamma_re")
    y_axis = _setting(args, config, "y_axis", "gamma_im")
    if x_axis not in _SLICE_AXES or y_axis not in _SLICE_AXES or x_axis == y_axis:
        raise ConfigError(f"slice axes must be two distinct names from {_SLICE_AXES}")
    nx, ny = (_number(args, config, name) for name in ("nx", "ny"))
    x_min, x_max, y_min, y_max = (
        _number(args, config, name) for name in ("x_min", "x_max", "y_min", "y_max")
    )

    fixed = {name: 0.0 for name in _SLICE_AXES}
    items = args.fix or config.get("fix", [])
    if not isinstance(items, list):
        raise ConfigError("config 'fix' must be a list of 'name=value' strings")
    for item in items:
        if not isinstance(item, str):
            raise ConfigError("config 'fix' entries must be 'name=value' strings")
        name, _, raw = item.partition("=")
        if name not in _SLICE_AXES or not raw:
            raise ConfigError(f"--fix needs NAME=VALUE with NAME in {_SLICE_AXES}")
        fixed[name] = _number(args, {name: raw}, name, f"--fix value for {name}")

    xs = np.linspace(x_min, x_max, nx)
    ys = np.linspace(y_min, y_max, ny)
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    coords = {name: np.full_like(grid_x, fixed[name]) for name in _SLICE_AXES}
    coords[x_axis] = grid_x
    coords[y_axis] = grid_y
    gamma = coords["gamma_re"] + 1j * coords["gamma_im"]
    delta = coords["delta_re"] + 1j * coords["delta_im"]
    values = w(state, gamma, delta, s)

    header.update(
        command="wigner-slice",
        s=_fmt(s),
        x_axis=x_axis,
        y_axis=y_axis,
        nx=str(nx),
        ny=str(ny),
    )
    header.update({f"fixed_{k}": _fmt(v) for k, v in fixed.items() if k not in (x_axis, y_axis)})
    rows = ((xs[i], ys[j], values[i, j]) for i in range(nx) for j in range(ny))
    return _csv_text(header, [x_axis, y_axis, "w"], rows)


def _cmd_oracle_compare(args, config: dict) -> str:
    import numpy as np

    from . import oracle

    seed = _number(args, config, "seed")
    n_points = _number(args, config, "n_chi_points")
    spec = _checked(args, config, oracle.QuadratureSpec, *_QUADRATURE)
    policy = _checked(args, config, *_POLICY)
    rng = np.random.default_rng(seed)

    chi_dev = phase_dev = one_mode_dev = 0.0
    for preset in sorted(PRESET_WEIGHTS):
        state = make_preset(preset, 1.0, 1.0)
        for s in (-1.0, 0.0, 0.4):
            for _ in range(n_points):
                xi = complex(*rng.uniform(-1.4, 1.4, 2))
                eta = complex(*rng.uniform(-1.4, 1.4, 2))
                closed = chi(state, xi, eta, s)
                traced = oracle.fock_chi_oracle(state, xi, eta, s, n_cut=40).value
                chi_dev = max(chi_dev, abs(closed - traced))
            for branch in ("plus", "minus"):
                spectrum = build_spectrum(state, s, branch, policy)
                phis = spectrum.phi_ref + np.array([0.0, 0.5, -1.2, math.pi])
                analytic = eval_phase_dist(spectrum, phis)
                quad = oracle.quadrature_phase_dist(state, s, branch, phis, spec)
                phase_dev = max(phase_dev, float(np.max(np.abs(analytic - quad))))
            spectrum = one_mode_coefficients(state, s, 1, policy)
            phis = spectrum.phi_ref + np.array([0.0, 0.8, -0.8])
            analytic = eval_one_mode_dist(spectrum, phis)
            quad = oracle.quadrature_one_mode(state, s, 1, phis, spec)
            one_mode_dev = max(one_mode_dev, float(np.max(np.abs(analytic - quad))))

    norm_dev = 0.0
    for preset in ("even_cat", "odd_cat"):
        state = make_preset(preset, 1.0, 1.0)
        for s in (-1.0, 0.4):
            norm_dev = max(norm_dev, abs(oracle.quadrature_normalization(state, s, spec) - 1.0))

    payload = {
        "chi_vs_fock_max_abs_dev": chi_dev,
        "max_abs_dev": max(chi_dev, phase_dev, one_mode_dev, norm_dev),
        "n_chi_points": n_points,
        "normalization_max_abs_dev": norm_dev,
        "one_mode_vs_quadrature_max_abs_dev": one_mode_dev,
        "phase_dist_vs_quadrature_max_abs_dev": phase_dev,
        "quadrature": {
            "n_angular": spec.n_angular,
            "n_radial": spec.n_radial,
            "radial_cutoff_sigma": spec.radial_cutoff_sigma,
        },
        "seed": seed,
    }
    return _json_text(payload)


_BRANCH = {"choices": ("plus", "minus")}
_MODE = {"type": int, "choices": (1, 2)}
_MINUS_BRANCH = ("--branch", {**_BRANCH, "default": "minus"})
_AXIS = {"choices": _SLICE_AXES}

# Every command: name -> (help, handler, native format, takes the state flags,
# extra flags).  An extra flag is a _NUMBERS name or (flag, add_argument keywords).
_COMMANDS = {
    "validate": ("state diagnostics plus invariant spot-checks (JSON)",
                 _cmd_validate, "json", True, ()),
    "coeffs": ("Fourier coefficients (CSV)",
               _cmd_coeffs, "csv", True,
               (("--branch", _BRANCH), ("--mode", _MODE), *_TRUNCATION)),
    "phase-dist": ("phase-sum/difference density over a phi grid (CSV)",
                   _cmd_density, "csv", True, (_MINUS_BRANCH, "n_phi", *_TRUNCATION)),
    "one-mode": ("one-mode phase density over a phi grid (CSV)",
                 _cmd_density, "csv", True,
                 (("--mode", {**_MODE, "default": 1}), "n_phi", *_TRUNCATION)),
    "figure": ("data behind one display panel (CSV)",
               _cmd_figure, "csv", False,
               (("--id", {"required": True, "choices": sorted(_FIGURE_PANELS)}),
                "n_phi", "n_alpha", *_TRUNCATION)),
    "moments": ("trigonometric and windowed phase moments (JSON)",
                _cmd_moments, "json", True, (_MINUS_BRANCH, "n", "phi0", *_TRUNCATION)),
    "wigner-slice": ("W over a 2D slice of (gamma, delta) (CSV)",
                     _cmd_wigner_slice, "csv", True,
                     (("--x-axis", _AXIS), ("--y-axis", _AXIS), "x_min", "x_max", "y_min", "y_max",
                      "nx", "ny", ("--fix", {"action": "append", "metavar": "NAME=VALUE"}))),
    "oracle-compare": ("analytic-vs-oracle deviation report (JSON)",
                       _cmd_oracle_compare, "json", False,
                       ("seed", "n_chi_points", "n_radial", "n_angular", "radial_sigma",
                        *_TRUNCATION)),
}


class _CommandParser(argparse.ArgumentParser):
    """One command's parser: it refuses an argument it does not know with its own usage."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs, allow_abbrev=False)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_number(parser, name: str, help: str | None = None) -> None:
    """The flag of numeric setting ``name``: ``--name-with-dashes`` of its kind."""
    flag = "--" + name.replace("_", "-")
    parser.add_argument(flag, dest=name, type=_NUMBERS[name][0], help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catphase",
        description="Phase distributions of entangled two-mode coherent states",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (help_text, _, _, takes_state, extras) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; inline flags override it")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            help="expected output format; errors if it differs from the command's native format",
        )
        if takes_state:
            group = p.add_argument_group("state")
            group.add_argument(
                "--state", help="full JSON state descriptor (overrides other state flags)"
            )
            group.add_argument("--preset", choices=sorted(PRESET_WEIGHTS))
            for flag in ("--mu", "--nu", "--alpha", "--beta"):
                metavar = ("RE", "IM") if flag in ("--mu", "--nu") else ("ABS", "ARG")
                group.add_argument(flag, type=float, nargs=2, metavar=metavar)
            group.add_argument("--renormalize", action="store_true")
            _add_number(group, "s", "ordering parameter (default 0)")
        for extra in extras:
            if isinstance(extra, str):
                _add_number(p, extra)
            else:
                p.add_argument(extra[0], **extra[1])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, native_format, _, _ = _COMMANDS[args.command]
    try:
        config = _load_config(args.config)
        requested = _setting(args, config, "format", None)
        if requested is not None and requested != native_format:
            raise ConfigError(f"command {args.command!r} emits {native_format}, not {requested}")
        text = handler(args, config)
        if args.out in (None, "-"):
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output {args.out!r}: {exc}") from exc
    except tuple(_EXIT_STATUS) as exc:
        status = next(code for kind, code in _EXIT_STATUS.items() if isinstance(exc, kind))
        error = {"message": str(exc), "status": status, "type": type(exc).__name__}
        sys.stdout.write(_json_text({"error": error}))
        return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
