"""Command-line front end emitting deterministic CSV/JSON artifacts.

Every command resolves a state (preset or explicit weights, polar
amplitudes), an ordering parameter and grid settings either from inline
flags or from a JSON config file (flags win), runs the computation and
writes one artifact to --out (default stdout).  Floats are printed in their
shortest round-trip representation and row order is fixed, so identical
configurations produce byte-identical output.

Exit status: 0 success, 2 configuration/parse errors, 3 domain errors,
4 convergence/cutoff errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .errors import CutoffTooSmallError, DomainError, NoConvergenceError, NullStateError
from .oracle import (
    QuadratureSpec,
    fock_chi_oracle,
    quadrature_normalization,
    quadrature_one_mode,
    quadrature_phase_dist,
)
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
    normalization_constant,
    params_from_descriptor,
    state_from_descriptor,
    validate_params,
)

_TWO_PI = 2.0 * math.pi

# Nominal |alpha|^2 = 0 on a figure sweep is replaced by this floor when the
# state would otherwise be non-normalizable (odd cat).
_ALPHA_SQ_FLOOR = 1e-8

_SLICE_AXES = ("gamma_re", "gamma_im", "delta_re", "delta_im")

# argparse's own pattern (-1, -0.5) has no exponent, so it took a value such
# as "-7.7e-05" for an option flag and refused the command.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class ConfigError(ValueError):
    """Bad command-line/config input (exit status 2)."""


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


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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


def _number(args, config: dict, name: str, default, kind=float):
    """Setting ``name`` (flag, config entry or default) as a ``kind``, float or int.

    Raises ConfigError for any other JSON type, for a string that does not
    parse, and for a non-integral or non-finite value of an int setting.  A
    setting whose default is None stays None when it is absent or null.
    """
    value = _setting(args, config, name, default)
    if value is None and default is None:
        return None
    kind_name = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name} must be {kind_name}, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be {kind_name}, got {value!r}")
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{name} must be {kind_name}, got {value!r}") from exc


def _state_descriptor(args, config: dict) -> dict:
    if getattr(args, "state", None) is not None:
        try:
            descriptor = json.loads(args.state)
        except json.JSONDecodeError as exc:
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


def _resolve_state(args, config: dict) -> tuple[QuasiBellState, dict]:
    descriptor = _state_descriptor(args, config)
    try:
        state = state_from_descriptor(descriptor)
    except (ValueError, NullStateError) as exc:
        raise ConfigError(f"invalid state: {exc}") from exc
    return state, descriptor


def _truncation_policy(args, config: dict) -> TruncationPolicy:
    try:
        return TruncationPolicy(
            eps_tail=_number(args, config, "eps_tail", 1e-14),
            n_min=_number(args, config, "n_min", 4, int),
            n_max=_number(args, config, "n_max", 512, int),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _quadrature_spec(args, config: dict) -> QuadratureSpec:
    try:
        return QuadratureSpec(
            n_radial=_number(args, config, "n_radial", 40, int),
            n_angular=_number(args, config, "n_angular", 64, int),
            radial_cutoff_sigma=_number(args, config, "radial_sigma", 8.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _phi_grid(args, config: dict) -> np.ndarray:
    n_phi = _number(args, config, "n_phi", 361, int)
    if n_phi < 2:
        raise ConfigError(f"n_phi must be >= 2, got {n_phi}")
    return np.linspace(-math.pi, math.pi, n_phi)


def _state_header(descriptor: dict, state: QuasiBellState) -> dict:
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
    return header


def _cmd_validate(args, config: dict) -> str:
    descriptor = _state_descriptor(args, config)
    try:
        alpha, beta, mu, nu = params_from_descriptor(descriptor)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    diagnostics = validate_params(alpha, beta, mu, nu)
    payload = {"diagnostics": diagnostics, "ok": not diagnostics}
    if not diagnostics:
        state = QuasiBellState(alpha, beta, mu, nu)
        s = _number(args, config, "s", 0.0)
        norm = normalization_constant(state)
        chi_origin = chi(state, 0.0, 0.0, s)
        payload["checks"] = {
            "chi_origin_residual": abs(chi_origin - 1.0),
            "normalization_constant": norm,
            "s": s,
            "weight_norm_residual": abs(abs(mu) ** 2 + abs(nu) ** 2 - 1.0),
        }
    return _json_text(payload)


def _cmd_coeffs(args, config: dict) -> str:
    state, descriptor = _resolve_state(args, config)
    s = _number(args, config, "s", 0.0)
    policy = _truncation_policy(args, config)
    header = _state_header(descriptor, state)
    header.update(command="coeffs", s=_fmt(s), eps_tail=_fmt(policy.eps_tail))

    if (args.branch is None) == (args.mode is None):
        raise ConfigError("coeffs needs exactly one of --branch or --mode")
    if args.branch is not None:
        spectrum = build_spectrum(state, s, args.branch, policy)
        header.update(branch=args.branch, phi_prime=_fmt(spectrum.phi_prime))
        rows = [(str(n + 1), spectrum.coeffs[n]) for n in range(spectrum.n_used)]
        return _csv_text(header, ["n", "c_n"], rows)

    spectrum = one_mode_coefficients(state, s, args.mode, policy)
    header.update(mode=str(args.mode), phi_ref=_fmt(spectrum.phi_ref))
    rows = []
    for k in range(1, (spectrum.n_used + 1) // 2 + 1):
        even_idx, odd_idx = 2 * k, 2 * k - 1
        rows.append(
            (
                str(k),
                _fmt(spectrum.cos_coeffs[even_idx - 1]) if even_idx <= spectrum.n_used else "",
                spectrum.cos_coeffs[odd_idx - 1],
                spectrum.sin_coeffs[odd_idx - 1],
            )
        )
    return _csv_text(header, ["k", "c_even", "c_odd", "d_odd"], rows)


def _cmd_phase_dist(args, config: dict) -> str:
    state, descriptor = _resolve_state(args, config)
    s = _number(args, config, "s", 0.0)
    offsets = _phi_grid(args, config)
    spectrum = build_spectrum(state, s, args.branch, _truncation_policy(args, config))
    density = eval_phase_dist(spectrum, spectrum.phi_prime + offsets)
    header = _state_header(descriptor, state)
    header.update(
        command="phase-dist",
        branch=args.branch,
        s=_fmt(s),
        n_phi=str(offsets.size),
        phi_prime=_fmt(spectrum.phi_prime),
        n_used=str(spectrum.n_used),
    )
    rows = zip(offsets, density)
    return _csv_text(header, ["phi_offset", "density"], rows)


def _cmd_one_mode(args, config: dict) -> str:
    state, descriptor = _resolve_state(args, config)
    s = _number(args, config, "s", 0.0)
    offsets = _phi_grid(args, config)
    spectrum = one_mode_coefficients(state, s, args.mode, _truncation_policy(args, config))
    density = eval_one_mode_dist(spectrum, spectrum.phi_ref + offsets)
    header = _state_header(descriptor, state)
    header.update(
        command="one-mode",
        mode=str(args.mode),
        s=_fmt(s),
        n_phi=str(offsets.size),
        phi_ref=_fmt(spectrum.phi_ref),
        n_used=str(spectrum.n_used),
    )
    rows = zip(offsets, density)
    return _csv_text(header, ["phi_offset", "density"], rows)


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
    branch, preset, kind = _FIGURE_PANELS[args.id]
    offsets = _phi_grid(args, config)
    policy = _truncation_policy(args, config)
    header = {
        "command": "figure",
        "panel": args.id,
        "preset": preset,
        "branch": branch,
        "n_phi": str(offsets.size),
    }

    if kind == "curves":
        state = QuasiBellState(1.0, 1.0, *PRESET_WEIGHTS[preset])
        header.update(alpha_abs=_fmt(1.0), beta_abs=_fmt(1.0), s_values="[-1.0,0.0,0.4]")
        series = []
        for s in _CURVE_S_VALUES:
            spectrum = build_spectrum(state, s, branch, policy)
            series.append(eval_phase_dist(spectrum, spectrum.phi_prime + offsets))
        rows = zip(offsets, *series)
        return _csv_text(
            header, ["phi_offset", "density_s_m1", "density_s_0", "density_s_0p4"], rows
        )

    n_alpha = _number(args, config, "n_alpha", 61, int)
    if n_alpha < 2:
        raise ConfigError(f"n_alpha must be >= 2, got {n_alpha}")
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
        try:
            state = QuasiBellState(amp, amp, *PRESET_WEIGHTS[preset])
        except NullStateError:  # pragma: no cover - floor keeps this unreachable
            continue
        spectrum = build_spectrum(state, 0.0, branch, policy)
        density = eval_phase_dist(spectrum, spectrum.phi_prime + offsets)
        rows.extend((alpha_sq, off, den) for off, den in zip(offsets, density))
    return _csv_text(header, ["alpha_sq", "phi_offset", "density"], rows)


def _cmd_moments(args, config: dict) -> str:
    state, descriptor = _resolve_state(args, config)
    s = _number(args, config, "s", 0.0)
    n = _number(args, config, "n", 1, int)
    spectrum = build_spectrum(state, s, args.branch, _truncation_policy(args, config))
    phi0 = _number(args, config, "phi0", None)
    if phi0 is None:
        phi0 = spectrum.phi_prime
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
        "phi_prime": spectrum.phi_prime,
        "s": s,
        "state": {k: v for k, v in _state_header(descriptor, state).items()},
        "var_cos": moments.var_cos,
        "var_sin": moments.var_sin,
    }
    return _json_text(payload)


def _cmd_wigner_slice(args, config: dict) -> str:
    state, descriptor = _resolve_state(args, config)
    s = _number(args, config, "s", 0.0)
    x_axis = _setting(args, config, "x_axis", "gamma_re")
    y_axis = _setting(args, config, "y_axis", "gamma_im")
    if x_axis not in _SLICE_AXES or y_axis not in _SLICE_AXES or x_axis == y_axis:
        raise ConfigError(f"slice axes must be two distinct names from {_SLICE_AXES}")
    nx = _number(args, config, "nx", 61, int)
    ny = _number(args, config, "ny", 61, int)
    if nx < 2 or ny < 2:
        raise ConfigError("slice grid sizes must be >= 2")
    x_min = _number(args, config, "x_min", -3.0)
    x_max = _number(args, config, "x_max", 3.0)
    y_min = _number(args, config, "y_min", -3.0)
    y_max = _number(args, config, "y_max", 3.0)

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
        try:
            fixed[name] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"--fix value for {name} must be a number, got {raw!r}") from exc

    xs = np.linspace(x_min, x_max, nx)
    ys = np.linspace(y_min, y_max, ny)
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    coords = {name: np.full_like(grid_x, fixed[name]) for name in _SLICE_AXES}
    coords[x_axis] = grid_x
    coords[y_axis] = grid_y
    gamma = coords["gamma_re"] + 1j * coords["gamma_im"]
    delta = coords["delta_re"] + 1j * coords["delta_im"]
    values = w(state, gamma, delta, s)

    header = _state_header(descriptor, state)
    header.update(
        command="wigner-slice",
        s=_fmt(s),
        x_axis=x_axis,
        y_axis=y_axis,
        nx=str(nx),
        ny=str(ny),
    )
    header.update({f"fixed_{k}": _fmt(v) for k, v in fixed.items() if k not in (x_axis, y_axis)})
    rows = (
        (xs[i], ys[j], values[i, j])
        for i in range(nx)
        for j in range(ny)
    )
    return _csv_text(header, [x_axis, y_axis, "w"], rows)


def _cmd_oracle_compare(args, config: dict) -> str:
    seed = _number(args, config, "seed", 2024, int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    n_points = _number(args, config, "n_chi_points", 10, int)
    spec = _quadrature_spec(args, config)
    policy = _truncation_policy(args, config)
    rng = np.random.default_rng(seed)

    chi_dev = 0.0
    phase_dev = 0.0
    one_mode_dev = 0.0
    for preset in sorted(PRESET_WEIGHTS):
        state = QuasiBellState(1.0, 1.0, *PRESET_WEIGHTS[preset])
        for s in (-1.0, 0.0, 0.4):
            for _ in range(n_points):
                xi = complex(*rng.uniform(-1.4, 1.4, 2))
                eta = complex(*rng.uniform(-1.4, 1.4, 2))
                closed = chi(state, xi, eta, s)
                traced = fock_chi_oracle(state, xi, eta, s, n_cut=40).value
                chi_dev = max(chi_dev, abs(closed - traced))
            for branch in ("plus", "minus"):
                spectrum = build_spectrum(state, s, branch, policy)
                phis = spectrum.phi_prime + np.array([0.0, 0.5, -1.2, math.pi])
                analytic = eval_phase_dist(spectrum, phis)
                quad = quadrature_phase_dist(state, s, branch, phis, spec)
                phase_dev = max(phase_dev, float(np.max(np.abs(analytic - quad))))
            spectrum = one_mode_coefficients(state, s, 1, policy)
            phis = spectrum.phi_ref + np.array([0.0, 0.8, -0.8])
            analytic = eval_one_mode_dist(spectrum, phis)
            quad = quadrature_one_mode(state, s, 1, phis, spec)
            one_mode_dev = max(one_mode_dev, float(np.max(np.abs(analytic - quad))))

    norm_dev = 0.0
    for preset in ("even_cat", "odd_cat"):
        state = QuasiBellState(1.0, 1.0, *PRESET_WEIGHTS[preset])
        for s in (-1.0, 0.4):
            norm_dev = max(norm_dev, abs(quadrature_normalization(state, s, spec) - 1.0))

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


def _add_state_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("state")
    group.add_argument("--state", help="full JSON state descriptor (overrides other state flags)")
    group.add_argument("--preset", choices=sorted(PRESET_WEIGHTS))
    group.add_argument("--mu", type=float, nargs=2, metavar=("RE", "IM"))
    group.add_argument("--nu", type=float, nargs=2, metavar=("RE", "IM"))
    group.add_argument("--alpha", type=float, nargs=2, metavar=("ABS", "ARG"))
    group.add_argument("--beta", type=float, nargs=2, metavar=("ABS", "ARG"))
    group.add_argument("--renormalize", action="store_true")
    group.add_argument("--s", type=float, help="ordering parameter (default 0)")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; inline flags override it")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        help="expected output format; errors if it differs from the command's native format",
    )
    parser.add_argument("--eps-tail", dest="eps_tail", type=float)
    parser.add_argument("--n-min", dest="n_min", type=int)
    parser.add_argument("--n-max", dest="n_max", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catphase",
        description="Phase distributions of entangled two-mode coherent states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="state diagnostics plus invariant spot-checks (JSON)")
    _add_common_options(p)
    _add_state_options(p)
    p.set_defaults(handler=_cmd_validate, native_format="json")

    p = sub.add_parser("coeffs", help="Fourier coefficients (CSV)")
    _add_common_options(p)
    _add_state_options(p)
    p.add_argument("--branch", choices=("plus", "minus"))
    p.add_argument("--mode", type=int, choices=(1, 2))
    p.set_defaults(handler=_cmd_coeffs, native_format="csv")

    p = sub.add_parser("phase-dist", help="phase-sum/difference density over a phi grid (CSV)")
    _add_common_options(p)
    _add_state_options(p)
    p.add_argument("--branch", choices=("plus", "minus"), default="minus")
    p.add_argument("--n-phi", dest="n_phi", type=int)
    p.set_defaults(handler=_cmd_phase_dist, native_format="csv")

    p = sub.add_parser("one-mode", help="one-mode phase density over a phi grid (CSV)")
    _add_common_options(p)
    _add_state_options(p)
    p.add_argument("--mode", type=int, choices=(1, 2), default=1)
    p.add_argument("--n-phi", dest="n_phi", type=int)
    p.set_defaults(handler=_cmd_one_mode, native_format="csv")

    p = sub.add_parser("figure", help="data behind one display panel (CSV)")
    _add_common_options(p)
    p.add_argument("--id", required=True, choices=sorted(_FIGURE_PANELS))
    p.add_argument("--n-phi", dest="n_phi", type=int)
    p.add_argument("--n-alpha", dest="n_alpha", type=int)
    p.set_defaults(handler=_cmd_figure, native_format="csv")

    p = sub.add_parser("moments", help="trigonometric and windowed phase moments (JSON)")
    _add_common_options(p)
    _add_state_options(p)
    p.add_argument("--branch", choices=("plus", "minus"), default="minus")
    p.add_argument("--n", type=int)
    p.add_argument("--phi0", type=float)
    p.set_defaults(handler=_cmd_moments, native_format="json")

    p = sub.add_parser("wigner-slice", help="W over a 2D slice of (gamma, delta) (CSV)")
    _add_common_options(p)
    _add_state_options(p)
    p.add_argument("--x-axis", dest="x_axis", choices=_SLICE_AXES)
    p.add_argument("--y-axis", dest="y_axis", choices=_SLICE_AXES)
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--y-min", dest="y_min", type=float)
    p.add_argument("--y-max", dest="y_max", type=float)
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--fix", action="append", metavar="NAME=VALUE")
    p.set_defaults(handler=_cmd_wigner_slice, native_format="csv")

    p = sub.add_parser("oracle-compare", help="analytic-vs-oracle deviation report (JSON)")
    _add_common_options(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-chi-points", dest="n_chi_points", type=int)
    p.add_argument("--n-radial", dest="n_radial", type=int)
    p.add_argument("--n-angular", dest="n_angular", type=int)
    p.add_argument("--radial-sigma", dest="radial_sigma", type=float)
    p.set_defaults(handler=_cmd_oracle_compare, native_format="json")

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _error_payload(status: int, exc: Exception) -> str:
    return _json_text(
        {"error": {"message": str(exc), "status": status, "type": type(exc).__name__}}
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        requested = _setting(args, config, "format", None)
        if requested is not None and requested != args.native_format:
            raise ConfigError(
                f"command {args.command!r} emits {args.native_format}, not {requested}"
            )
        text = args.handler(args, config)
    except (ConfigError, NullStateError) as exc:
        sys.stdout.write(_error_payload(2, exc))
        return 2
    except (DomainError, OverflowError) as exc:
        sys.stdout.write(_error_payload(3, exc))
        return 3
    except (NoConvergenceError, CutoffTooSmallError) as exc:
        sys.stdout.write(_error_payload(4, exc))
        return 4
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
