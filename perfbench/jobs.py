"""Seeded job streams, job bodies and output checks for the three workloads.

A job is a plain dict drawn from the workload seed; catphase only ever sees
the state and arguments built from it.  ``run_job`` returns a result that
``check_job`` inspects, and ``digest`` reduces a result to bytes so a traced
run can be compared with an untraced one bit for bit.

Mixes are drawn in shuffled blocks (for example 3 : 2 : 2 : 1 job kinds in
every block of 8 on ``validate``), so each run holds the stated proportions
whatever its length and seed; per-run throughput then varies with the
machine, not with the luck of the draw.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

from catphase import errors, oracle, phasedist, quasiprob, specfun, states

WORKLOADS = ("sweep", "validate", "cli")

PRESETS = ("even_cat", "odd_cat", "yurke_stoler_plus", "yurke_stoler_minus")
STATE_KINDS = PRESETS + ("random",)

# The sweep and cli boxes keep the s -> 1 corner on purpose.  There a series
# can need more than the default 512 terms (NoConvergenceError, CLI exit 4),
# a coefficient can pass the library's overflow threshold e^709, or its
# square the float range in trig_moments (OverflowError, CLI exit 3), and on
# the cli wigner-slice grid the interference exponent can pass 700
# (OverflowError).  Such a refusal is the documented answer for that input,
# so the job's output is correct only if the refusal is necessary: an
# independent reference built here (refusal_reason) must confirm that the
# series has not converged at N_MAX terms, or that the value really passes
# the limit.  Every other raised error, and every refusal the reference does
# not confirm, fails the job.
EDGE_ERRORS = (errors.NoConvergenceError, OverflowError)
CLI_ERROR_STATUS = {"OverflowError": 3, "NoConvergenceError": 4}
N_MAX = 512  # TruncationPolicy's default series cap
LOG_COEFF_MAX = 709.0  # phasedist's overflow threshold for a coefficient
LOG_FLOAT_MAX = math.log(sys.float_info.max)
W_EXP_MAX = 700.0  # quasiprob.w's limit on the interference exponent

TWO_PI = 2.0 * math.pi
SWEEP_GRID = TWO_PI * np.arange(360) / 360.0

# Sweep coefficients are checked against the Kummer route of specfun to
# COEFF_RTOL of the size of their largest term (the Bessel route agrees to
# about 5e-13 on sampled sweep jobs), at n = 1, 2, n_used / 2, n_used - 1
# and n_used.  The last two must also be below the library's default tail
# threshold.
COEFF_RTOL = 1e-10
EPS_TAIL = 1e-14

# Tolerances of the acceptance suite; never looser.
QUADRATURE_TOL = 1e-6
CHI_TOL = 1e-8
# The validate box stops where the acceptance suite does (|alpha|, |beta| up
# to sqrt(3), s up to 0.4).  Past it the default 40 x 64 quadrature oracle
# misses 1e-6: at |alpha| = 1.71, |beta| = 1.64, s = 0.499 it is off by
# 1.5e-6 while the series agrees with an 80 x 128 quadrature to 1.5e-11.
VALIDATE_AMP_MAX = math.sqrt(3.0)
VALIDATE_S_MAX = 0.4

CLI_COMMANDS = (
    "validate",
    "coeffs-branch",
    "coeffs-mode",
    "phase-dist",
    "one-mode",
    "moments",
    "wigner-slice",
    "figure",
)
FIGURE_PANELS = ("1a", "1b", "1c", "1d", "2a", "2b", "2c", "2d")
SLICE_AXES = ("gamma_re", "gamma_im", "delta_re", "delta_im")

SRC = Path(__file__).resolve().parent.parent / "src"


# --------------------------------------------------------------- job streams


def _blocks(rng: random.Random, pattern):
    """Endless stream of shuffled copies of ``pattern``."""
    while True:
        block = list(pattern)
        rng.shuffle(block)
        yield from block


def _state(rng: random.Random, kind: str, lo: float, hi: float, log_uniform: bool) -> dict:
    def amp() -> float:
        if log_uniform:
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))
        return rng.uniform(lo, hi)

    state = {
        "kind": kind,
        "alpha": (amp(), rng.uniform(0.0, TWO_PI)),
        "beta": (amp(), rng.uniform(0.0, TWO_PI)),
    }
    if kind == "random":
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(x * x for x in v))
        state["mu"] = (v[0] / norm, v[1] / norm)
        state["nu"] = (v[2] / norm, v[3] / norm)
    return state


def _sweep_s(rng: random.Random, s_class: str) -> float:
    if s_class == "husimi":
        return -1.0
    if s_class == "high":
        return rng.uniform(0.5, 0.99)
    return rng.uniform(-1.0, 0.5)


def _sweep_stream(rng: random.Random):
    # Per block of 10: two of each state kind; s is 70% in [-1, 0.5] (one of
    # those pinned to the Husimi ordering s = -1 so the positivity check
    # runs) and 30% in [0.5, 0.99), where series run to hundreds of terms.
    kinds = _blocks(rng, STATE_KINDS * 2)
    s_classes = _blocks(rng, ("husimi",) + ("low",) * 6 + ("high",) * 3)
    while True:
        state = _state(rng, next(kinds), 0.2, 3.0, log_uniform=True)
        yield {"workload": "sweep", "state": state, "s": _sweep_s(rng, next(s_classes))}


def _validate_stream(rng: random.Random):
    # One-mode jobs check both modes: the same W-evaluation count as a pair
    # job, so the median latency does not sit on the step between two job
    # kinds of different cost (chi and one-mode jobs make 4 of every 8).
    kinds = _blocks(rng, ("phase",) * 3 + ("one_mode",) * 2 + ("chi",) * 2 + ("norm",))
    while True:
        kind = next(kinds)
        job = {
            "workload": "validate",
            "kind": kind,
            "state": _state(rng, rng.choice(STATE_KINDS), 0.4, VALIDATE_AMP_MAX, log_uniform=False),
            "s": rng.uniform(-1.0, VALIDATE_S_MAX),
        }
        if kind == "phase":
            job["branch"] = rng.choice(("plus", "minus"))
        if kind in ("phase", "one_mode"):
            job["offsets"] = [rng.uniform(-math.pi, math.pi) for _ in range(8)]
        elif kind == "chi":
            points = []
            for _ in range(10):
                # |xi|, |eta| <= 2, uniform over the disk, as in the acceptance suite.
                r1, r2 = (2.0 * math.sqrt(rng.random()) for _ in range(2))
                t1, t2 = (rng.uniform(0.0, TWO_PI) for _ in range(2))
                points.append((r1, t1, r2, t2))
            job["points"] = points
        yield job


def _cli_stream(rng: random.Random):
    commands = _blocks(rng, CLI_COMMANDS)
    panels = _blocks(rng, FIGURE_PANELS)
    while True:
        command = next(commands)
        s_class = "high" if rng.random() < 0.3 else "low"
        yield {
            "workload": "cli",
            "command": command,
            "state": _state(rng, rng.choice(STATE_KINDS), 0.2, 3.0, log_uniform=True),
            "s": _sweep_s(rng, s_class),
            "branch": rng.choice(("plus", "minus")),
            "mode": rng.choice((1, 2)),
            "n": rng.choice((1, 2, 3)),
            "axes": rng.sample(SLICE_AXES, 2),
            "panel": next(panels) if command == "figure" else None,
        }


def job_stream(workload: str, seed: int):
    """Endless, deterministic job stream of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return {"sweep": _sweep_stream, "validate": _validate_stream, "cli": _cli_stream}[
        workload
    ](rng)


def warmup_job(workload: str) -> dict:
    """A fixed, cheap job run once before timing starts (part of setup)."""
    state = {"kind": "even_cat", "alpha": (1.0, 0.0), "beta": (1.0, 0.0)}
    if workload == "sweep":
        return {"workload": "sweep", "state": state, "s": 0.0}
    if workload == "validate":
        return {
            "workload": "validate",
            "kind": "phase",
            "state": state,
            "s": 0.0,
            "branch": "minus",
            "offsets": [0.5 * k - 1.75 for k in range(8)],
        }
    return {
        "workload": "cli",
        "command": "validate",
        "state": state,
        "s": 0.0,
        "branch": "minus",
        "mode": 1,
        "n": 1,
        "axes": ["gamma_re", "gamma_im"],
        "panel": "1a",
    }


# ------------------------------------------------------------------- states


def descriptor(state: dict) -> dict:
    """The JSON state descriptor the CLI builds from the same flags."""
    out = {
        "alpha": {"abs": state["alpha"][0], "arg": state["alpha"][1]},
        "beta": {"abs": state["beta"][0], "arg": state["beta"][1]},
    }
    if state["kind"] == "random":
        out["mu"] = {"re": state["mu"][0], "im": state["mu"][1]}
        out["nu"] = {"re": state["nu"][0], "im": state["nu"][1]}
    else:
        out["preset"] = state["kind"]
    return out


def make_state(state: dict) -> states.QuasiBellState:
    return states.state_from_descriptor(descriptor(state))


# ------------------------------------------------------------ sweep and validate


def _run_sweep(job: dict) -> dict:
    """The job's spectra, densities and moments, or only its first refusal."""
    state = make_state(job["state"])
    s = job["s"]
    result = {"s": s, "spectra": [], "moments": [], "refused": None}
    try:
        for branch in ("plus", "minus"):
            stage = ("spectrum", branch)
            sp = phasedist.build_spectrum(state, s, branch)
            density = phasedist.eval_phase_dist(sp, sp.phi_prime + SWEEP_GRID)
            result["spectra"].append((sp.coeffs, np.zeros(0), density))
            for n in (1, 2, 3):
                stage = ("trig_moments", branch, n)
                result["moments"].extend(phasedist.trig_moments(sp, n))
            stage = ("phase_mean_var", branch)
            result["moments"].extend(phasedist.phase_mean_var(sp, sp.phi_prime))
        for mode in (1, 2):
            stage = ("spectrum", mode)
            om = phasedist.one_mode_coefficients(state, s, mode)
            density = phasedist.eval_one_mode_dist(om, om.phi_ref + SWEEP_GRID)
            result["spectra"].append((om.cos_coeffs, om.sin_coeffs, density))
    except EDGE_ERRORS as exc:
        # A refused job returns nothing else, as if the job had raised.
        return {"s": s, "spectra": [], "moments": [], "refused": (type(exc).__name__, *stage)}
    return result


SWEEP_SPECTRA = ("plus", "minus", 1, 2)  # order of result["spectra"]


def _term(weight: float, *parts: specfun.LogScaledValue, shift: float = 0.0) -> tuple:
    """weight * prod(parts) * e^shift as (sign, log magnitude)."""
    if weight == 0.0 or any(part.sign == 0 for part in parts):
        return 0, -math.inf
    sign = math.copysign(1.0, weight) * math.prod(part.sign for part in parts)
    return sign, math.log(abs(weight)) + shift + sum(part.log_mag for part in parts)


def _reference_terms(state, s: float, spectrum, n: int) -> tuple:
    """Terms of c_n and d_n of one sweep spectrum, through the Kummer route.

    Written from the formulas in catphase.phasedist's docstrings, with
    specfun.i_n_combo_kummer in place of the Bessel route the library uses.
    Returns (cos terms, sin terms, log of their common factor).
    """
    asq = abs(state.alpha) ** 2 + abs(state.beta) ** 2
    cross = state.mu * state.nu.conjugate()
    log_norm_sq = -math.log1p(2.0 * cross.real * math.exp(-2.0 * asq))

    def combo(amp: complex, branch: str) -> specfun.LogScaledValue:
        return specfun.i_n_combo_kummer(n, abs(amp) ** 2 / (1.0 - s), branch)

    if spectrum in ("plus", "minus"):
        sign = 1.0 if spectrum == "plus" else (-1.0) ** n
        cos_terms = [
            _term(1.0, combo(state.alpha, "plus"), combo(state.beta, "plus")),
            _term(
                sign * 2.0 * cross.real,
                combo(state.alpha, "minus"),
                combo(state.beta, "minus"),
                shift=-2.0 * asq,
            ),
        ]
        return cos_terms, [], log_norm_sq + math.log(0.5 * math.pi)
    amp = state.alpha if spectrum == 1 else state.beta
    plus, minus = combo(amp, "plus"), combo(amp, "minus")
    if n % 2 == 0:
        cos_terms = [_term(1.0, plus), _term(2.0 * cross.real, minus, shift=-2.0 * asq)]
        sin_terms = []
    else:
        cos_terms = [_term(abs(state.mu) ** 2 - abs(state.nu) ** 2, plus)]
        sin_terms = [_term(2.0 * cross.imag, minus, shift=-2.0 * asq)]
    return cos_terms, sin_terms, log_norm_sq + 0.5 * math.log(0.5 * math.pi)


def _fused(terms: list, log_scale: float) -> tuple:
    """(value / e^mag, mag): e^log_scale * sum of the terms, and mag the log
    of the sum of their magnitudes (-inf if there are none)."""
    live = [(sign, log) for sign, log in terms if sign != 0]
    if not live:
        return 0.0, -math.inf
    peak = max(log for _, log in live)
    mag = log_scale + peak + math.log(math.fsum(math.exp(log - peak) for _, log in live))
    return math.fsum(sign * math.exp(log_scale + log - mag) for sign, log in live), mag


def _check_coefficients(state, s: float, spectrum, cos_c, sin_c) -> str | None:
    n_used = len(cos_c)
    for n in sorted({1, 2, n_used // 2, n_used - 1, n_used}):
        cos_terms, sin_terms, log_scale = _reference_terms(state, s, spectrum, n)
        got = [(f"c_{n}", cos_c[n - 1], cos_terms)]
        if len(sin_c):
            got.append((f"d_{n}", sin_c[n - 1], sin_terms))
        for name, value, terms in got:
            ref, mag = _fused(terms, log_scale)
            if mag == -math.inf:
                if value != 0.0:
                    return f"{spectrum} {name} = {value!r}, exactly 0 by the formula"
                continue
            if not abs(float(value) * math.exp(-mag) - ref) <= COEFF_RTOL:
                return f"{spectrum} {name} = {value!r}, Kummer route {ref * math.exp(mag)!r}"
            if n < n_used - 1:
                continue
            size = math.exp(mag)
            if abs(ref) * size >= EPS_TAIL + COEFF_RTOL * size:
                return f"{spectrum} series cut at n = {n_used} but {name} is {ref * size:.3e}"
    return None


def _log_abs(terms: list, log_scale: float) -> float:
    """log |e^log_scale * sum of the terms| (-inf if it is 0)."""
    ref, mag = _fused(terms, log_scale)
    return math.log(abs(ref)) + mag if ref != 0.0 else -math.inf


def refusal_reason(state, s: float, refused: tuple) -> str | None:
    """None if the reference confirms a refusal, else why it does not.

    ``refused`` is (error type, stage, *where): stage ``spectrum`` with a
    branch or mode, ``trig_moments`` with a branch and order, or ``w``.
    """
    error, stage, *where = refused
    if stage == "spectrum" and error == "NoConvergenceError":
        # The two-term tail test must still fail at n = N_MAX.
        log_tail = -math.inf
        for n in (N_MAX - 1, N_MAX):
            cos_terms, sin_terms, log_scale = _reference_terms(state, s, where[0], n)
            for terms in (cos_terms, sin_terms):
                ref, mag = _fused(terms, log_scale)
                if mag > -math.inf:
                    log_tail = max(log_tail, math.log(abs(ref) + COEFF_RTOL) + mag)
        if log_tail >= math.log(EPS_TAIL):
            return None
        return f"{where[0]} refused at {N_MAX} terms, but its tail there is {math.exp(log_tail):.3e}"
    if stage == "spectrum" and error == "OverflowError":
        # Some coefficient up to N_MAX must reach the threshold.  The minus
        # combinations grow with n up to about sqrt(x), so any n can be first.
        log_peak = -math.inf
        for n in range(1, N_MAX + 1):
            cos_terms, sin_terms, log_scale = _reference_terms(state, s, where[0], n)
            for terms in (cos_terms, sin_terms):
                log_peak = max(log_peak, _log_abs(terms, log_scale))
            if log_peak >= LOG_COEFF_MAX - 1e-9:
                return None
        return f"{where[0]} overflowed, but its largest coefficient is e^{log_peak:.6g}"
    if stage == "trig_moments" and error == "OverflowError":
        branch, n = where
        cos_terms, _, log_scale = _reference_terms(state, s, branch, n)
        log_sq = 2.0 * _log_abs(cos_terms, log_scale)
        if log_sq >= LOG_FLOAT_MAX - 1e-9:
            return None
        return f"trig_moments({branch}, {n}) overflowed, but c_{n}^2 is e^{log_sq:.6g}"
    if stage == "w" and error == "OverflowError":
        asq = abs(state.alpha) ** 2 + abs(state.beta) ** 2
        exponent = 2.0 * (s * asq - where[0]) / (1.0 - s)
        if exponent > W_EXP_MAX:
            return None
        return f"w overflowed, but its interference exponent is {exponent:.6g}"
    return f"{error} from {stage} {where} is not a documented refusal"


def _check_sweep(job: dict, result: dict) -> str | None:
    state = make_state(job["state"])
    for spectrum, (cos_c, sin_c, density) in zip(SWEEP_SPECTRA, result["spectra"]):
        if not (np.all(np.isfinite(density)) and np.all(np.isfinite(cos_c))):
            return "non-finite density or coefficient"
        why = _check_coefficients(state, result["s"], spectrum, cos_c, sin_c)
        if why is not None:
            return why
        # On the 360-point periodic grid every cos(n delta) with 360 | n sums
        # to 360 and every other harmonic to 0, so the grid integral is exact.
        aliased = float(np.sum(cos_c[359::360]))
        integral = float(np.sum(density)) * TWO_PI / 360.0
        scale = 1.0 + 2.0 * float(np.sum(np.abs(cos_c))) + 2.0 * float(np.sum(np.abs(sin_c)))
        if not abs(integral - (1.0 + 2.0 * aliased)) <= 1e-12 * scale:
            return f"grid integral {integral!r} off by more than 1e-12 x {scale:.3g}"
        if result["s"] == -1.0:
            if float(np.min(density)) < -1e-12:
                return f"Husimi density negative: {float(np.min(density))!r}"
            peak = max(float(np.max(np.abs(cos_c))), float(np.max(np.abs(sin_c), initial=0.0)))
            if peak > 1.0:
                return f"Husimi coefficient magnitude {peak!r} > 1"
    if not all(math.isfinite(v) for v in result["moments"]):
        return "non-finite moment"
    if result["refused"] is not None:
        return refusal_reason(state, result["s"], result["refused"])
    return None


def _run_validate(job: dict) -> dict:
    state = make_state(job["state"])
    s, kind = job["s"], job["kind"]
    if kind == "phase":
        sp = phasedist.build_spectrum(state, s, job["branch"])
        phis = sp.phi_prime + np.asarray(job["offsets"])
        series = phasedist.eval_phase_dist(sp, phis)
        oracle_value = oracle.quadrature_phase_dist(state, s, job["branch"], phis)
    elif kind == "one_mode":
        series, oracle_value = [], []
        for mode in (1, 2):
            om = phasedist.one_mode_coefficients(state, s, mode)
            phis = om.phi_ref + np.asarray(job["offsets"])
            series.append(phasedist.eval_one_mode_dist(om, phis))
            oracle_value.append(oracle.quadrature_one_mode(state, s, mode, phis))
    elif kind == "chi":
        series, oracle_value = [], []
        for r1, t1, r2, t2 in job["points"]:
            xi, eta = cmath.rect(r1, t1), cmath.rect(r2, t2)
            series.append(quasiprob.chi(state, xi, eta, s))
            oracle_value.append(oracle.fock_chi_oracle(state, xi, eta, s, n_cut=40).value)
    else:
        series = [1.0]
        oracle_value = [oracle.quadrature_normalization(state, s)]
    return {"kind": kind, "series": np.asarray(series), "oracle": np.asarray(oracle_value)}


def _check_validate(result: dict) -> str | None:
    tol = CHI_TOL if result["kind"] == "chi" else QUADRATURE_TOL
    dev = float(np.max(np.abs(result["series"] - result["oracle"])))
    if not dev <= tol:
        return f"{result['kind']}: max deviation {dev:.3e} above {tol:g}"
    return None


# ----------------------------------------------------------------------- cli


def _num(x: float) -> str:
    return repr(float(x))


def cli_argv(job: dict) -> list[str]:
    """Command-line arguments of a cli job (after ``python -m catphase.cli``)."""
    command = job["command"]
    if command == "figure":
        return ["figure", "--id", job["panel"]]
    state = job["state"]
    argv = [{"coeffs-branch": "coeffs", "coeffs-mode": "coeffs"}.get(command, command)]
    if state["kind"] == "random":
        argv += ["--mu", *map(_num, state["mu"]), "--nu", *map(_num, state["nu"])]
    else:
        argv += ["--preset", state["kind"]]
    argv += ["--alpha", *map(_num, state["alpha"]), "--beta", *map(_num, state["beta"])]
    argv += ["--s", _num(job["s"])]
    if command in ("coeffs-branch", "phase-dist", "moments"):
        argv += ["--branch", job["branch"]]
    if command in ("coeffs-mode", "one-mode"):
        argv += ["--mode", str(job["mode"])]
    if command == "moments":
        argv += ["--n", str(job["n"])]
    if command == "wigner-slice":
        argv += ["--x-axis", job["axes"][0], "--y-axis", job["axes"][1]]
    return argv


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(argv: list[str], env: dict, traced_spans: Path | None = None) -> tuple:
    """One CLI call in a fresh interpreter; returns (exit code, stdout bytes)."""
    if traced_spans is None:
        cmd = [sys.executable, "-m", "catphase.cli", *argv]
    else:
        tracer = Path(__file__).resolve().parent / "tracedcli.py"
        cmd = [sys.executable, str(tracer), str(traced_spans), *argv]
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120, check=False)
    return proc.returncode, proc.stdout


def _parse_csv(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    columns = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {
        name: np.array([float(r[i]) if r[i] else math.nan for r in rows])
        for i, name in enumerate(columns)
    }


def _phi_grid() -> np.ndarray:
    return np.linspace(-math.pi, math.pi, 361)


def _figure_reference(panel: str) -> dict:
    # Panel layout of the paper's figures: 1 = difference, 2 = sum; a, b =
    # even cat, c, d = odd cat; a, c = surface over |alpha|^2, b, d = curves.
    branch = "minus" if panel[0] == "1" else "plus"
    preset = "even_cat" if panel[1] in "ab" else "odd_cat"
    weights = states.PRESET_WEIGHTS[preset]
    offsets = _phi_grid()
    if panel[1] in "bd":
        state = states.QuasiBellState(1.0, 1.0, *weights)
        out = {}
        for s, col in ((-1.0, "density_s_m1"), (0.0, "density_s_0"), (0.4, "density_s_0p4")):
            sp = phasedist.build_spectrum(state, s, branch)
            out[col] = phasedist.eval_phase_dist(sp, sp.phi_prime + offsets)
        return out
    densities = []
    for alpha_sq in np.linspace(0.0, 3.0, 61):
        amp = math.sqrt(max(alpha_sq, 1e-8))
        sp = phasedist.build_spectrum(states.QuasiBellState(amp, amp, *weights), 0.0, branch)
        densities.append(phasedist.eval_phase_dist(sp, sp.phi_prime + offsets))
    return {"density": np.concatenate(densities)}


def cli_reference(job: dict) -> tuple:
    """The job's computation done in-process: (expected exit code, values).

    Values maps output columns (CSV) or keys (JSON) to expected numbers.  A
    refusal maps to its exit code and ``{"type": <error name>, "unconfirmed":
    <refusal_reason>}``.
    """
    command = job["command"]
    if command == "figure":
        return 0, _figure_reference(job["panel"])
    state = make_state(job["state"])
    s = job["s"]
    stage = (command,)
    try:
        if command == "validate":
            return 0, {
                "chi_origin_residual": abs(quasiprob.chi(state, 0.0, 0.0, s) - 1.0),
                "normalization_constant": states.normalization_constant(state),
            }
        if command in ("coeffs-branch", "phase-dist", "moments"):
            stage = ("spectrum", job["branch"])
            sp = phasedist.build_spectrum(state, s, job["branch"])
            if command == "coeffs-branch":
                return 0, {"c_n": sp.coeffs}
            if command == "phase-dist":
                return 0, {"density": phasedist.eval_phase_dist(sp, sp.phi_prime + _phi_grid())}
            stage = ("trig_moments", job["branch"], job["n"])
            m = phasedist.trig_moments(sp, job["n"])
            stage = ("phase_mean_var", job["branch"])
            stats = phasedist.phase_mean_var(sp, sp.phi_prime)
            return 0, {
                "c_n": m.mean_cos,
                "var_cos": m.var_cos,
                "var_sin": m.var_sin,
                "phase_mean": stats.mean,
                "phase_variance": stats.variance,
            }
        if command in ("coeffs-mode", "one-mode"):
            stage = ("spectrum", job["mode"])
            om = phasedist.one_mode_coefficients(state, s, job["mode"])
            if command == "one-mode":
                return 0, {"density": phasedist.eval_one_mode_dist(om, om.phi_ref + _phi_grid())}
            c_even = np.full((om.n_used + 1) // 2, math.nan)
            c_even[: om.n_used // 2] = om.cos_coeffs[1::2]
            return 0, {"c_even": c_even, "c_odd": om.cos_coeffs[0::2], "d_odd": om.sin_coeffs[0::2]}
        # wigner-slice over the default 61 x 61 grid on [-3, 3]^2.
        xs = np.linspace(-3.0, 3.0, 61)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        coords = {name: np.zeros_like(gx) for name in SLICE_AXES}
        coords[job["axes"][0]], coords[job["axes"][1]] = gx, gy
        gamma = coords["gamma_re"] + 1j * coords["gamma_im"]
        delta = coords["delta_re"] + 1j * coords["delta_im"]
        stage = ("w", float(np.min(np.abs(gamma) ** 2 + np.abs(delta) ** 2)))
        return 0, {"w": quasiprob.w(state, gamma, delta, s).ravel()}
    except EDGE_ERRORS as exc:
        name = type(exc).__name__
        why = refusal_reason(state, s, (name, *stage))
        return CLI_ERROR_STATUS[name], {"type": name, "unconfirmed": why}


def check_cli(job: dict, outcome: tuple, reference: tuple) -> str | None:
    """Compare a CLI call's exit code and parsed output with ``reference``."""
    code, stdout = outcome
    want_code, want = reference
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    text = stdout.decode("utf-8")
    if code != 0:
        got = json.loads(text)["error"]["type"]
        if got != want["type"]:
            return f"error type {got}, expected {want['type']}"
        return want["unconfirmed"]
    parsed = json.loads(text) if text.startswith("{") else _parse_csv(text)
    if job["command"] == "validate":
        parsed = parsed["checks"]
    for key, expected in want.items():
        got = np.asarray(parsed.get(key, math.nan), dtype=float)
        expected = np.asarray(expected, dtype=float)
        if got.shape != expected.shape or not np.allclose(
            got, expected, rtol=1e-12, atol=1e-15, equal_nan=True
        ):
            return f"{key}: CLI output differs from the in-process computation"
    return None


# ------------------------------------------------------------------ dispatch


def run_job(job: dict):
    if job["workload"] == "sweep":
        return _run_sweep(job)
    return _run_validate(job)


def check_job(job: dict, result) -> str | None:
    """None if the result is right, else the reason it is wrong."""
    if job["workload"] == "sweep":
        return _check_sweep(job, result)
    return _check_validate(result)


def refused_status(job: dict, result) -> str | None:
    """``refused:<type>[:<stage>]`` for a checked output that is a refusal."""
    if job["workload"] == "cli":
        if result[0] == 0:
            return None
        return "refused:" + json.loads(result[1])["error"]["type"]
    refused = result.get("refused") if job["workload"] == "sweep" else None
    return None if refused is None else f"refused:{refused[0]}:{refused[1]}"


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(key.encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (bytes, str)):
        h.update(obj.encode() if isinstance(obj, str) else obj)
    elif obj is None:
        h.update(b"None")
    elif isinstance(obj, complex):
        h.update(struct.pack("<2d", obj.real, obj.imag))
    else:
        h.update(struct.pack("<d", float(obj)))


def digest(result) -> str:
    """Hash of a job result, equal only for bit-identical results."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, result)
    return h.hexdigest()
