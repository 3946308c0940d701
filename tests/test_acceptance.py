"""Acceptance suite: one test per release criterion, at desk scale.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Stated tolerances are pinned here and must not be loosened.
"""

import math

import numpy as np
import pytest

from catphase import (
    PRESET_WEIGHTS,
    QuasiBellState,
    build_spectrum,
    chi,
    eval_one_mode_dist,
    eval_phase_dist,
    fock_chi_oracle,
    i_n_combo,
    i_n_combo_kummer,
    make_preset,
    one_mode_coefficients,
    phase_mean_var,
    quadrature_normalization,
    quadrature_one_mode,
    quadrature_phase_dist,
    trig_moments,
)
from catphase.cli import main as cli_main

TWO_PI = 2.0 * math.pi
PRESETS = tuple(sorted(PRESET_WEIGHTS))
S_VALUES = (-1.0, 0.0, 0.4)
AMPLITUDES = (0.5, 1.0, math.sqrt(3.0))
PHI_GRID_361 = np.linspace(-math.pi, math.pi, 361)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _state(preset: str, amp: float) -> QuasiBellState:
    return QuasiBellState(amp, amp, *PRESET_WEIGHTS[preset])


def test_criterion_1_dual_formula_special_functions():
    # Bessel route vs Kummer route, relative 1e-10 in log space.  (< 1 s)
    worst = 0.0
    for n in range(1, 41):
        for x in (1e-6, 0.1, 1.0, 10.0, 100.0):
            for branch in ("plus", "minus"):
                a = i_n_combo(n, x, branch)
                b = i_n_combo_kummer(n, x, branch)
                assert a.sign == b.sign == 1
                worst = max(worst, abs(a.log_mag - b.log_mag))
    _report(1, worst < 1e-10, f"max log-space relative deviation {worst:.3e} (tol 1e-10)")


def test_criterion_2_characteristic_function_oracle():
    # Closed form vs truncated-Fock trace at 50 random displacements with
    # |xi|, |eta| <= 2, four presets, s in {-1, 0, 0.5}, n_cut = 40.  (< 10 s)
    rng = np.random.default_rng(20240817)
    points = []
    for _ in range(50):
        r1, r2 = 2.0 * np.sqrt(rng.uniform(size=2))
        t1, t2 = rng.uniform(0.0, TWO_PI, 2)
        points.append((r1 * np.exp(1j * t1), r2 * np.exp(1j * t2)))
    worst = 0.0
    for preset in PRESETS:
        state = _state(preset, 1.0)
        for s in (-1.0, 0.0, 0.5):
            for xi, eta in points:
                closed = chi(state, xi, eta, s)
                traced = fock_chi_oracle(state, xi, eta, s, n_cut=40).value
                worst = max(worst, abs(closed - traced))
    _report(2, worst < 1e-8, f"max |closed - Fock trace| {worst:.3e} (tol 1e-8)")


def test_criterion_3_normalization():
    # Quadrature of the symmetrized distribution equals 1 +- 1e-6 over the
    # full preset x ordering x amplitude matrix.  (< 60 s)
    worst = 0.0
    for preset in PRESETS:
        for s in S_VALUES:
            for amp in AMPLITUDES:
                value = quadrature_normalization(_state(preset, amp), s)
                worst = max(worst, abs(value - 1.0))
    _report(3, worst < 1e-6, f"max |norm - 1| {worst:.3e} over 36 cases (tol 1e-6)")


def test_criterion_4_series_vs_quadrature_marginals():
    # Analytic Fourier series vs direct quadrature at 16 phase points, both
    # branches and both one-mode marginals, full parameter matrix.  (< 120 s)
    offsets = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    worst_pair = 0.0
    worst_mode = 0.0
    for preset in PRESETS:
        for s in S_VALUES:
            for amp in AMPLITUDES:
                state = _state(preset, amp)
                for branch in ("plus", "minus"):
                    spectrum = build_spectrum(state, s, branch)
                    phis = spectrum.phi_prime + offsets
                    dev = np.max(
                        np.abs(
                            eval_phase_dist(spectrum, phis)
                            - quadrature_phase_dist(state, s, branch, phis)
                        )
                    )
                    worst_pair = max(worst_pair, float(dev))
                for mode in (1, 2):
                    spectrum = one_mode_coefficients(state, s, mode)
                    phis = spectrum.phi_ref + offsets
                    dev = np.max(
                        np.abs(
                            eval_one_mode_dist(spectrum, phis)
                            - quadrature_one_mode(state, s, mode, phis)
                        )
                    )
                    worst_mode = max(worst_mode, float(dev))
    ok = worst_pair < 1e-6 and worst_mode < 1e-6
    _report(
        4,
        ok,
        f"max abs deviation: phase-sum/diff {worst_pair:.3e}, one-mode {worst_mode:.3e} "
        "(tol 1e-6)",
    )


def test_criterion_5_positivity_vs_ordering():
    # Genuine distribution at s = -1 for every preset; negativity for the
    # odd cat at s = 0.4.  (< 5 s)
    worst_min = 0.0
    for preset in PRESETS:
        spectrum = build_spectrum(_state(preset, 1.0), -1.0, "minus")
        values = eval_phase_dist(spectrum, spectrum.phi_prime + PHI_GRID_361)
        worst_min = min(worst_min, float(np.min(values)))
    spectrum = build_spectrum(_state("odd_cat", 1.0), 0.4, "minus")
    odd_min = float(np.min(eval_phase_dist(spectrum, spectrum.phi_prime + PHI_GRID_361)))
    ok = worst_min >= -1e-12 and odd_min < 0.0
    _report(
        5,
        ok,
        f"min at s=-1 {worst_min:.3e} (>= -1e-12); odd cat min at s=0.4 {odd_min:.3e} (< 0)",
    )


def test_criterion_6_symmetry_and_information_loss():
    # Reflection symmetry about phi'; dependence on Re(mu nu*) only;
    # mode-1 independence of phi_beta.  All to 1e-13.  (< 5 s)
    sym_dev = 0.0
    for preset in PRESETS:
        for branch in ("plus", "minus"):
            spectrum = build_spectrum(_state(preset, 1.0), 0.0, branch)
            deltas = np.linspace(0.0, math.pi, 181)
            left = eval_phase_dist(spectrum, spectrum.phi_prime - deltas)
            right = eval_phase_dist(spectrum, spectrum.phi_prime + deltas)
            sym_dev = max(sym_dev, float(np.max(np.abs(left - right))))

    # Same Re(mu nu*) = 0.3 with different |mu|^2 - |nu|^2 and Im(mu nu*).
    shared = [
        QuasiBellState(1.0, 1.0, math.sqrt(0.9), math.sqrt(0.1)),
        QuasiBellState(1.0, 1.0, math.sqrt(0.1), math.sqrt(0.9)),
        QuasiBellState(
            1.0, 1.0, math.sqrt(0.5), math.sqrt(0.5) * np.exp(-1j * math.acos(0.6))
        ),
    ]
    reference = build_spectrum(shared[0], 0.0, "minus").coeffs
    info_dev = 0.0
    for state in shared[1:]:
        coeffs = build_spectrum(state, 0.0, "minus").coeffs
        assert len(coeffs) == len(reference)
        info_dev = max(info_dev, float(np.max(np.abs(np.subtract(coeffs, reference)))))

    base = one_mode_coefficients(
        QuasiBellState(1.0, 1.0, *PRESET_WEIGHTS["yurke_stoler_plus"]), 0.0, 1
    )
    rotated = one_mode_coefficients(
        QuasiBellState(1.0, np.exp(2.2j), *PRESET_WEIGHTS["yurke_stoler_plus"]), 0.0, 1
    )
    mode_dev = float(
        max(
            np.max(np.abs(np.subtract(base.cos_coeffs, rotated.cos_coeffs))),
            np.max(np.abs(np.subtract(base.sin_coeffs, rotated.sin_coeffs))),
        )
    )
    ok = sym_dev < 1e-13 and info_dev < 1e-13 and mode_dev < 1e-13
    _report(
        6,
        ok,
        f"symmetry {sym_dev:.3e}, weight-parameter invariance {info_dev:.3e}, "
        f"phi_beta independence {mode_dev:.3e} (tol 1e-13)",
    )


def test_criterion_7_uniform_limits():
    # Finite-norm states flatten as |alpha| -> 0; the odd cat does not.  The
    # odd-cat limit value is cross-checked against the quadrature oracle.
    # (< 5 s)
    state = make_preset("even_cat", 1e-4, 1e-4)
    even_dev = 0.0
    for s in S_VALUES:
        for branch in ("plus", "minus"):
            spectrum = build_spectrum(state, s, branch)
            values = eval_phase_dist(spectrum, spectrum.phi_prime + PHI_GRID_361)
            even_dev = max(even_dev, float(np.max(np.abs(values - 1.0 / TWO_PI))))

    odd = make_preset("odd_cat", 1e-3, 1e-3)
    spectrum = build_spectrum(odd, 0.0, "minus")
    values = eval_phase_dist(spectrum, spectrum.phi_prime + PHI_GRID_361)
    odd_dev = float(np.max(np.abs(values - 1.0 / TWO_PI)))
    check = spectrum.phi_prime + np.array([0.0, 1.2, 2.9])
    oracle_dev = float(
        np.max(
            np.abs(
                eval_phase_dist(spectrum, check)
                - quadrature_phase_dist(odd, 0.0, "minus", check)
            )
        )
    )
    ok = even_dev < 1e-6 and odd_dev > 0.05 and oracle_dev < 1e-6
    _report(
        7,
        ok,
        f"even cat flatness {even_dev:.3e} (< 1e-6); odd cat structure {odd_dev:.3f} "
        f"(> 0.05), oracle cross-check {oracle_dev:.3e} (< 1e-6)",
    )


def test_criterion_8_moments():
    # Trigonometric moments and windowed phase statistics.  (< 30 s)
    details = []

    zero_sin = True
    for preset in PRESETS:
        spectrum = build_spectrum(_state(preset, 1.0), 0.0, "minus")
        zero_sin &= all(trig_moments(spectrum, n).mean_sin == 0.0 for n in (1, 2, 3))
    details.append(f"mean_sin == 0: {zero_sin}")

    uniform = build_spectrum(
        QuasiBellState(0.0, 1.0, *PRESET_WEIGHTS["even_cat"]), 0.0, "minus"
    )
    moments = trig_moments(uniform, 1)
    stats = phase_mean_var(uniform, 0.7)
    uniform_ok = (
        moments.var_cos == pytest.approx(0.5, abs=1e-15)
        and moments.var_sin == pytest.approx(0.5, abs=1e-15)
        and stats.variance == pytest.approx(math.pi**2 / 3.0, rel=1e-15, abs=0.0)
    )
    details.append(f"uniform variances 1/2 and pi^2/3: {uniform_ok}")

    centered_ok = True
    for preset in PRESETS:
        spectrum = build_spectrum(_state(preset, 1.0), -1.0, "minus")
        centered_ok &= phase_mean_var(spectrum, spectrum.phi_prime).mean == spectrum.phi_prime
    details.append(f"<phi> == phi0 at phi0 == phi': {centered_ok}")

    state = _state("even_cat", 1.0)
    spectrum = build_spectrum(state, 0.0, "minus")
    grid = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    density = quadrature_phase_dist(state, 0.0, "minus", spectrum.phi_prime + grid)
    moment_dev = 0.0
    for n in (1, 2, 3):
        quadrature_moment = float(np.mean(density * np.cos(n * grid))) * TWO_PI
        moment_dev = max(moment_dev, abs(trig_moments(spectrum, n).mean_cos - quadrature_moment))
    details.append(f"c_n vs <cos n(phi-phi')> dev {moment_dev:.3e}")

    ok = zero_sin and uniform_ok and centered_ok and moment_dev < 1e-6
    _report(8, ok, "; ".join(details))


def _run_figure(tmp_path, panel: str):
    out = tmp_path / f"panel_{panel}.csv"
    code = cli_main(["figure", "--id", panel, "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip("\n").split("\n")
    k = 0
    while lines[k].startswith("#"):
        k += 1
    columns = lines[k].split(",")
    data = np.array([[float(cell) for cell in line.split(",")] for line in lines[k + 1 :]])
    return columns, data


def _sign_changes(values: np.ndarray) -> int:
    signs = np.sign(values[np.abs(values) > 1e-300])
    return int(np.sum(signs[1:] != signs[:-1]))


def test_criterion_9_figure_reproduction(tmp_path):
    # All eight panels emit; curve panels carry the documented shape:
    # growing oscillations from s = -1 to s = 0.4, a central peak
    # everywhere except the odd-cat phase-sum at s = 0.4, whose central
    # value dips negative (the quasi-distribution regime).  (< 30 s)
    problems = []

    for panel in ("1a", "1c", "2a", "2c"):
        columns, data = _run_figure(tmp_path, panel)
        if columns != ["alpha_sq", "phi_offset", "density"]:
            problems.append(f"{panel}: bad columns {columns}")
        first_block = data[data[:, 0] == 0.0][:, 2]
        spread = float(np.max(first_block) - np.min(first_block))
        if panel == "1c":
            # The only panel with 1 + 2 Re(mu nu*) = 0 AND the branch sign
            # that keeps the interference term: the limit stays structured.
            if spread < 0.3:
                problems.append(
                    f"{panel}: odd cat lost structure at alpha^2->0 (spread {spread:.2e})"
                )
        elif spread > 1e-6:
            problems.append(f"{panel}: not uniform at alpha^2=0 (spread {spread:.2e})")

    for panel in ("1b", "1d", "2b", "2d"):
        columns, data = _run_figure(tmp_path, panel)
        if columns != ["phi_offset", "density_s_m1", "density_s_0", "density_s_0p4"]:
            problems.append(f"{panel}: bad columns {columns}")
            continue
        center = int(np.argmin(np.abs(data[:, 0])))
        ranges = []
        for col, s_label in ((1, "-1"), (2, "0"), (3, "0.4")):
            series = data[:, col]
            ranges.append(float(np.max(series) - np.min(series)))
            second_diff = series[center + 1] - 2.0 * series[center] + series[center - 1]
            if panel == "2d" and s_label == "0.4":
                if not (second_diff > 0.0 and series[center] < 0.0):
                    problems.append(f"{panel} s={s_label}: expected negative central dip")
            elif second_diff >= 0.0:
                problems.append(f"{panel} s={s_label}: expected central peak")
            if s_label == "-1":
                if float(np.min(series)) < -1e-12:
                    problems.append(f"{panel}: s=-1 series goes negative")
                if _sign_changes(series) != 0:
                    problems.append(f"{panel}: s=-1 series changes sign")
            if s_label == "0.4" and _sign_changes(series) < 2:
                problems.append(f"{panel}: s=0.4 series lacks oscillation sign changes")
        if not (ranges[0] < ranges[1] < ranges[2]):
            problems.append(f"{panel}: oscillation amplitude not growing with s {ranges}")

    _report(9, not problems, "all eight panels emitted with documented shapes" if not problems else "; ".join(problems))
