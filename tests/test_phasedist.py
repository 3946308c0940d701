import cmath
import dataclasses
import json
import math
import re
import sys
import warnings
from itertools import count

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from catphase import (
    DomainError,
    LogScaledValue,
    NoConvergenceError,
    QuasiBellState,
    TruncationPolicy,
    build_spectrum,
    eval_one_mode_dist,
    eval_phase_dist,
    fourier_coefficient,
    i_n_combo,
    make_preset,
    normalization_constant,
    one_mode_coefficients,
    phase_mean_var,
    quadrature_phase_dist,
    trig_moments,
    wrap_angle,
)
from catphase import phasedist
from catphase.cli import main
from catphase.phasedist import _fused, _horner
from catphase.states import _unit_weights

from conftest import preset_state

TWO_PI = 2.0 * math.pi


def series_integral(f, lo, hi, n=400):
    """Gauss-Legendre integral of a smooth callable on [lo, hi]."""
    nodes, weights = leggauss(n)
    x = 0.5 * (hi - lo) * (nodes + 1.0) + lo
    return 0.5 * (hi - lo) * float(np.sum(weights * f(x)))


class TestFourierCoefficient:
    def test_zero_amplitude_gives_zero(self):
        state = QuasiBellState(0.0, 1.0, *_weights("even_cat"))
        for n in (1, 2, 5):
            assert fourier_coefficient(state, 0.0, n, "plus") == 0.0
            assert fourier_coefficient(state, 0.0, n, "minus") == 0.0

    def test_yurke_stoler_branches_coincide(self):
        state = preset_state("yurke_stoler_plus")
        for n in range(1, 8):
            for s in (-1.0, 0.0, 0.4):
                assert fourier_coefficient(state, s, n, "plus") == fourier_coefficient(
                    state, s, n, "minus"
                )

    def test_matches_quadrature_cosine_moment(self):
        # c_1 is the expectation of cos(phi - phi') under the quadrature
        # marginal; 128 uniform points resolve the ~18 harmonics exactly.
        state = preset_state("even_cat")
        c_1 = fourier_coefficient(state, 0.0, 1, "minus")
        grid = np.linspace(0.0, TWO_PI, 128, endpoint=False)
        density = quadrature_phase_dist(state, 0.0, "minus", grid)
        moment = float(np.mean(density * np.cos(grid))) * TWO_PI
        assert c_1 == pytest.approx(moment, abs=1e-6)

    def test_domain_errors(self):
        state = preset_state("even_cat")
        with pytest.raises(DomainError):
            fourier_coefficient(state, 1.0, 1, "plus")
        with pytest.raises(DomainError):
            fourier_coefficient(state, 0.0, 0, "plus")
        with pytest.raises(DomainError):
            fourier_coefficient(state, 0.0, 1, "both")
        with pytest.raises(DomainError, match="coefficient index n"):
            fourier_coefficient(state, 0.0, True, "plus")
        with pytest.raises(DomainError, match="coefficient index n"):
            fourier_coefficient(state, 0.0, 2.0, "plus")

    def test_numpy_integer_index(self):
        state = preset_state("odd_cat")
        for n in (2, 65):
            for branch in ("plus", "minus"):
                assert fourier_coefficient(state, 0.9, np.int64(n), branch).hex() == (
                    fourier_coefficient(state, 0.9, n, branch).hex()
                )


def _weights(kind):
    from catphase import PRESET_WEIGHTS

    return PRESET_WEIGHTS[kind]


class TestBuildSpectrum:
    def test_tiny_amplitudes_truncate_at_n_min(self):
        state = make_preset("even_cat", 0.01, 0.01)
        minus = build_spectrum(state, -1.0, "minus")
        plus = build_spectrum(state, -1.0, "plus")
        assert minus.n_used == 4
        assert plus.n_used == 5
        assert np.max(np.abs(minus.cos_coeffs)) < 1e-4
        assert np.max(np.abs(plus.cos_coeffs)) < 1e-4

    def test_unit_even_cat_decays(self):
        spectrum = build_spectrum(preset_state("even_cat"), 0.0, "minus")
        assert spectrum.cos_coeffs[0] > spectrum.cos_coeffs[1] > spectrum.cos_coeffs[2]
        assert abs(spectrum.cos_coeffs[-1]) < spectrum.tail_bound + 1e-300
        assert spectrum.tail_bound < TruncationPolicy().eps_tail

    def test_phi_prime_records_phase_combination(self):
        alpha = cmath.rect(1.0, 0.3)
        beta = cmath.rect(1.0, 1.1)
        state = QuasiBellState(alpha, beta, *_weights("even_cat"))
        assert build_spectrum(state, 0.0, "plus").phi_ref == pytest.approx(1.4)
        assert build_spectrum(state, 0.0, "minus").phi_ref == pytest.approx(0.8)

    def test_s_out_of_range(self):
        with pytest.raises(DomainError):
            build_spectrum(preset_state("even_cat"), 1.0, "minus")

    def test_no_convergence_when_cap_too_small(self):
        with pytest.raises(NoConvergenceError):
            build_spectrum(
                preset_state("even_cat"), 0.0, "minus", TruncationPolicy(n_min=2, n_max=3)
            )
        for n_max, message in ((1, "needs n_max >= 2"), (3, "tail still")):
            policy = TruncationPolicy(n_min=1, n_max=n_max)
            with pytest.raises(NoConvergenceError, match=message):
                build_spectrum(preset_state("even_cat"), 0.0, "minus", policy)
            with pytest.raises(NoConvergenceError, match=message):
                one_mode_coefficients(preset_state("yurke_stoler_plus"), 0.0, 1, policy)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(eps_tail=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(n_min=8, n_max=4)

    @pytest.mark.parametrize(
        "field,value", [("n_max", 10.5), ("n_max", 64.0), ("n_min", True), ("n_min", "4")]
    )
    def test_policy_counts_must_be_integers(self, field, value):
        # n_max = 10.5 was accepted and build_spectrum then raised a bare TypeError.
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            TruncationPolicy(**{field: value})

    def test_policy_stores_numpy_counts_as_int(self):
        policy = TruncationPolicy(n_min=np.int64(2), n_max=np.int32(16))
        assert (type(policy.n_min), type(policy.n_max)) == (int, int)
        assert policy == TruncationPolicy(n_min=2, n_max=16)


class TestEvalPhaseDist:
    def test_uniform_for_zero_spectrum(self):
        state = QuasiBellState(0.0, 1.0, *_weights("even_cat"))
        spectrum = build_spectrum(state, 0.0, "minus")
        phis = np.linspace(-10.0, 10.0, 101)
        assert np.allclose(eval_phase_dist(spectrum, phis), 1.0 / TWO_PI, atol=1e-16)

    def test_symmetric_about_reference(self, any_preset):
        spectrum = build_spectrum(preset_state(any_preset), 0.0, "minus")
        for delta in np.linspace(0.0, math.pi, 17):
            left = eval_phase_dist(spectrum, spectrum.phi_ref - delta)
            right = eval_phase_dist(spectrum, spectrum.phi_ref + delta)
            assert abs(left - right) < 1e-13

    def test_odd_cat_negative_at_s04(self):
        spectrum = build_spectrum(preset_state("odd_cat"), 0.4, "minus")
        grid = spectrum.phi_ref + np.linspace(-math.pi, math.pi, 361)
        assert float(np.min(eval_phase_dist(spectrum, grid))) < 0.0

    def test_normalized_over_any_period(self, any_preset):
        for s in (-1.0, 0.3):
            spectrum = build_spectrum(preset_state(any_preset), s, "plus")
            integral = series_integral(
                lambda p: eval_phase_dist(spectrum, p),
                spectrum.phi_ref - math.pi,
                spectrum.phi_ref + math.pi,
            )
            assert integral == pytest.approx(1.0, abs=1e-10)

    def test_horner_matches_naive_summation(self):
        # A real spectrum first, then a long synthetic decaying one.
        state = QuasiBellState(math.sqrt(3.0), math.sqrt(3.0), *_weights("even_cat"))
        spectrum = build_spectrum(state, 0.4, "minus")
        phis = np.linspace(-math.pi, math.pi, 101)
        naive = np.array(
            [
                sum(c * math.cos((k + 1) * p) for k, c in enumerate(spectrum.cos_coeffs))
                for p in phis
            ]
        )
        got = _horner(spectrum.cos_coeffs, np.exp(1j * phis)).real
        assert np.max(np.abs(got - naive)) < 1e-12

        rng = np.random.default_rng(31)
        coeffs = rng.uniform(-1.0, 1.0, 300) * 0.8 ** np.arange(300)
        phis = rng.uniform(-20.0, 20.0, 64)
        naive = np.array(
            [sum(c * math.cos((k + 1) * p) for k, c in enumerate(coeffs)) for p in phis]
        )
        assert np.max(np.abs(_horner(coeffs, np.exp(1j * phis)).real - naive)) < 1e-12

    def test_horner_bit_equal_to_plain_loop(self):
        def plain(coeffs, z):
            acc = np.zeros_like(z)
            for a in coeffs[::-1]:
                acc = (acc + a) * z
            return acc

        rng = np.random.default_rng(37)
        long_series = build_spectrum(QuasiBellState(1.5, 1.2, 0.6, 0.8), 0.95, "plus").cos_coeffs
        assert len(long_series) > 100
        synthetic = rng.uniform(-1.0, 1.0, 300) * 0.97 ** np.arange(300)
        # The 1-element array is how a scalar phi is summed; the complex
        # coefficients are those of a one-mode series.
        for coeffs, delta in [
            (long_series, rng.uniform(-4.0, 4.0, 360)),
            (synthetic, rng.uniform(-20.0, 20.0, 64)),
            (synthetic, np.array([0.7])),
            (synthetic - 0.5j * synthetic[::-1], rng.uniform(-4.0, 4.0, 360)),
        ]:
            z = np.exp(1j * delta)
            assert _horner(coeffs, z).tobytes() == plain(coeffs, z).tobytes()

    def test_one_mode_series_matches_mpmath(self):
        # Mode 1 of this state at s = 0.9 and 0.97 sums 108 and 286 terms;
        # the reference is taken at the evaluator's own wrapped offset, so
        # only the summation is checked, at 2e-15 of the density's scale.
        state = QuasiBellState(1.3, 0.9, 0.6, 0.8)
        offsets = np.linspace(-math.pi, math.pi, 40, endpoint=False) + 0.1
        with mpmath.workdps(30):
            for s in (0.9, 0.97):
                spectrum = one_mode_coefficients(state, s, 1)
                phis = spectrum.phi_ref + offsets
                got = eval_one_mode_dist(spectrum, phis)
                scale = (
                    1.0
                    + 2.0 * np.sum(np.abs(spectrum.cos_coeffs))
                    + 2.0 * np.sum(np.abs(spectrum.sin_coeffs))
                ) / TWO_PI
                for phi, value in zip(phis, got):
                    delta = mpmath.mpf(wrap_angle(phi - spectrum.phi_ref))
                    total = 1 + 2 * mpmath.fsum(
                        mpmath.mpf(c) * mpmath.cos(n * delta)
                        + mpmath.mpf(d) * mpmath.sin(n * delta)
                        for n, c, d in zip(count(1), spectrum.cos_coeffs, spectrum.sin_coeffs)
                    )
                    want = float(total / (2 * mpmath.pi))
                    assert abs(value - want) <= 2e-15 * scale, (s, phi)

    def test_scalar_and_array_agree(self):
        spectrum = build_spectrum(preset_state("even_cat"), 0.0, "minus")
        phis = np.array([0.0, 0.5, 2.0])
        arr = eval_phase_dist(spectrum, phis)
        assert arr.shape == (3,)
        for k, p in enumerate(phis):
            assert arr[k] == eval_phase_dist(spectrum, float(p))


class TestPhaseCovariance:
    def test_coefficients_depend_on_moduli_only(self):
        base = build_spectrum(preset_state("even_cat"), 0.2, "minus")
        rotated_state = QuasiBellState(
            cmath.rect(1.0, 0.7), cmath.rect(1.0, -1.2), *_weights("even_cat")
        )
        rotated = build_spectrum(rotated_state, 0.2, "minus")
        assert np.allclose(rotated.cos_coeffs, base.cos_coeffs, rtol=1e-13, atol=1e-300)
        assert rotated.phi_ref == pytest.approx((-1.2 - 0.7) % TWO_PI, abs=1e-14)

    def test_distribution_shifts_rigidly(self):
        theta1, theta2 = 0.9, -0.4
        base = build_spectrum(preset_state("odd_cat"), 0.0, "plus")
        rotated = build_spectrum(
            QuasiBellState(
                cmath.rect(1.0, theta1), cmath.rect(1.0, theta2), *_weights("odd_cat")
            ),
            0.0,
            "plus",
        )
        offsets = np.linspace(-math.pi, math.pi, 41)
        assert np.allclose(
            eval_phase_dist(rotated, rotated.phi_ref + offsets),
            eval_phase_dist(base, base.phi_ref + offsets),
            rtol=1e-12,
            atol=1e-14,
        )


class TestInformationLoss:
    def test_spectra_depend_only_on_real_weight_overlap(self):
        # Three weight choices sharing Re(mu nu*) = 0.3 but with different
        # |mu|^2 - |nu|^2 and Im(mu nu*).
        target = 0.3
        candidates = [
            QuasiBellState(1.0, 1.0, math.sqrt(0.9), math.sqrt(0.1)),
            QuasiBellState(1.0, 1.0, math.sqrt(0.1), math.sqrt(0.9)),
            QuasiBellState(
                1.0,
                1.0,
                math.sqrt(0.5),
                math.sqrt(0.5) * cmath.exp(-1j * math.acos(target / 0.5)),
            ),
        ]
        for state in candidates:
            assert (state.mu * state.nu.conjugate()).real == pytest.approx(target, abs=1e-15)
        reference = build_spectrum(candidates[0], 0.0, "minus").cos_coeffs
        for state in candidates[1:]:
            other = build_spectrum(state, 0.0, "minus").cos_coeffs
            assert len(other) == len(reference)
            assert np.allclose(other, reference, rtol=1e-13, atol=1e-300)


# Random states beyond the presets: any amplitude phases, renormalized
# complex weights, and moduli and orderings inside the validated box.
_BOX_AMPLITUDES = st.builds(
    cmath.rect, st.floats(0.05, math.sqrt(3.0)), st.floats(-math.pi, math.pi)
)
_ANY_WEIGHT = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_RANDOM_STATES = st.builds(
    lambda alpha, beta, mu, nu: QuasiBellState(alpha, beta, *_unit_weights(mu, nu)),
    _BOX_AMPLITUDES,
    _BOX_AMPLITUDES,
    _ANY_WEIGHT.filter(lambda z: abs(z) > 1e-3),
    _ANY_WEIGHT,
)
_ABSOLUTE_PHASES = np.linspace(-math.pi, math.pi, 361)


class TestRandomStates:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(state=_RANDOM_STATES)
    def test_antinormal_spectra_are_bounded_and_densities_nonnegative(self, state):
        for branch in ("plus", "minus"):
            spectrum = build_spectrum(state, -1.0, branch)
            assert np.max(np.abs(spectrum.cos_coeffs)) <= 1.0, branch
            grid = spectrum.phi_ref + _ABSOLUTE_PHASES
            assert float(np.min(eval_phase_dist(spectrum, grid))) >= -1e-12, branch
        for mode in (1, 2):
            spectrum = one_mode_coefficients(state, -1.0, mode)
            assert np.max(np.abs(spectrum.cos_coeffs)) <= 1.0, mode
            assert np.max(np.abs(spectrum.sin_coeffs)) <= 1.0, mode
            grid = spectrum.phi_ref + _ABSOLUTE_PHASES
            assert float(np.min(eval_one_mode_dist(spectrum, grid))) >= -1e-12, mode

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(state=_RANDOM_STATES, s=st.floats(-1.0, 0.4), theta=st.floats(-math.pi, math.pi))
    def test_information_loss_under_phase_rotations(self, state, s, theta):
        turn = cmath.exp(1j * theta)
        mu, nu = state.mu, state.nu

        def density(branch, alpha, beta):
            spectrum = build_spectrum(QuasiBellState(alpha, beta, mu, nu), s, branch)
            return eval_phase_dist(spectrum, _ABSOLUTE_PHASES)

        def mode_1_density(beta):
            spectrum = one_mode_coefficients(QuasiBellState(state.alpha, beta, mu, nu), s, 1)
            return eval_one_mode_dist(spectrum, _ABSOLUTE_PHASES)

        alpha, beta = state.alpha, state.beta
        pairs = [
            (density("minus", alpha, beta), density("minus", alpha * turn, beta * turn)),
            (density("plus", alpha, beta), density("plus", alpha * turn, beta / turn)),
            (mode_1_density(beta), mode_1_density(beta * turn)),
        ]
        for kind, (base, turned) in zip(("minus", "plus", "mode 1"), pairs):
            np.testing.assert_allclose(turned, base, rtol=1e-12, atol=1e-14, err_msg=kind)


class TestGenuineDistributionBound:
    def test_coefficients_below_unity_for_antinormal(self, any_preset):
        spectrum = build_spectrum(preset_state(any_preset), -1.0, "minus")
        assert np.max(np.abs(spectrum.cos_coeffs)) < 1.0
        grid = spectrum.phi_ref + np.linspace(-math.pi, math.pi, 361)
        assert float(np.min(eval_phase_dist(spectrum, grid))) >= -1e-12


class TestOneMode:
    def test_zero_amplitude_uniform(self):
        state = QuasiBellState(0.0, 1.0, *_weights("even_cat"))
        spectrum = one_mode_coefficients(state, 0.0, 1)
        assert all(c == 0.0 for c in spectrum.cos_coeffs)
        assert all(d == 0.0 for d in spectrum.sin_coeffs)
        assert eval_one_mode_dist(spectrum, 1.23) == pytest.approx(1.0 / TWO_PI)

    def test_even_cat_has_no_sine_terms(self):
        spectrum = one_mode_coefficients(preset_state("even_cat"), 0.0, 1)
        assert all(d == 0.0 for d in spectrum.sin_coeffs)
        delta = 0.8
        left = eval_one_mode_dist(spectrum, spectrum.phi_ref - delta)
        right = eval_one_mode_dist(spectrum, spectrum.phi_ref + delta)
        assert left == pytest.approx(right, rel=1e-13, abs=0.0)

    def test_single_coherent_state_structure(self):
        # mu = 1, nu = 0: no interference, no imbalance suppression.
        state = QuasiBellState(1.0, 0.5, 1.0, 0.0)
        spectrum = one_mode_coefficients(state, 0.0, 1)
        assert all(d == 0.0 for d in spectrum.sin_coeffs)
        assert all(c > 0.0 for c in spectrum.cos_coeffs[: spectrum.n_used - 1])

    def test_yurke_stoler_asymmetric(self):
        spectrum = one_mode_coefficients(preset_state("yurke_stoler_plus"), -1.0, 1)
        assert any(d != 0.0 for d in spectrum.sin_coeffs)
        left = eval_one_mode_dist(spectrum, spectrum.phi_ref - math.pi / 4)
        right = eval_one_mode_dist(spectrum, spectrum.phi_ref + math.pi / 4)
        assert abs(left - right) > 1e-4

    def test_even_sine_moments_vanish(self):
        # Even-index sine moments of the one-mode density vanish even for
        # states whose odd sine terms are present.
        spectrum = one_mode_coefficients(preset_state("yurke_stoler_plus"), 0.0, 1)
        grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        density = eval_one_mode_dist(spectrum, spectrum.phi_ref + grid)
        for k in (1, 2, 3):
            moment = float(np.mean(density * np.sin(2 * k * grid))) * TWO_PI
            assert abs(moment) < 1e-10

    def test_mode2_mirrors_mode1_under_swap(self):
        state = QuasiBellState(0.8, 1.3, *_weights("odd_cat"))
        swapped = QuasiBellState(1.3, 0.8, *_weights("odd_cat"))
        m2 = one_mode_coefficients(state, 0.2, 2)
        m1 = one_mode_coefficients(swapped, 0.2, 1)
        assert np.allclose(m2.cos_coeffs, m1.cos_coeffs, rtol=1e-14)
        assert np.allclose(m2.sin_coeffs, m1.sin_coeffs, rtol=1e-14)

    def test_mode1_independent_of_beta_phase(self):
        base = one_mode_coefficients(
            QuasiBellState(1.0, cmath.rect(1.0, 0.0), *_weights("yurke_stoler_plus")), 0.0, 1
        )
        rotated = one_mode_coefficients(
            QuasiBellState(1.0, cmath.rect(1.0, 2.2), *_weights("yurke_stoler_plus")), 0.0, 1
        )
        assert np.allclose(rotated.cos_coeffs, base.cos_coeffs, rtol=1e-13, atol=1e-300)
        assert np.allclose(rotated.sin_coeffs, base.sin_coeffs, rtol=1e-13, atol=1e-300)

    def test_split_coefficient_views(self):
        spectrum = one_mode_coefficients(preset_state("yurke_stoler_plus"), 0.0, 1)
        assert np.array_equal(spectrum.c_odd, spectrum.cos_coeffs[0::2])
        assert np.array_equal(spectrum.c_even, spectrum.cos_coeffs[1::2])
        assert np.array_equal(spectrum.d_odd, spectrum.sin_coeffs[0::2])

    def test_normalized(self, any_preset):
        spectrum = one_mode_coefficients(preset_state(any_preset), 0.0, 1)
        integral = series_integral(
            lambda p: eval_one_mode_dist(spectrum, p),
            spectrum.phi_ref - math.pi,
            spectrum.phi_ref + math.pi,
        )
        assert integral == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("mode", [1, 2])
    def test_tail_bound_is_reported(self, mode):
        # The larger of max(|c_n|, |d_n|) over the last two rows, below eps_tail.
        policy = TruncationPolicy()
        spectrum = one_mode_coefficients(preset_state("yurke_stoler_plus"), 0.4, mode, policy)
        rows = [
            max(abs(c), abs(d)) for c, d in zip(spectrum.cos_coeffs, spectrum.sin_coeffs)
        ][-2:]
        assert spectrum.tail_bound == max(rows)
        assert 0.0 < spectrum.tail_bound < policy.eps_tail
        assert spectrum.n_used == len(spectrum.sin_coeffs) > 2

    def test_bad_mode(self):
        for mode in (3, True, 1.0, "1"):
            with pytest.raises(DomainError, match="mode must be 1 or 2"):
                one_mode_coefficients(preset_state("even_cat"), 0.0, mode)

    def test_numpy_integer_mode_is_stored_as_int(self):
        spectrum = one_mode_coefficients(preset_state("even_cat"), 0.0, np.int64(2))
        assert type(spectrum.line) is int and spectrum.line == 2


class TestTrigMoments:
    @pytest.mark.parametrize("mode", [1, 2])
    def test_mode_line_is_domain_error(self, mode):
        # Both read c_n alone; on a mode line they would ignore d_n and give
        # wrong moments without a word.
        spectrum = one_mode_coefficients(preset_state("yurke_stoler_plus"), 0.0, mode)
        message = f"needs a phase-sum or phase-difference spectrum, got the mode {mode} line$"
        with pytest.raises(DomainError, match="^trig_moments " + message):
            trig_moments(spectrum, 1)
        with pytest.raises(DomainError, match="^phase_mean_var " + message):
            phase_mean_var(spectrum, spectrum.phi_ref)

    def test_uniform_case(self):
        state = QuasiBellState(0.0, 1.0, *_weights("even_cat"))
        spectrum = build_spectrum(state, 0.0, "minus")
        moments = trig_moments(spectrum, 1)
        assert moments.mean_cos == 0.0
        assert moments.mean_sin == 0.0
        assert moments.var_cos == pytest.approx(0.5)
        assert moments.var_sin == pytest.approx(0.5)

    def test_mean_sin_identically_zero(self, any_preset):
        spectrum = build_spectrum(preset_state(any_preset), -0.3, "plus")
        for n in (1, 2, 5):
            assert trig_moments(spectrum, n).mean_sin == 0.0

    def test_mean_cos_is_coefficient(self):
        spectrum = build_spectrum(preset_state("even_cat"), -1.0, "minus")
        for n in (1, 2, 3):
            assert trig_moments(spectrum, n).mean_cos == spectrum.cos_coeffs[n - 1]

    def test_recomputes_past_truncation(self):
        spectrum = build_spectrum(preset_state("even_cat"), 0.0, "minus")
        n = spectrum.n_used - 2
        assert 2 * n > spectrum.n_used
        moments = trig_moments(spectrum, n)
        direct = fourier_coefficient(spectrum.state, spectrum.s, 2 * n, "minus")
        assert moments.var_sin == pytest.approx(0.5 * (1.0 - direct), rel=1e-14, abs=0.0)

    def test_moments_match_quadrature(self):
        # <cos(phi - phi')> against the quadrature marginal.
        state = preset_state("even_cat")
        spectrum = build_spectrum(state, -1.0, "minus")
        grid = np.linspace(0.0, TWO_PI, 128, endpoint=False)
        density = quadrature_phase_dist(state, -1.0, "minus", spectrum.phi_ref + grid)
        moment = float(np.mean(density * np.cos(grid))) * TWO_PI
        assert trig_moments(spectrum, 1).mean_cos == pytest.approx(moment, abs=1e-6)

    def test_numpy_integer_order(self):
        spectrum = build_spectrum(preset_state("even_cat"), 0.0, "minus")
        for n in (2, spectrum.n_used):  # the second recomputes c_2n
            assert trig_moments(spectrum, np.int64(n)) == trig_moments(spectrum, n)
        with pytest.raises(DomainError, match="moment order"):
            trig_moments(spectrum, True)


class TestPhaseMeanVar:
    def test_centered_window_mean_is_reference(self, any_preset):
        spectrum = build_spectrum(preset_state(any_preset), -1.0, "minus")
        stats = phase_mean_var(spectrum, spectrum.phi_ref)
        assert stats.mean == spectrum.phi_ref

    def test_uniform_variance(self):
        state = QuasiBellState(0.0, 1.0, *_weights("even_cat"))
        spectrum = build_spectrum(state, 0.0, "minus")
        stats = phase_mean_var(spectrum, 1.0)
        assert stats.mean == pytest.approx(1.0)
        assert stats.variance == pytest.approx(math.pi**2 / 3.0, rel=1e-15, abs=0.0)

    def test_peaked_distribution_beats_uniform(self):
        spectrum = build_spectrum(preset_state("even_cat"), -1.0, "minus")
        stats = phase_mean_var(spectrum, spectrum.phi_ref)
        assert stats.variance < math.pi**2 / 3.0

    def test_against_direct_window_quadrature(self):
        # Mean and variance recomputed as integrals of the series density.
        spectrum = build_spectrum(preset_state("even_cat"), -1.0, "minus")
        phi0 = spectrum.phi_ref + 0.35
        stats = phase_mean_var(spectrum, phi0)
        lo, hi = phi0 - math.pi, phi0 + math.pi
        mean = series_integral(lambda p: p * eval_phase_dist(spectrum, p), lo, hi)
        var = series_integral(
            lambda p: (p - mean) ** 2 * eval_phase_dist(spectrum, p), lo, hi
        )
        assert stats.mean == pytest.approx(mean, abs=1e-10)
        assert stats.variance == pytest.approx(var, abs=1e-10)

    def test_off_center_window_shifts_mean(self):
        spectrum = build_spectrum(preset_state("even_cat"), 0.0, "minus")
        stats = phase_mean_var(spectrum, spectrum.phi_ref + 0.5)
        assert stats.mean != pytest.approx(spectrum.phi_ref + 0.5)

    def test_not_finite_is_overflow_error_without_warning(self):
        # c_1 = -3.3e152 here: off centre the mean shift squares past the
        # float range, and the variance was returned as -inf.
        state = make_preset("odd_cat", 1.1361335358221332, 1.6326762425465526)
        spectrum = build_spectrum(state, 0.9786597790976956, "plus")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"window center 3\.0$"):
                phase_mean_var(spectrum, 3.0)
            assert math.isfinite(phase_mean_var(spectrum, spectrum.phi_ref).variance)

    def test_partial_sum_past_the_float_range_is_overflow_error(self):
        # The two mean terms, 1.47e308 and 0.74e308, overflow inside math.fsum.
        spectrum = build_spectrum(preset_state("even_cat"), 0.0, "minus")
        spectrum = dataclasses.replace(spectrum, cos_coeffs=[-1.7e308, 1.7e308], n_used=2)
        with pytest.raises(OverflowError, match=r"not finite at window center"):
            phase_mean_var(spectrum, spectrum.phi_ref + math.pi / 3)

    def test_window_center_past_the_sine_range_is_domain_error(self):
        # n (phi0 - phi_prime) passes the float range from n = 2 on, where
        # math.sin would raise a bare ValueError.
        spectrum = build_spectrum(preset_state("odd_cat"), 0.0, "minus")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phi0 in (1e308, -1e308, 1.7e308):
                message = rf"^window center {re.escape(repr(phi0))} is so large"
                with pytest.raises(DomainError, match=message):
                    phase_mean_var(spectrum, phi0)
            # The largest center whose n_used (phi0 - phi_prime) is finite still works.
            largest = math.nextafter(sys.float_info.max / spectrum.n_used, 0.0)
            assert math.isfinite(phase_mean_var(spectrum, largest).variance)

    @pytest.mark.parametrize("preset", ["even_cat", "odd_cat"])
    @pytest.mark.parametrize("s", [-1.0, 0.4, 0.9])
    def test_finite_bits_match_the_unguarded_formula(self, preset, s):
        # The terms are formed by numpy, and each sum is correctly rounded.
        spectrum = build_spectrum(preset_state(preset), s, "minus")
        n = np.arange(1, spectrum.n_used + 1)
        signs = np.where(n % 2 == 0, 1.0, -1.0)
        coeffs = np.array(spectrum.cos_coeffs)
        for phi0 in (spectrum.phi_ref, spectrum.phi_ref + 0.5, -2.0):
            delta0 = phi0 - spectrum.phi_ref
            shift = 2.0 * math.fsum(signs / n * coeffs * np.sin(n * delta0))
            variance = (
                math.pi**2 / 3.0
                - shift**2
                + 4.0 * math.fsum(signs / n**2 * coeffs * np.cos(n * delta0))
            )
            expected = (phi0 + shift, variance)
            assert tuple(phase_mean_var(spectrum, phi0)) == expected


def _refusal(error, coefficient):
    return error, f"^{re.escape(coefficient)} at s="


_NO_CONVERGENCE = (NoConvergenceError, "at n_max=512$")

# Each edge of the domain, (preset, |alpha| = |beta|, s), and the outcome of the
# plus and minus pair spectra and the mode-1 spectrum there: the terms used, or
# the error and a pattern of its message.
DOMAIN_EDGES = [
    ("odd_cat", 1.0, 0.99, (466, 466, 482)),
    ("odd_cat", 1.0, 0.999, (
        _refusal(OverflowError, "c_1^(plus)"),
        _refusal(OverflowError, "c_1^(minus)"),
        _refusal(OverflowError, "one-mode c_2"),
    )),
    ("even_cat", 4.0, 0.9, (_NO_CONVERGENCE,) * 3),
    ("even_cat", 6.0, 0.9, (
        _refusal(OverflowError, "c_1^(plus)"),
        _refusal(OverflowError, "c_1^(minus)"),
        _NO_CONVERGENCE,
    )),
    ("odd_cat", 20.0, 0.0, (229, 229, 324)),
]


class TestDomainEdges:
    @pytest.mark.parametrize("preset,amp,s,outcomes", DOMAIN_EDGES)
    def test_outcome(self, preset, amp, s, outcomes):
        state = make_preset(preset, amp, amp)
        builds = (
            lambda: build_spectrum(state, s, "plus"),
            lambda: build_spectrum(state, s, "minus"),
            lambda: one_mode_coefficients(state, s, 1),
        )
        for build, outcome in zip(builds, outcomes):
            if isinstance(outcome, int):
                assert build().n_used == outcome
            else:
                error, pattern = outcome
                with pytest.raises(error, match=pattern):
                    build()

    @pytest.mark.parametrize(
        "preset,amp,s,status,error",
        [
            ("odd_cat", "1.0", "0.999", 3, "OverflowError"),
            ("even_cat", "4.0", "0.9", 4, "NoConvergenceError"),
        ],
    )
    def test_cli_exit_status(self, capsys, preset, amp, s, status, error):
        argv = ["coeffs", "--branch", "plus", "--preset", preset, "--s", s]
        assert main(argv + ["--alpha", amp, "0", "--beta", amp, "0"]) == status
        assert json.loads(capsys.readouterr().out)["error"]["type"] == error


def _where_wrap(phi):
    """wrap_angle as np.where over a shifted copy, the form it had before its masked subtract."""
    out = np.mod(np.asarray(phi, dtype=float), TWO_PI)
    out = np.where(out > math.pi, out - TWO_PI, out)
    return out if out.ndim else float(out)


_EDGE_ANGLES = [
    0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI, 3.0 * math.pi, -3.0 * math.pi,
    math.nextafter(math.pi, 4.0), math.nextafter(math.pi, 0.0),
    math.nextafter(TWO_PI, 7.0), math.nextafter(TWO_PI, 0.0), 1e17, -1e17, 1e300, -1e300,
]


class TestWrapAngle:
    @pytest.mark.parametrize(
        "phi",
        [
            *_EDGE_ANGLES,
            np.float64(-math.pi),
            np.array(math.pi),
            np.array(-1e300),
            np.array(_EDGE_ANGLES),
            np.concatenate([np.geomspace(1e-3, 1e300, 301), -np.geomspace(1e-3, 1e300, 301)]),
            np.array(_EDGE_ANGLES).reshape(4, 4),
        ],
    )
    def test_bytes_match_the_where_form(self, phi):
        before = np.array(phi, copy=True)
        got, want = wrap_angle(phi), _where_wrap(phi)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(phi).tobytes() == before.tobytes()  # the input is left alone

    def test_range(self):
        grid = np.linspace(-30.0, 30.0, 1001)
        wrapped = wrap_angle(grid)
        assert np.all(wrapped > -math.pi)
        assert np.all(wrapped <= math.pi)
        assert np.allclose(np.cos(wrapped), np.cos(grid), atol=1e-12)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    @pytest.mark.parametrize(
        "phi,named",
        [
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
            ([0.0, 1.0, -math.inf, math.nan], "-inf"),
            (np.array([[0.5, math.nan], [math.inf, 2.0]]), "nan"),
        ],
    )
    def test_non_finite_angle_is_domain_error(self, phi, named):
        state = make_preset("odd_cat", 1.0, 0.7)
        pair = build_spectrum(state, 0.3, "plus")
        one_mode = one_mode_coefficients(state, 0.3, 2)
        calls = (
            lambda: wrap_angle(phi),
            lambda: eval_phase_dist(pair, phi),
            lambda: eval_one_mode_dist(one_mode, phi),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DomainError, match=f"angle must be finite, got {named}$"):
                    call()


# The coefficient fusion through LogScaledValue objects and math.fsum, as the
# library did it before it fused in plain floats; the float route must give the
# same bits and raise the same errors.
def _old_product(a, b):
    if a.sign == 0 or b.sign == 0:
        return LogScaledValue.zero()
    return LogScaledValue(a.sign * b.sign, a.log_mag + b.log_mag)


def _old_signed_exp_sum(terms, log_scale, context):
    live = [t for t in terms if t.sign != 0]
    if not live:
        return 0.0
    peak = max(t.log_mag for t in live)
    acc = math.fsum(t.sign * math.exp(t.log_mag - peak) for t in live)
    if acc == 0.0:
        return 0.0
    total_log = peak + log_scale + math.log(abs(acc))
    if total_log > 709.0:
        raise OverflowError(
            f"{context}: fused exponent {total_log:.6g} exceeds the float range; "
            "the coefficient is astronomically large this close to s = 1"
        )
    return math.copysign(math.exp(total_log), acc)


def _old_pair_terms(state, s, branch):
    sign = 1 if branch == "plus" else -1
    x_a = abs(state.alpha) ** 2 / (1.0 - s)
    x_b = abs(state.beta) ** 2 / (1.0 - s)
    asq = state.amplitude_sq_sum
    overlap = state.weight_overlap.real
    log_scale = 2.0 * math.log(normalization_constant(state)) + math.log(0.5 * math.pi)

    def terms(n):
        gauss = _old_product(i_n_combo(n, x_a, "plus"), i_n_combo(n, x_b, "plus"))
        interf = LogScaledValue.from_value((sign**n) * 2.0 * overlap)
        interf = _old_product(interf, i_n_combo(n, x_a, "minus"))
        interf = _old_product(interf, i_n_combo(n, x_b, "minus")).scaled(-2.0 * asq)
        c_n = _old_signed_exp_sum([gauss, interf], log_scale, f"c_{n}^({branch}) at s={s!r}")
        return c_n, 0.0

    return terms


def _old_one_mode_terms(state, s, mode):
    amp = state.alpha if mode == 1 else state.beta
    x_m = abs(amp) ** 2 / (1.0 - s)
    asq = state.amplitude_sq_sum
    log_scale = 2.0 * math.log(normalization_constant(state)) + 0.5 * math.log(0.5 * math.pi)
    cross = state.weight_overlap
    imbalance = abs(state.mu) ** 2 - abs(state.nu) ** 2

    def terms(n):
        plus_part, minus_part = i_n_combo(n, x_m, "plus"), i_n_combo(n, x_m, "minus")
        context = f"one-mode c_{n} at s={s!r}"
        if n % 2 == 0:
            interf = LogScaledValue.from_value(2.0 * cross.real)
            interf = _old_product(interf, minus_part).scaled(-2.0 * asq)
            return _old_signed_exp_sum([plus_part, interf], log_scale, context), 0.0
        c_n = _old_signed_exp_sum(
            [_old_product(LogScaledValue.from_value(imbalance), plus_part)], log_scale, context
        )
        d_term = LogScaledValue.from_value(2.0 * cross.imag)
        d_term = _old_product(d_term, minus_part).scaled(-2.0 * asq)
        return c_n, _old_signed_exp_sum([d_term], log_scale, f"one-mode d_{n} at s={s!r}")

    return terms


def _old_truncate(rows, policy):
    """The row-tuple truncation loop the library used before it walked table segments."""
    policy = policy or TruncationPolicy()
    if policy.n_max < 2:
        raise NoConvergenceError(f"the two-term tail test needs n_max >= 2, got {policy.n_max}")
    kept = [next(rows)]
    for n in range(2, policy.n_max + 1):
        kept.append(next(rows))
        tail = max(map(abs, kept[-2] + kept[-1]))
        if n >= policy.n_min and tail < policy.eps_tail:
            return [list(column) for column in zip(*kept)], tail
    raise NoConvergenceError(
        f"spectrum tail still {tail:.3e} "
        f"above eps_tail={policy.eps_tail:g} at n_max={policy.n_max}"
    )


def _outcome(compute):
    """('ok', bytes of the result) or (error type, message)."""
    try:
        return "ok", np.asarray(compute(), dtype=float).tobytes()
    except (OverflowError, NoConvergenceError) as exc:
        return type(exc).__name__, str(exc)


_AMPLITUDES = st.one_of(
    st.just(0j),
    st.builds(cmath.rect, st.floats(0.05, 7.0), st.floats(-math.pi, math.pi)),
)
# Zero, negative and complex weights: zero Re(mu nu*), Im(mu nu*) or |mu|^2 - |nu|^2
# leave a term out of the fused sum.
_WEIGHTS = st.one_of(
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (1.0, 1j), (0.6, -0.8)]),
    st.tuples(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    ),
)
_ORDERINGS = st.one_of(st.floats(-1.0, 0.9), st.floats(0.9, 0.9995), st.just(-1.0))


class TestFusionMatchesLogScaledRoute:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        sign_a=st.sampled_from([-1, 0, 1]),
        sign_b=st.sampled_from([-1, 0, 1]),
        log_a=st.floats(-1000.0, 1000.0),
        log_b=st.floats(-1000.0, 1000.0),
        offset=st.one_of(
            st.floats(-1e-12, 1e-12), st.floats(-40.0, 40.0), st.floats(-2000.0, 2000.0)
        ),
        n=st.integers(1, 512),
    )
    def test_fused_bits_and_errors(self, sign_a, sign_b, log_a, log_b, offset, n):
        # log_scale puts the fused exponent within offset of the 709 limit
        # when one term dominates.
        log_scale = 709.0 - max(log_a, log_b) + offset
        label = "one-mode c_{n} at s=0.999"
        new = _outcome(lambda: _fused(sign_a, log_a, sign_b, log_b, log_scale, label, n))
        old = _outcome(
            lambda: _old_signed_exp_sum(
                [LogScaledValue(sign_a, log_a), LogScaledValue(sign_b, log_b)],
                log_scale,
                label.format(n=n),
            )
        )
        assert new == old

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        alpha=_AMPLITUDES,
        beta=_AMPLITUDES,
        weights=_WEIGHTS,
        s=_ORDERINGS,
        n_max=st.sampled_from([2, 16, 160]),
    )
    def test_spectra_bits_and_errors(self, alpha, beta, weights, s, n_max):
        try:
            state = QuasiBellState(alpha, beta, *_unit_weights(*weights))
            normalization_constant(state)
        except (ValueError, ArithmeticError):
            return  # no normalizable state
        policy = TruncationPolicy(n_min=2, n_max=n_max)
        for branch in ("plus", "minus"):
            def new_pair():
                spectrum = build_spectrum(state, s, branch, policy)
                return [*spectrum.cos_coeffs, spectrum.tail_bound, spectrum.n_used]

            def old_pair():
                old_rows = map(_old_pair_terms(state, s, branch), count(1))
                (coeffs, _), tail = _old_truncate(old_rows, policy)
                return [*coeffs, tail, len(coeffs)]

            assert _outcome(new_pair) == _outcome(old_pair), branch
        for mode in (1, 2):
            def new_rows():
                spectrum = one_mode_coefficients(state, s, mode, policy)
                rows = np.column_stack([spectrum.cos_coeffs, spectrum.sin_coeffs])
                return [*rows.ravel(), spectrum.n_used]

            def old_rows():
                rows = map(_old_one_mode_terms(state, s, mode), count(1))
                rows = np.column_stack(_old_truncate(rows, policy)[0])
                return [*rows.ravel(), len(rows)]

            assert _outcome(new_rows) == _outcome(old_rows), mode


class TestBindings:
    """Spectra call i_n_combo and normalization_constant through catphase.phasedist's names.

    i_n_combo is called once per branch and Bessel argument at the first n of
    each table segment (1, 65, 129, 257, ...), and normalization_constant
    once per spectrum, so a wrapper bound there sees every spectrum's checks.
    """

    STATE = QuasiBellState(2.2, 1.5 * cmath.exp(0.3j), 0.6, 0.8)  # 256 < n_used at s = 0.95
    ZERO_ALPHA = QuasiBellState(0.0, 1.5 * cmath.exp(0.3j), 0.6, 0.8)

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        combo, norm = phasedist.i_n_combo, phasedist.normalization_constant

        def traced_combo(n, x, branch):
            seen.append((n, x, branch))
            return combo(n, x, branch)

        def traced_norm(state):
            seen.append("norm")
            return norm(state)

        monkeypatch.setattr(phasedist, "i_n_combo", traced_combo)
        monkeypatch.setattr(phasedist, "normalization_constant", traced_norm)
        return seen

    @staticmethod
    def _expected(xs, n_first, n_used):
        starts = [n_first] + [n for n in (65, 129, 257, 513) if n_first < n <= n_used]
        return ["norm"] + [(n, x, b) for n in starts for x in xs for b in ("plus", "minus")]

    @pytest.mark.parametrize("state", [STATE, ZERO_ALPHA], ids=["deep", "alpha0"])
    def test_calls_per_segment_and_spectrum(self, calls, state):
        s, policy = 0.95, TruncationPolicy(n_min=300)
        x_a, x_b = abs(state.alpha) ** 2 / (1.0 - s), abs(state.beta) ** 2 / (1.0 - s)
        for branch in ("plus", "minus"):
            calls.clear()
            spectrum = build_spectrum(state, s, branch, policy)
            assert spectrum.n_used > 256
            assert calls == self._expected((x_a, x_b), 1, spectrum.n_used), branch
        for mode, x in ((1, x_a), (2, x_b)):
            calls.clear()
            spectrum = one_mode_coefficients(state, s, mode, policy)
            assert calls == self._expected((x,), 1, spectrum.n_used), mode
        for n in (1, 64, 65, 300):
            calls.clear()
            fourier_coefficient(state, s, n, "minus")
            assert calls == self._expected((x_a, x_b), n, n), n

    def test_a_segment_is_entered_only_when_its_first_row_is_drawn(self, calls):
        # n_max = n_min = 64 and 65: the second segment is reached only by the second.
        s = 0.95
        x_a, x_b = abs(self.STATE.alpha) ** 2 / (1.0 - s), abs(self.STATE.beta) ** 2 / (1.0 - s)
        for n_used in (64, 65):
            calls.clear()
            policy = TruncationPolicy(eps_tail=1e300, n_min=n_used, n_max=n_used)
            assert build_spectrum(self.STATE, s, "plus", policy).n_used == n_used
            assert calls == self._expected((x_a, x_b), 1, n_used), n_used


class TestTableEdges:
    """Spectra read table segments; each value keeps the bits of the per-n i_n_combo route."""

    # x_a = 96.8 and x_b = 45 at s = 0.95: the series crosses four table sizes.
    DEEP = (QuasiBellState(2.2, 1.5 * cmath.exp(0.3j), 0.6, 0.8), 0.95, TruncationPolicy())
    # x_a = 900 and x_b = 625 at s = 0, where many entries of one segment
    # differ in their last bits between its own table and the next larger one.
    LARGE_X = (QuasiBellState(30.0, 25.0 * cmath.exp(0.3j), 0.6, 0.8), 0.0, TruncationPolicy())
    # A zero amplitude gives x = 0 and exact zeros; n_min = 300 makes the
    # series cross the same table edges anyway.
    ZERO_ALPHA = (
        QuasiBellState(0.0, 1.5 * cmath.exp(0.3j), 0.6, 0.8),
        0.95,
        TruncationPolicy(n_min=300),
    )
    ZERO_BETA = (QuasiBellState(2.2, 0.0, 0.6, 0.8), 0.95, TruncationPolicy(n_min=300))

    @pytest.mark.parametrize(
        "case", [DEEP, LARGE_X, ZERO_ALPHA, ZERO_BETA], ids=["deep", "large_x", "alpha0", "beta0"]
    )
    def test_bits_match_per_n_route(self, case):
        state, s, policy = case
        for branch in ("plus", "minus"):
            spectrum = build_spectrum(state, s, branch, policy)
            old_terms = _old_pair_terms(state, s, branch)
            (old, _), tail = _old_truncate(map(old_terms, count(1)), policy)
            assert spectrum.n_used > 256
            assert [c.hex() for c in spectrum.cos_coeffs] == [c.hex() for c in old], branch
            assert spectrum.tail_bound.hex() == tail.hex(), branch
            assert spectrum.n_used == len(old), branch
            for n in (1, 64, 65, 128, 129, 256, 257, spectrum.n_used):
                new = fourier_coefficient(state, s, n, branch)
                assert new.hex() == old_terms(n)[0].hex(), (branch, n)
        for mode in (1, 2):
            spectrum = one_mode_coefficients(state, s, mode, policy)
            old_rows = map(_old_one_mode_terms(state, s, mode), count(1))
            old = np.column_stack(_old_truncate(old_rows, policy)[0])
            new = np.column_stack([spectrum.cos_coeffs, spectrum.sin_coeffs])
            assert spectrum.n_used > 128  # mode 2 of DEEP stops at 224
            assert new.tobytes() == old.tobytes(), mode
            assert spectrum.n_used == len(old), mode
