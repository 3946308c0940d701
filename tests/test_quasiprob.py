import math
import warnings

import numpy as np
import pytest

from catphase import (
    DomainError,
    QuasiBellState,
    chi,
    make_preset,
    normalization_constant,
    w,
    w_symmetrized,
)

from conftest import preset_state


def chi_complex_s(state, xi, eta, s):
    """The closed form of :func:`chi`, continued to complex s, at scalar points.

    The public :func:`chi` takes real s only; this follows its operations in
    the same order, so at real s it gives the same bits.
    """
    s = complex(s)
    alpha, beta, mu, nu = state.alpha, state.beta, state.mu, state.nu
    asq = state.amplitude_sq_sum
    gauss = -0.5 * (1.0 - s) * (np.abs(xi) ** 2 + np.abs(eta) ** 2)
    g = 2j * ((xi * np.conj(alpha)).imag + (eta * np.conj(beta)).imag)
    h = 2.0 * ((xi * np.conj(alpha)).real + (eta * np.conj(beta)).real)
    cross = state.weight_overlap
    out = normalization_constant(state) ** 2 * (
        abs(mu) ** 2 * np.exp(gauss + g)
        + abs(nu) ** 2 * np.exp(gauss - g)
        + np.conj(cross) * np.exp(gauss + h - 2.0 * asq)
        + cross * np.exp(gauss - h - 2.0 * asq)
    )
    return complex(out)


def _w_complex_s(state, gamma, delta, s):
    """W evaluated naively at complex s (no real pairing), at scalar points.

    Exists only to assert the conjugation property W(s)* = W(s*); the public
    :func:`w` is the real-s production path.
    """
    s = complex(s)
    alpha, beta, mu, nu = state.alpha, state.beta, state.mu, state.nu
    one_minus = 1.0 - s
    asq = state.amplitude_sq_sum
    pref = 4.0 * normalization_constant(state) ** 2 / (math.pi**2 * one_minus**2)
    common = np.exp(-2.0 * (asq + abs(gamma) ** 2 + abs(delta) ** 2) / one_minus)
    lin_re = 2.0 * (
        np.conj(alpha) * gamma + alpha * np.conj(gamma)
        + np.conj(beta) * delta + beta * np.conj(delta)
    ) / one_minus
    lin_im = 2.0 * (
        np.conj(alpha) * gamma - alpha * np.conj(gamma)
        + np.conj(beta) * delta - beta * np.conj(delta)
    ) / one_minus
    boost = np.exp(2.0 * (1.0 + s) * asq / one_minus)
    cross = state.weight_overlap
    out = pref * common * (
        abs(mu) ** 2 * np.exp(lin_re)
        + abs(nu) ** 2 * np.exp(-lin_re)
        + boost * (np.conj(cross) * np.exp(lin_im) + cross * np.exp(-lin_im))
    )
    return complex(out)


def polar_grid(r_max=4.0, n_r=41, n_phi=8):
    radii = np.linspace(0.0, r_max, n_r)
    angles = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    r_g = radii[:, None, None, None]
    r_d = radii[None, :, None, None]
    p_g = angles[None, None, :, None]
    p_d = angles[None, None, None, :]
    return r_g * np.exp(1j * p_g), r_d * np.exp(1j * p_d)


class TestChi:
    def test_unit_at_origin(self, any_preset):
        state = preset_state(any_preset)
        for s in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
            assert chi(state, 0.0, 0.0, s) == pytest.approx(1.0, abs=1e-14)

    def test_single_coherent_state_pure_phase_at_s1(self):
        state = QuasiBellState(0.8 + 0.3j, -0.5j, 1.0, 0.0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            xi = complex(*rng.uniform(-2, 2, 2))
            eta = complex(*rng.uniform(-2, 2, 2))
            assert abs(chi(state, xi, eta, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_gaussian(self):
        state = make_preset("even_cat", 0.0, 0.0)
        for s in (-1.0, 0.0, 0.5):
            for xi, eta in [(0.7, 0.0), (0.2 - 0.4j, 1.1j), (0.0, 2.0)]:
                expected = math.exp(-0.5 * (1 - s) * (abs(xi) ** 2 + abs(eta) ** 2))
                assert chi(state, xi, eta, s) == pytest.approx(expected, abs=1e-14)

    def test_array_broadcast(self):
        state = preset_state("odd_cat")
        xi = np.array([0.1, 0.2 + 0.1j, -0.3j])
        out = chi(state, xi, 0.5, 0.0)
        assert out.shape == (3,)
        for k in range(3):
            assert out[k] == pytest.approx(chi(state, complex(xi[k]), 0.5, 0.0))

    def test_underflows_to_zero_far_from_origin(self):
        # exp(-(1-s)|xi|^2/2) underflows to 0 here, while exp(h - 2(|alpha|^2+|beta|^2))
        # alone overflows.
        state = preset_state("even_cat")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi(state, 1000.0, 0.0, 0.0) == 0j
            far = chi(state, np.array([1000.0, -1000.0, 1000j]), 0.3, 0.0)
        assert np.all(far == 0)

    def test_origin_bits_match_the_unfused_formula(self, any_preset):
        state = preset_state(any_preset)
        mu, nu, cross = state.mu, state.nu, state.weight_overlap
        n2 = normalization_constant(state) ** 2
        for s in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
            pref = np.exp(-0.5 * (1.0 - s) * 0.0)
            interference = np.exp(0.0 - 2.0 * state.amplitude_sq_sum)
            terms = abs(mu) ** 2 * np.exp(0j) + abs(nu) ** 2 * np.exp(-0j)
            terms = terms + np.conj(cross) * interference + cross * interference
            expected = complex(n2 * pref * terms)
            assert chi(state, 0.0, 0.0, s).real.hex() == expected.real.hex()
            assert abs(chi(state, 0.0, 0.0, s) - 1.0) == abs(expected - 1.0)

    def test_non_finite_s_rejected(self):
        with pytest.raises(DomainError):
            chi(preset_state("even_cat"), 0.1, 0.1, math.inf)


class TestChiComplexS:
    def test_real_s_consistency(self, any_preset):
        state = preset_state(any_preset)
        for s in (-1.0, 0.0, 0.4):
            a = chi(state, 0.3 - 0.2j, 0.1j, s)
            b = chi_complex_s(state, 0.3 - 0.2j, 0.1j, complex(s, 0.0))
            assert a == b

    def test_unit_at_origin(self):
        state = preset_state("even_cat")
        assert chi_complex_s(state, 0.0, 0.0, 0.2 + 0.7j) == pytest.approx(1.0, abs=1e-14)

    def test_conjugation_with_negated_displacements(self):
        # chi(xi, eta; s)* = chi(-xi, -eta; s*).
        state = preset_state("even_cat")
        rng = np.random.default_rng(3)
        for _ in range(25):
            xi = complex(*rng.uniform(-1.5, 1.5, 2))
            eta = complex(*rng.uniform(-1.5, 1.5, 2))
            s = complex(*rng.uniform(-0.5, 0.5, 2))
            lhs = chi_complex_s(state, xi, eta, s).conjugate()
            rhs = chi_complex_s(state, -xi, -eta, s.conjugate())
            assert lhs == pytest.approx(rhs, abs=1e-13)


class TestW:
    def test_coherent_peak(self):
        state = QuasiBellState(1.0, 0.5, 1.0, 0.0)
        assert w(state, 1.0, 0.5, 0.0) == pytest.approx(4.0 / math.pi**2, rel=1e-14, abs=0.0)

    def test_vacuum_antinormal_origin(self):
        state = make_preset("even_cat", 0.0, 0.0)
        assert w(state, 0.0, 0.0, -1.0) == pytest.approx(1.0 / math.pi**2, rel=1e-14, abs=0.0)

    def test_odd_cat_negative_between_lobes(self):
        # At the midpoint between the two Gaussian lobes the interference
        # term exactly cancels the norm: W(0, 0; 0) = -4/pi^2 for any odd cat.
        for amp in (0.6, 1.0, 1.7):
            state = preset_state("odd_cat", amp)
            value = w(state, 0.0, 0.0, 0.0)
            assert value == pytest.approx(-4.0 / math.pi**2, rel=1e-12, abs=0.0)
            direct = _w_complex_s(state, 0.0, 0.0, 0.0 + 0.0j)
            assert abs(direct.imag) < 1e-18
            assert value == pytest.approx(direct.real, rel=1e-12, abs=0.0)

    def test_matches_complex_evaluation(self, any_preset):
        state = preset_state(any_preset)
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = complex(*rng.uniform(-2, 2, 2))
            d = complex(*rng.uniform(-2, 2, 2))
            s = rng.uniform(-1.5, 0.6)
            paired = w(state, g, d, s)
            direct = _w_complex_s(state, g, d, complex(s, 0.0))
            assert abs(direct.imag) <= 1e-14 * abs(direct.real) + 1e-300
            assert paired == pytest.approx(direct.real, rel=1e-11, abs=1e-280)

    def test_conjugation_property_complex_s(self, any_preset):
        # [W at s]* equals W at s*, checked at 100 random points.
        state = preset_state(any_preset)
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = complex(*rng.uniform(-2, 2, 2))
            d = complex(*rng.uniform(-2, 2, 2))
            s = complex(rng.uniform(-1.0, 0.6), rng.uniform(-0.5, 0.5))
            lhs = _w_complex_s(state, g, d, s).conjugate()
            rhs = _w_complex_s(state, g, d, s.conjugate())
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_positive_for_antinormal_orderings(self, any_preset):
        state = preset_state(any_preset)
        gamma, delta = polar_grid()
        for s in (-1.0, -1.5):
            values = w(state, gamma, delta, s)
            assert np.min(values) >= -1e-12

    def test_odd_cat_negative_at_symmetric_ordering(self):
        state = preset_state("odd_cat")
        gamma, delta = polar_grid()
        assert np.min(w(state, gamma, delta, 0.0)) < 0.0

    def test_s_guard_band(self):
        state = preset_state("even_cat")
        with pytest.raises(DomainError):
            w(state, 0.0, 0.0, 1.0 - 1e-10)
        with pytest.raises(DomainError):
            w(state, 0.0, 0.0, 0.999999999)

    def test_overflow_is_diagnosed(self):
        state = make_preset("even_cat", 20.0, 20.0)
        with pytest.raises(OverflowError, match="interference exponent"):
            w(state, 0.0, 0.0, 1.0 - 1e-6)


class TestWSymmetrized:
    def test_even_cat_parity_symmetric(self):
        # For mu = nu the raw W is already parity even, so the
        # symmetrization changes nothing.
        state = preset_state("even_cat")
        for r_g, r_d, p, m in [(0.5, 1.0, 0.3, 2.0), (1.5, 0.2, 4.0, 1.1)]:
            phi_g = 0.5 * (p - m)
            phi_d = 0.5 * (p + m)
            direct = w(state, r_g * np.exp(1j * phi_g), r_d * np.exp(1j * phi_d), 0.0)
            expected = pytest.approx(direct, rel=1e-13, abs=0.0)
            assert w_symmetrized(state, r_g, r_d, p, m, 0.0) == expected

    def test_origin_reduces_to_w(self, any_preset):
        state = preset_state(any_preset)
        assert w_symmetrized(state, 0.0, 0.0, 1.0, 2.0, -0.5) == pytest.approx(
            w(state, 0.0, 0.0, -0.5), rel=1e-14, abs=0.0
        )

    def test_yurke_stoler_two_point_average(self):
        state = preset_state("yurke_stoler_plus")
        r, s = 1.0, -1.0
        phi_g = phi_d = 0.0  # phi_plus = phi_minus = 0
        g = r * np.exp(1j * phi_g)
        d = r * np.exp(1j * phi_d)
        expected = 0.5 * (w(state, g, d, s) + w(state, -g, -d, s))
        value = w_symmetrized(state, r, r, 0.0, 0.0, s)
        assert value == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_two_pi_periodic_in_both_angles(self, any_preset):
        state = preset_state(any_preset)
        rng = np.random.default_rng(23)
        for _ in range(20):
            r_g, r_d = rng.uniform(0, 3, 2)
            p, m = rng.uniform(0, 2 * math.pi, 2)
            base = w_symmetrized(state, r_g, r_d, p, m, 0.0)
            assert w_symmetrized(state, r_g, r_d, p + 2 * math.pi, m, 0.0) == pytest.approx(
                base, abs=1e-14, rel=1e-12
            )
            assert w_symmetrized(state, r_g, r_d, p, m + 2 * math.pi, 0.0) == pytest.approx(
                base, abs=1e-14, rel=1e-12
            )

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            w_symmetrized(preset_state("even_cat"), -0.1, 0.0, 0.0, 0.0, 0.0)


class TestNonFinitePoints:
    """A point, radius or angle that is not finite is a DomainError naming the argument."""

    STATE = make_preset("odd_cat", 1.0, 0.7)
    VALUES = [
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (np.array([[0.5, math.nan], [math.inf, 1.0]]), "nan"),
    ]

    @pytest.mark.parametrize("value,shown", VALUES + [(complex(0.3, math.inf), "infj")])
    @pytest.mark.parametrize(
        "call,named",
        [
            (lambda st, v: chi(st, v, 0.0, 0.0), "xi"),
            (lambda st, v: chi(st, 0.2, v, 0.3), "eta"),
            (lambda st, v: w(st, v, 0.1, 0.0), "gamma"),
            (lambda st, v: w(st, 0.1, v, -1.0), "delta"),
        ],
        ids=["chi-xi", "chi-eta", "w-gamma", "w-delta"],
    )
    def test_complex_point(self, call, named, value, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{named} must be finite, got .*{shown}"):
                call(self.STATE, value)

    @pytest.mark.parametrize("value,shown", VALUES)
    @pytest.mark.parametrize("named", ["r_gamma", "r_delta", "phi_plus", "phi_minus"])
    def test_w_symmetrized_coordinate(self, named, value, shown):
        coords = {"r_gamma": 1.0, "r_delta": 0.5, "phi_plus": 0.2, "phi_minus": -0.4}
        coords[named] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{named} must be finite, got {shown}$"):
                w_symmetrized(self.STATE, *coords.values(), 0.0)
