import cmath
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catphase import (
    DomainError,
    QuadratureSpec,
    QuasiBellState,
    TruncationPolicy,
    build_spectrum,
    chi,
    eval_phase_dist,
    fock_chi_oracle,
    fourier_coefficient,
    make_preset,
    normalization_constant,
    one_mode_coefficients,
    phase_mean_var,
    quadrature_normalization,
    quadrature_one_mode,
    quadrature_phase_dist,
    w,
    w_symmetrized,
)

from conftest import BOX_POINTS, BOX_STATES, preset_state


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


class TestScalarRoute:
    """A point of numbers runs in cmath, and an array call's entries are its points' calls."""

    STATE = make_preset("odd_cat", 1.0, 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(state=BOX_STATES, xi=BOX_POINTS, eta=BOX_POINTS, s=st.floats(-3.0, 3.0))
    def test_matches_a_one_element_array(self, state, xi, eta, s):
        got = chi(state, xi, eta, s)
        entry = chi(state, np.array([xi]), np.array([eta]), s)[0]
        assert type(got) is complex
        assert np.array([got]).tobytes() == np.array([entry]).tobytes()

    def test_numpy_scalars_take_the_scalar_route(self):
        xi, eta = np.float32(0.3), np.complex64(0.2 - 0.1j)
        got = chi(self.STATE, xi, eta, np.float64(0.4))
        assert type(got) is complex
        assert got == chi(self.STATE, float(xi), complex(eta), 0.4)

    @pytest.mark.parametrize(
        "xi,eta,s",
        [
            (True, 0.2, 0.0),
            (0.1, np.True_, 0.0),
            ("0.1", 0.2, 0.0),
            (0.1, None, 0.0),
            (math.nan, 0.2, 0.0),
            (0.1, complex(0.3, -math.inf), 0.0),
            (10**400, 0.2, 0.0),
            (0.1, -(10**400), 0.0),
            # A term past the float range: cmath's own OverflowError, near s = 1
            # and at s >= 1, is chi's.
            (2e6, 0, 0.999999),
            (1e200, 0, 1.0),
            (1e200, 0, 2.0),
            (30.0, 0, 3.0),
            (1.0, 0, 1e308),
            # An infinite phase (cmath's ValueError), and a modulus past the float range.
            (1e308j, 0, 1.0),
            (1e308j, 0, 2.0),
            (1.5e308 + 1.5e308j, 0, 1.0),
        ],
    )
    def test_refusals_match_a_one_element_array(self, xi, eta, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Exception) as scalar:
                chi(self.STATE, xi, eta, s)
            with pytest.raises(Exception) as array:
                chi(self.STATE, [xi], [eta], s)
        assert type(scalar.value) is type(array.value)
        assert str(scalar.value) == str(array.value)

    @pytest.mark.parametrize(
        "xi,eta,s",
        [(1e200, 0, 0.0), (1e154, 1e154j, -2.0), (0.3, 1e300, 0.9), (1.5e308 + 1.5e308j, 0, 0.3)],
    )
    def test_far_point_is_an_exact_zero_on_both_routes(self, xi, eta, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = chi(self.STATE, xi, eta, s)
            array = chi(self.STATE, [xi], [eta], s)
        assert type(got) is complex
        assert np.array([got]).tobytes() == array.tobytes() == np.array([0j]).tobytes()

    XI = np.array([[0.3 - 0.2j, 1e308j, 1.2], [0.0, -0.7j, 2e6]])
    ETA = np.array([0.1j, 0.0, -0.4 + 0.5j])

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.4, 1.0, 2.0])
    def test_broadcast_entries_are_the_scalar_calls(self, s):
        # A (2, 3) xi against a length-3 eta: each entry has its pair's bits, and
        # a refusal is that of the first pair in C order that refuses.
        calls = []
        for xi, eta in zip(self.XI.ravel().tolist(), np.tile(self.ETA, 2).tolist()):
            try:
                calls.append(chi(self.STATE, xi, eta, s))
            except OverflowError as exc:
                calls.append(exc)
        refusals = [c for c in calls if isinstance(c, Exception)]
        if refusals:
            with pytest.raises(OverflowError) as array:
                chi(self.STATE, self.XI, self.ETA, s)
            assert str(array.value) == str(refusals[0])
        else:
            got = chi(self.STATE, self.XI, self.ETA, s)
            assert got.shape == (2, 3) and got.dtype == complex
            assert got.tobytes() == np.array(calls).reshape(2, 3).tobytes()

    @pytest.mark.parametrize(
        "xi_shape,eta_shape,shape",
        [
            ((), (), ()),
            ((1, 1), (), (1, 1)),
            ((), (3,), (3,)),
            ((3,), (), (3,)),
            ((4,), (4,), (4,)),
            ((2, 1), (3,), (2, 3)),
            ((0,), (), (0,)),
            ((0,), (1,), (0,)),
        ],
    )
    def test_broadcast_shapes(self, xi_shape, eta_shape, shape):
        # A 0-d pair is a complex; any other shape is a complex array of the
        # broadcast shape, empty ones included, whose entries are the scalar calls.
        rng = np.random.default_rng(7)
        xi = (rng.normal(size=xi_shape) + 1j * rng.normal(size=xi_shape)).astype(complex)
        eta = (rng.normal(size=eta_shape) + 1j * rng.normal(size=eta_shape)).astype(complex)
        got = chi(self.STATE, xi, eta, 0.3)
        want = [
            chi(self.STATE, p, q, 0.3)
            for p, q in zip(
                np.broadcast_to(xi, shape).ravel().tolist(),
                np.broadcast_to(eta, shape).ravel().tolist(),
            )
        ]
        if shape == ():
            assert type(got) is complex
            assert np.array([got]).tobytes() == np.array(want).tobytes()
        else:
            assert type(got) is np.ndarray and got.dtype == complex and got.shape == shape
            assert got.tobytes() == np.array(want, complex).reshape(shape).tobytes()

    def test_shapes_that_do_not_broadcast_are_refused(self):
        with pytest.raises(ValueError, match="broadcast"):
            chi(self.STATE, np.zeros(2), np.zeros(3), 0.3)


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


class TestFarPoints:
    """Finite points so far out that |xi|^2 or |gamma|^2 passes the float range give exactly 0."""

    STATE = make_preset("odd_cat", 1.0, 1.0)

    def test_w_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert w(self.STATE, 1e154 + 1e154j, 0, -3.0) == 0.0
            assert w(self.STATE, 0.3, -1e200j, 0.5) == 0.0
            # |gamma|^2 fits a float but the exponent -2|gamma|^2/(1-s) does not.
            assert w(self.STATE, 1e154, 0, 0.9) == 0.0

    def test_chi_at_s_one_keeps_its_unit_gaussian(self):
        # At s = 1 the Gaussian factor is exactly 1 however far out xi is, and
        # a point on the imaginary axis leaves every term of unit size.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near = chi(self.STATE, 1e100j, 0, 1.0)
            far = chi(self.STATE, 1e200j, 0, 1.0)
            both = chi(self.STATE, np.array([1e100j, 1e200j]), 0, 1.0)
        assert near == pytest.approx(0.7048234890883932, rel=1e-12, abs=0.0)
        # With h = 0 every term has its weight as its magnitude.
        st = self.STATE
        weights = abs(st.mu) ** 2 + abs(st.nu) ** 2 + 2.0 * abs(st.weight_overlap) * math.exp(
            -2.0 * st.amplitude_sq_sum
        )
        assert abs(far) <= normalization_constant(st) ** 2 * weights
        assert both.tobytes() == np.array([near, far]).tobytes()

    @pytest.mark.parametrize(
        "xi,s",
        [(1e200, 1.0), (1e200, 2.0), (30.0, 3.0), (1.0, 1e308), (np.array([0.1, 30.0]), 3.0)],
    )
    def test_chi_past_the_float_range_at_s_one_or_above_is_overflow_error(self, xi, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shown = re.escape(repr(s))
            message = rf"^a term of chi passes the float range at xi = .*, eta = 0j, s = {shown}$"
            with pytest.raises(OverflowError, match=message):
                chi(self.STATE, xi, 0, s)

    @pytest.mark.parametrize("xi", [2e6, np.array([0.1, 2e6])])
    def test_chi_interference_past_the_float_range_below_s_one_is_overflow_error(self, xi):
        # e^(gauss + h - 2(|alpha|^2+|beta|^2)) passes the float range though
        # |xi|^2 does not: the same refusal as at s >= 1, not NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = (
                r"^a term of chi passes the float range at xi = \(2000000\+0j\), eta = 0j, "
                r"s = 0.999999$"
            )
            with pytest.raises(OverflowError, match=message):
                chi(self.STATE, xi, 0, 0.999999)

    @pytest.mark.parametrize("s", [0.999999, 1.0])
    def test_chi_with_zero_interference_weight_keeps_its_gaussian_terms(self, s):
        # mu nu* = 0: the interference terms weigh 0 and add an exact 0, however
        # far their exponent passes the float range.
        state = QuasiBellState(1.0, 1.0, 1.0, 0.0)
        xi, eta = 1e100 if s == 1.0 else 2e6, 0.5j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = chi(state, xi, eta, s)
            both = chi(state, np.array([xi, 0.3]), eta, s)
        gauss = -0.5 * (1.0 - s) * (abs(xi) ** 2 + abs(eta) ** 2)
        phase = 2j * ((xi * state.alpha.conjugate()).imag + (eta * state.beta.conjugate()).imag)
        assert got == pytest.approx(cmath.exp(gauss + phase), rel=1e-12, abs=0.0)
        assert both[0] == got

    def test_chi_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi(self.STATE, 1e200, 0, 0.0) == 0j
            assert chi(self.STATE, 1e154, 1e154j, -2.0) == 0j

    def test_near_points_in_the_same_array_keep_their_bits(self):
        near = np.array([[0.5 - 0.2j, 1.1j], [-0.7, 0.0]])
        far = near.copy()
        far[0, 1] = 1e154 + 1e154j
        for evaluate in (w, chi):
            got = evaluate(self.STATE, far, 0.3, 0.2)
            want = evaluate(self.STATE, near, 0.3, 0.2)
            assert got[0, 1] == 0.0
            got[0, 1] = want[0, 1]
            assert got.tobytes() == want.tobytes()


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



class TestNonNumberArguments:
    """A bool, a string, or a complex where a real is due, is a DomainError naming the argument."""

    STATE = make_preset("odd_cat", 1.0, 0.7)
    PAIR = build_spectrum(STATE, 0.3, "plus")
    ONE_MODE = one_mode_coefficients(STATE, 0.3, 2)
    NOT_REAL = [True, False, np.True_, "1", "0.5", 0.5 + 0j, np.complex128(1.0), None]
    # Not a numbers.Real, though NumPy would read either as an array of one float.
    NOT_SCALAR = [np.array(0.25), Decimal("0.25")]
    # A list or tuple that mixes a bool with numbers, which NumPy reads as numbers.
    MIXED = [[True, 0.5], (0.5, np.True_), [[0.5, 1.0], [False, 2.0]]]
    NOT_REAL_ARRAYS = [[True, False], np.array(["1", "2"]), np.array([0.5 + 1j]), [0.5, None]]
    NOT_COMPLEX = [True, np.True_, "1", [True, False], np.array(["1j"]), [0.5j, None]]

    REAL_SCALARS = {
        "build_spectrum-s": ("s", lambda st, v: build_spectrum(st, v, "plus")),
        "one_mode_coefficients-s": ("s", lambda st, v: one_mode_coefficients(st, v, 1)),
        "fourier_coefficient-s": ("s", lambda st, v: fourier_coefficient(st, v, 2, "minus")),
        "chi-s": ("s", lambda st, v: chi(st, 0.1, 0.2, v)),
        "w-s": ("s", lambda st, v: w(st, 0.1, 0.2, v)),
        "w_symmetrized-s": ("s", lambda st, v: w_symmetrized(st, 0.5, 0.5, 0.1, 0.2, v)),
        "quadrature_one_mode-s": ("s", lambda st, v: quadrature_one_mode(st, v, 1, 0.5)),
        "quadrature_phase_dist-s": ("s", lambda st, v: quadrature_phase_dist(st, v, "plus", 0.5)),
        "quadrature_normalization-s": ("s", lambda st, v: quadrature_normalization(st, v)),
        "fock_chi_oracle-s": ("s", lambda st, v: fock_chi_oracle(st, 0.1, 0.2, v)),
        "phase_mean_var-phi0": (
            "phi0", lambda st, v: phase_mean_var(TestNonNumberArguments.PAIR, v)
        ),
        "TruncationPolicy-eps_tail": ("eps_tail", lambda st, v: TruncationPolicy(eps_tail=v)),
        "QuadratureSpec-radial_cutoff_sigma": (
            "radial_cutoff_sigma", lambda st, v: QuadratureSpec(radial_cutoff_sigma=v)
        ),
    }
    REAL_ARRAYS = {
        "eval_phase_dist-phi": (
            "phi", lambda st, v: eval_phase_dist(TestNonNumberArguments.PAIR, v)
        ),
        "eval_one_mode_dist-phi": (
            "phi", lambda st, v: eval_phase_dist(TestNonNumberArguments.ONE_MODE, v)
        ),
        "quadrature_phase_dist-phi": (
            "phi", lambda st, v: quadrature_phase_dist(st, 0.0, "minus", v)
        ),
        "quadrature_one_mode-phi": ("phi", lambda st, v: quadrature_one_mode(st, 0.0, 2, v)),
        "w_symmetrized-r_gamma": (
            "r_gamma", lambda st, v: w_symmetrized(st, v, 0.5, 0.1, 0.2, 0.0)
        ),
        "w_symmetrized-phi_minus": (
            "phi_minus", lambda st, v: w_symmetrized(st, 0.5, 0.5, 0.1, v, 0.0)
        ),
    }
    COMPLEX_ARRAYS = {
        "w-gamma": ("gamma", lambda st, v: w(st, v, 0.2, 0.0)),
        "w-delta": ("delta", lambda st, v: w(st, 0.1, v, 0.0)),
        "chi-xi": ("xi", lambda st, v: chi(st, v, 0.2, 0.0)),
        "chi-eta": ("eta", lambda st, v: chi(st, 0.1, v, 0.0)),
    }
    COMPLEX_SCALARS = {
        "fock_chi_oracle-xi": ("xi", lambda st, v: fock_chi_oracle(st, v, 0.2, 0.0)),
        "fock_chi_oracle-eta": ("eta", lambda st, v: fock_chi_oracle(st, 0.1, v, 0.0)),
    }

    def _refused(self, call, named, values, kind):
        for value in values:
            with pytest.raises(DomainError, match=f"^{named} must be {kind} and not a bool, got "):
                call(self.STATE, value)

    @pytest.mark.parametrize("named, call", REAL_SCALARS.values(), ids=REAL_SCALARS.keys())
    def test_real_scalar(self, named, call):
        self._refused(call, named, self.NOT_REAL + self.NOT_SCALAR, "a real number")
        call(self.STATE, np.float32(0.25))  # any real number type is taken

    @pytest.mark.parametrize("named, call", REAL_SCALARS.values(), ids=REAL_SCALARS.keys())
    def test_real_scalar_past_float_range(self, named, call):
        # float() of an int or a Fraction past the float range raises a bare OverflowError.
        for value in (10**400, -(10**400), Fraction(10**400, 3)):
            with pytest.raises(DomainError, match=f"^{named} is past the float range$"):
                call(self.STATE, value)

    @pytest.mark.parametrize("named, call", REAL_ARRAYS.values(), ids=REAL_ARRAYS.keys())
    def test_real_array(self, named, call):
        refused = self.NOT_REAL + self.NOT_REAL_ARRAYS + self.MIXED
        self._refused(call, named, refused, "a real number")
        call(self.STATE, np.array([0.25, 1], dtype=object))
        call(self.STATE, [0.25, 1])

    @pytest.mark.parametrize("named, call", COMPLEX_ARRAYS.values(), ids=COMPLEX_ARRAYS.keys())
    def test_complex_array(self, named, call):
        self._refused(call, named, self.NOT_COMPLEX + self.MIXED, "a number")
        call(self.STATE, np.array([0.25j, 1], dtype=object))
        call(self.STATE, (0.25j, 1))

    @pytest.mark.parametrize("named, call", COMPLEX_SCALARS.values(), ids=COMPLEX_SCALARS.keys())
    def test_complex_scalar(self, named, call):
        self._refused(call, named, self.NOT_COMPLEX + ["0.3j", np.str_("1")], "a number")
        call(self.STATE, np.complex64(0.25j))  # any number type is taken
