import cmath
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catphase import (
    CutoffTooSmallError,
    DomainError,
    QuadratureSpec,
    QuasiBellState,
    build_spectrum,
    chi,
    eval_one_mode_dist,
    fock_chi_oracle,
    i_n_combo,
    make_preset,
    normalization_constant,
    one_mode_coefficients,
    quadrature_normalization,
    quadrature_one_mode,
    quadrature_phase_dist,
    w,
    w_symmetrized,
)

from catphase.oracle import (
    _angular_rule,
    _checked_rules,
    _coherent_columns,
    _combine,
    _factors,
    _fock_tables,
    _laguerre_triangles,
    _legendre_rule,
    _mode_sums,
    _overlaps,
    _poisson_tail,
    _radial_rule,
)
from catphase.states import _unit_weights

from conftest import PRESETS, preset_state

TWO_PI = 2.0 * math.pi


def _weights(kind):
    from catphase import PRESET_WEIGHTS

    return PRESET_WEIGHTS[kind]


class TestQuadraturePhaseDist:
    def test_vacuum_is_uniform(self):
        state = make_preset("even_cat", 0.0, 0.0)
        for phi in (0.0, 1.0, 2.5):
            assert quadrature_phase_dist(state, 0.0, "minus", phi) == pytest.approx(
                1.0 / TWO_PI, abs=1e-10
            )

    def test_vectorized_matches_scalar(self):
        state = preset_state("even_cat")
        phis = np.array([0.0, 0.7, 3.0])
        batch = quadrature_phase_dist(state, 0.0, "plus", phis)
        assert batch.shape == (3,)
        for k, phi in enumerate(phis):
            assert batch[k] == quadrature_phase_dist(state, 0.0, "plus", float(phi))

    def test_any_shape_matches_flat(self):
        state = preset_state("odd_cat")
        phis = np.array([0.0, 0.7, 3.0, -1.2, 2.2, 5.9])
        grid = quadrature_phase_dist(state, 0.4, "minus", phis.reshape(2, 3))
        assert grid.shape == (2, 3)
        flat = quadrature_phase_dist(state, 0.4, "minus", phis)
        assert np.array_equal(grid.ravel(), flat)

    def test_s_guard(self):
        with pytest.raises(DomainError):
            quadrature_phase_dist(preset_state("even_cat"), 0.999999999, "minus", 0.0)

    def test_branch_name_checked(self):
        with pytest.raises(DomainError):
            quadrature_phase_dist(preset_state("even_cat"), 0.0, "sum", 0.0)


class TestQuadratureNormalization:
    def test_coherent_state(self):
        state = QuasiBellState(1.0, 0.5 + 0.5j, 1.0, 0.0)
        assert quadrature_normalization(state, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_presets(self, any_preset):
        state = preset_state(any_preset)
        for s in (-1.0, 0.4):
            assert quadrature_normalization(state, s) == pytest.approx(1.0, abs=1e-6)

    def test_doubling_is_converged(self):
        # Doubling both node counts moves the result by far less than 1e-8.
        state = preset_state("odd_cat")
        base = quadrature_normalization(state, 0.0)
        fine = quadrature_normalization(
            state, 0.0, QuadratureSpec(n_radial=80, n_angular=128)
        )
        assert abs(base - fine) < 1e-8

    def test_s_guard(self):
        with pytest.raises(DomainError):
            quadrature_normalization(preset_state("even_cat"), 0.999999999)


class TestQuadratureOneMode:
    def test_zero_amplitude_uniform(self):
        state = QuasiBellState(0.0, 1.0, 1.0 / math.sqrt(2), 1.0 / math.sqrt(2))
        assert quadrature_one_mode(state, 0.0, 1, 0.77) == pytest.approx(
            1.0 / TWO_PI, abs=1e-10
        )

    def test_coherent_state_matches_series(self):
        state = QuasiBellState(1.0, 0.3, 1.0, 0.0)
        spectrum = one_mode_coefficients(state, -1.0, 1)
        phi = spectrum.phi_ref
        assert quadrature_one_mode(state, -1.0, 1, phi) == pytest.approx(
            eval_one_mode_dist(spectrum, phi), abs=1e-6
        )

    def test_yurke_stoler_asymmetry_reproduced(self):
        state = preset_state("yurke_stoler_plus")
        spectrum = one_mode_coefficients(state, 0.0, 1)
        pair = spectrum.phi_ref + np.array([math.pi / 4, -math.pi / 4])
        quad = quadrature_one_mode(state, 0.0, 1, pair)
        analytic = eval_one_mode_dist(spectrum, pair)
        assert np.max(np.abs(quad - analytic)) < 1e-6
        assert abs(quad[0] - quad[1]) > 1e-3

    def test_vectorized_matches_scalar(self):
        state = preset_state("yurke_stoler_minus")
        phis = np.array([0.0, 0.7, 3.0])
        for mode in (1, 2):
            batch = quadrature_one_mode(state, 0.4, mode, phis)
            for k, phi in enumerate(phis):
                assert batch[k] == quadrature_one_mode(state, 0.4, mode, float(phi))

    def test_bad_mode(self):
        for mode in (0, True, 1.0, "1"):
            with pytest.raises(DomainError, match="mode must be 1 or 2"):
                quadrature_one_mode(preset_state("even_cat"), 0.0, mode, 0.0)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(n_radial=8)
        with pytest.raises(ValueError):
            QuadratureSpec(n_angular=16)
        with pytest.raises(ValueError):
            QuadratureSpec(radial_cutoff_sigma=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [("n_angular", 40.5), ("n_radial", 16.5), ("n_radial", True), ("n_angular", 64.0)],
    )
    def test_node_counts_must_be_integers(self, field, value):
        # n_angular = 40.5 gave a normalization of 1.0248; n_radial = 16.5 a bare TypeError.
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            QuadratureSpec(**{field: value})

    def test_numpy_node_counts_are_stored_as_int(self):
        spec = QuadratureSpec(n_radial=np.int64(16), n_angular=np.int64(32))
        assert (type(spec.n_radial), type(spec.n_angular)) == (int, int)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_radial_cutoff_must_be_finite(self, sigma):
        # An infinite cutoff made every quadrature node sum nan.
        with pytest.raises(ValueError, match="radial_cutoff_sigma"):
            QuadratureSpec(radial_cutoff_sigma=sigma)

    def test_integrand_non_negative_for_antinormal(self, any_preset):
        # W_sym >= 0 at s = -1 on the nodes the oracle integrates: the
        # Gauss-Legendre radii of _radial_rule and the uniform angles of _angular_rule.
        state = preset_state(any_preset)
        spec = QuadratureSpec()
        r, _ = _radial_rule(state, -1.0, spec)
        ang, _ = _angular_rule(spec)
        values = w_symmetrized(
            state,
            r[:, None, None, None],
            r[None, :, None, None],
            ang[None, None, :, None],
            ang[None, None, None, :],
            -1.0,
        )
        assert float(np.min(values)) >= -1e-12


# The four presets plus a state whose Im(mu nu*) is not zero.
SEPARABLE_STATES = [preset_state(kind) for kind in PRESETS] + [
    QuasiBellState(0.9 + 0.4j, -0.7 + 1.1j, 0.6, 0.8 * np.exp(0.7j))
]
SEPARABLE_IDS = list(PRESETS) + ["complex_weights"]


@pytest.mark.parametrize("s", [-1.0, 0.0, 0.4])
@pytest.mark.parametrize("state", SEPARABLE_STATES, ids=SEPARABLE_IDS)
class TestSeparableIntegrand:
    """Per-mode factors rebuild W and W_sym at every node of the default grid.

    One slab per radial node of gamma, with axes (angle of gamma or phi_plus,
    radius of delta, angle of delta or phi_minus).
    """

    @staticmethod
    def _grid(state, s):
        spec = QuadratureSpec()
        return _radial_rule(state, s, spec)[0], _angular_rule(spec)[0]

    @staticmethod
    def _assert_close(pairs):
        peak = max(float(np.max(np.abs(ref))) for _, ref in pairs)
        dev = max(float(np.max(np.abs(fast - ref))) for fast, ref in pairs)
        assert dev <= 1e-13 * peak

    def test_w(self, state, s):
        # Both angles on the angular nodes: the one-mode grid of either mode.
        r, a = self._grid(state, s)
        g, d = _factors(state, s, r, a, a)
        d = [x.T[None] for x in d]
        delta = (r[:, None] * np.exp(1j * a))[None]
        pairs = []
        for k in range(r.size):
            g_k = [x[:, k, None, None] for x in g]
            gamma = r[k] * np.exp(1j * a)[:, None, None]
            pairs.append((_combine(state, g_k, d, False), w(state, gamma, delta, s)))
        self._assert_close(pairs)

    def test_w_symmetrized(self, state, s):
        # phi_plus and phi_minus on the angular nodes: the normalization grid,
        # and the grid of either pair branch at phases on the nodes.
        r, a = self._grid(state, s)
        g, d = _factors(state, s, r, 0.5 * (a[:, None] - a), 0.5 * (a[:, None] + a))
        d = [np.moveaxis(x, 2, 1) for x in d]
        pairs = []
        for k in range(r.size):
            g_k = [x[:, None, :, k] for x in g]
            ref = w_symmetrized(state, r[k], r[:, None], a[:, None, None], a, s)
            pairs.append((_combine(state, g_k, d, True), ref))
        self._assert_close(pairs)


# Random states in the validated box: any amplitude phases, renormalized
# complex weights, |alpha|, |beta| <= sqrt(3).
_BOX_AMPLITUDES = st.builds(
    cmath.rect, st.floats(0.0, math.sqrt(3.0)), st.floats(-math.pi, math.pi)
)
_ANY_WEIGHT = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_RANDOM_STATES = st.builds(
    lambda alpha, beta, mu, nu: QuasiBellState(alpha, beta, *_unit_weights(mu, nu)),
    _BOX_AMPLITUDES,
    _BOX_AMPLITUDES,
    _ANY_WEIGHT.filter(lambda z: abs(z) > 1e-3),
    _ANY_WEIGHT,
)
_BOX_POINTS = st.builds(cmath.rect, st.floats(0.0, 2.0), st.floats(-math.pi, math.pi))


class TestRandomStates:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(state=_RANDOM_STATES, xi=_BOX_POINTS, eta=_BOX_POINTS, s=st.floats(-1.0, 0.4))
    def test_fock_trace_matches_chi(self, state, xi, eta, s):
        # |xi|, |eta| <= 2 and s in [-1, 0.4], as in validate.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traced = fock_chi_oracle(state, xi, eta, s, n_cut=40)
            assert abs(traced.value - chi(state, xi, eta, s)) < 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(state=_RANDOM_STATES, s=st.floats(-1.0, 0.97))
    def test_factors_rebuild_w(self, state, s):
        # Both angles on the angular nodes, gamma on axes 0-1 and delta on axes 2-3.
        spec = QuadratureSpec(n_radial=16, n_angular=32)
        r, a = _radial_rule(state, s, spec)[0], _angular_rule(spec)[0]
        z = np.exp(1j * a)[:, None] * r
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, d = _factors(state, s, r, a, a)
            fast = _combine(state, [x[:, :, None, None] for x in g], d, False)
            ref = w(state, z[:, :, None, None], z, s)
        assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))


def _joint_terms(state, s, k_a, k_b):
    """The Gaussian and interference terms of C(k_a, k_b), as in the phasedist docstring."""

    def comb(k, x, branch):
        if k == 0:
            return math.sqrt(2.0 / math.pi)
        sign, log_mag = i_n_combo(abs(k), x, branch)
        return sign * math.exp(log_mag)

    def f(k):
        return (-1) ** k if k > 0 else 1

    x_a, x_b = abs(state.alpha) ** 2 / (1.0 - s), abs(state.beta) ** 2 / (1.0 - s)
    scale = normalization_constant(state) ** 2 * math.pi / 2.0
    cross = state.mu * state.nu.conjugate()
    weight = abs(state.mu) ** 2 + (-1) ** (k_a + k_b) * abs(state.nu) ** 2
    gauss = scale * weight * comb(k_a, x_a, "plus") * comb(k_b, x_b, "plus")
    mix = cross * f(k_a) * f(k_b) + cross.conjugate() * f(-k_a) * f(-k_b)
    interf = scale * math.exp(-2.0 * state.amplitude_sq_sum) * mix
    return gauss, interf * comb(k_a, x_a, "minus") * comb(k_b, x_b, "minus")


_JOINT_K = 40  # |k_a|, |k_b| <= 40 in the joint series


class TestJointCoefficients:
    """C(k_a, k_b) of the phasedist docstring, against the quadrature joint density and the lines."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        state=_RANDOM_STATES,
        s=st.floats(-1.0, 0.4),
        phis=st.lists(
            st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_joint_series_matches_quadrature_and_lines(self, state, s, phis):
        k = range(-_JOINT_K, _JOINT_K + 1)
        table = np.array([[sum(_joint_terms(state, s, k_a, k_b)) for k_b in k] for k_a in k])
        phi_a, phi_b = np.array(phis).T
        phase_a = np.exp(1j * np.outer(phi_a - cmath.phase(state.alpha), k))
        phase_b = np.exp(1j * np.outer(phi_b - cmath.phase(state.beta), k))
        series = np.einsum("pi,ij,pj->p", phase_a, table, phase_b).real / (4.0 * math.pi**2)
        r_nodes, r_weights, _, _ = _checked_rules(state, s, QuadratureSpec(), False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = _mode_sums(state, s, r_nodes, r_weights, phi_a, phi_b)
            joint = _combine(state, *sums, False)
        assert np.max(np.abs(series - joint)) < 1e-6

        # Each line (p, q) is the row C(pn, qn), a_n = c_n - i d_n.
        lines = {"plus": (1, 1), "minus": (-1, 1), 1: (1, 0), 2: (0, 1)}
        for line, (p, q) in lines.items():
            if line in (1, 2):
                spectrum = one_mode_coefficients(state, s, line)
                sines = spectrum.sin_coeffs
            else:
                spectrum = build_spectrum(state, s, line)
                sines = [0.0] * spectrum.n_used
            for n, c_n, d_n in zip(range(1, spectrum.n_used + 1), spectrum.cos_coeffs, sines):
                gauss, interf = _joint_terms(state, s, p * n, q * n)
                # Relative to the two terms: where they cancel, C's own rounding
                # in plain floats is relative to them, not to their sum.
                bound = 1e-13 * (abs(gauss) + abs(interf))
                assert abs(complex(c_n, -d_n) - (gauss + interf)) <= bound, (line, n)


class TestAgainstBruteForce:
    """The separable oracles against a direct four-variable node sum at 16 x 32."""

    SPEC = QuadratureSpec(n_radial=16, n_angular=32)
    PHIS = np.linspace(-1.0, 7.0, 16)

    def _brute_force(self, state, s, values):
        """Node sum of r1 r2 values(r1, r2, angle) over both radii and the angle.

        values gets r1, r2 and the angle on axes 0, 1 and 3, and puts the
        fixed angles on axis 2.
        """
        r, r_w = _radial_rule(state, s, self.SPEC)
        a, a_w = _angular_rule(self.SPEC)
        integrand = values(r[:, None, None, None], r[None, :, None, None], a)
        return a_w * np.einsum("rspa,r,s->p", integrand, r * r_w, r * r_w)

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.4])
    @pytest.mark.parametrize("state", SEPARABLE_STATES, ids=SEPARABLE_IDS)
    def test_all_three_oracles(self, state, s):
        phis = self.PHIS[:, None]
        for branch in ("plus", "minus"):

            def values(r1, r2, a, plus=branch == "plus"):
                if plus:
                    return w_symmetrized(state, r1, r2, phis, a, s)
                return w_symmetrized(state, r1, r2, a, phis, s)

            got = quadrature_phase_dist(state, s, branch, self.PHIS, self.SPEC)
            assert np.max(np.abs(got - self._brute_force(state, s, values))) <= 1e-14

        for mode in (1, 2):

            def values(r1, r2, a, first=mode == 1):
                own, other = r1 * np.exp(1j * phis), r2 * np.exp(1j * a)
                return w(state, own, other, s) if first else w(state, other, own, s)

            got = quadrature_one_mode(state, s, mode, self.PHIS, self.SPEC)
            assert np.max(np.abs(got - self._brute_force(state, s, values))) <= 1e-14

        nodes, a_w = _angular_rule(self.SPEC)
        by_plus = self._brute_force(
            state, s, lambda r1, r2, a: w_symmetrized(state, r1, r2, nodes[:, None], a, s)
        )
        got = quadrature_normalization(state, s, self.SPEC)
        assert abs(got - a_w * float(np.sum(by_plus))) <= 1e-14

    @pytest.mark.parametrize(
        "state, s, sigma",
        [
            (make_preset("even_cat", 1.0, 1.0), 699.0 / 703.0, 8.0),
            (QuasiBellState(3.0, 0.0, 0.6, 0.8j), 0.97488, 8.0),
            (QuasiBellState(0.0, 3.0, 0.6, 0.8j), 0.97488, 8.0),
            # A wide cutoff moves the innermost node out, so one mode's own
            # exponent passes e^709 while the pair's stays below 700.
            (QuasiBellState(1.95, 0.0, 0.6, 0.8), 0.99, 1000.0),
        ],
    )
    def test_finite_next_to_the_refusal(self, state, s, sigma):
        # The interference exponent at the innermost node pair is just below
        # 700: W is huge but finite there, and so are the separable sums.
        spec = QuadratureSpec(n_radial=16, n_angular=32, radial_cutoff_sigma=sigma)
        quad = [
            quadrature_phase_dist(state, s, "plus", self.PHIS, spec),
            quadrature_phase_dist(state, s, "minus", self.PHIS, spec),
            quadrature_one_mode(state, s, 1, self.PHIS, spec),
            quadrature_one_mode(state, s, 2, self.PHIS, spec),
            quadrature_normalization(state, s, spec),
        ]
        assert all(np.all(np.isfinite(q)) for q in quad)


class TestRefusalParity:
    """Each quadrature oracle refuses where the four-variable W grid overflows."""

    STATE = make_preset("even_cat", 3.0, 3.0)
    MESSAGE = (
        "interference exponent 2(s(|alpha|^2+|beta|^2) - r^2)/(1-s) = 3564 exceeds 700 "
        "(s = 0.99, |alpha|^2+|beta|^2 = 18.0); the quasi-probability is out of float "
        "range in this parameter region"
    )

    @pytest.mark.parametrize(
        "call",
        [
            lambda st: quadrature_phase_dist(st, 0.99, "plus", 0.3),
            lambda st: quadrature_phase_dist(st, 0.99, "minus", np.array([0.3, 1.0])),
            lambda st: quadrature_one_mode(st, 0.99, 1, 0.3),
            lambda st: quadrature_one_mode(st, 0.99, 2, 0.3),
            lambda st: quadrature_normalization(st, 0.99),
        ],
        ids=["plus", "minus", "mode1", "mode2", "normalization"],
    )
    def test_same_overflow_message(self, call):
        with pytest.raises(OverflowError) as info:
            call(self.STATE)
        assert str(info.value) == self.MESSAGE

    # (pi (1-s))^2 passes the float range from s = -4.3e153, (1-s)^2 in W
    # itself from s = -1.4e154.
    @pytest.mark.parametrize("s", [-4.3e153, -1e156])
    @pytest.mark.parametrize(
        "call",
        [
            lambda st, s: quadrature_phase_dist(st, s, "plus", 0.3),
            lambda st, s: quadrature_one_mode(st, s, 1, np.array([0.3, 1.0])),
            lambda st, s: quadrature_normalization(st, s),
        ],
        ids=["phase-dist", "one-mode", "normalization"],
    )
    def test_huge_negative_s_is_domain_error_naming_s(self, call, s):
        with pytest.raises(DomainError, match=f"^s = {re.escape(repr(s))} is too far below 0: "):
            call(preset_state("odd_cat"), s)

    def test_just_above_the_refusal_still_normalizes(self):
        assert quadrature_normalization(preset_state("odd_cat"), -4e153) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "phi,shown",
        [
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
            (np.array([[0.3, math.nan], [math.inf, 1.0]]), "nan"),
        ],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda st, phi: quadrature_phase_dist(st, 0.0, "plus", phi),
            lambda st, phi: quadrature_phase_dist(st, 0.0, "minus", phi),
            lambda st, phi: quadrature_one_mode(st, 0.0, 1, phi),
            lambda st, phi: quadrature_one_mode(st, 0.0, 2, phi),
        ],
        ids=["plus", "minus", "mode1", "mode2"],
    )
    def test_non_finite_phi_is_domain_error(self, call, phi, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^phi must be finite, got {shown}$"):
                call(preset_state("odd_cat"), phi)

    def test_w_names_s_past_float_range(self):
        with pytest.raises(DomainError, match=r"^s = -1e\+156 is too far below 0: "):
            w(preset_state("odd_cat"), 0.1, 0.2, -1e156)


class TestWideCutoff:
    """A cutoff whose radius R squares past the float range is refused."""

    STATE = make_preset("even_cat", 1.0, 1.0)
    CALLS = [
        lambda st, spec: quadrature_phase_dist(st, 0.0, "plus", 0.3, spec),
        lambda st, spec: quadrature_one_mode(st, 0.0, 1, 0.3, spec),
        lambda st, spec: quadrature_normalization(st, 0.0, spec),
    ]
    IDS = ["phase_dist", "one_mode", "normalization"]

    @pytest.mark.parametrize("sigma", [1e155, 1e300])
    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_refused(self, call, sigma):
        # R ~ 7e154 at sigma = 1e155: R^2 and r w are inf, and 0 * inf made
        # every oracle return NaN.
        spec = QuadratureSpec(n_radial=16, n_angular=32, radial_cutoff_sigma=sigma)
        with pytest.raises(DomainError, match="radial_cutoff_sigma"):
            call(self.STATE, spec)

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_finite_below_the_refusal(self, call):
        spec = QuadratureSpec(n_radial=16, n_angular=32, radial_cutoff_sigma=1e150)
        assert call(self.STATE, spec) == 0.0


class TestFockChiOracle:
    def test_trace_of_rho_at_origin(self, any_preset):
        state = preset_state(any_preset)
        result = fock_chi_oracle(state, 0.0, 0.0, 0.0, n_cut=30)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_symmetric_order(self):
        state = make_preset("even_cat", 0.0, 0.0)
        result = fock_chi_oracle(state, 1.0, 0.0, 0.0, n_cut=20)
        assert result.value == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_matches_closed_form(self):
        state = preset_state("even_cat")
        for xi, eta, s in [
            (0.7 + 0.2j, -0.3j, 0.0),
            (1.5, 0.4 - 1.0j, -1.0),
            (0.2j, 1.9, 0.5),
        ]:
            closed = chi(state, xi, eta, s)
            traced = fock_chi_oracle(state, xi, eta, s, n_cut=40)
            assert abs(closed - traced.value) < 1e-8
            assert traced.bound < 1e-6

    def test_matches_closed_form_at_large_amplitudes(self):
        # Amplitudes at the top of the working range, |alpha|, |beta| <= 2.
        state = QuasiBellState(2.0, 1.7j, *_weights("odd_cat"))
        for xi, eta, s in [(1.9, -2.0j, 0.0), (1.2 + 1.2j, 0.5, 0.5)]:
            closed = chi(state, xi, eta, s)
            traced = fock_chi_oracle(state, xi, eta, s, n_cut=40)
            assert abs(closed - traced.value) < 1e-8

    def test_bound_decreases_with_cutoff(self):
        state = preset_state("even_cat", 1.4)
        bounds = [
            fock_chi_oracle(state, 0.5, 0.5, 0.0, n_cut=n).bound for n in (25, 30, 40, 60)
        ]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_cutoff_too_small(self):
        state = preset_state("even_cat", 2.0)
        with pytest.raises(CutoffTooSmallError):
            fock_chi_oracle(state, 0.5, 0.5, 0.0, n_cut=6)

    def test_bad_cutoff(self):
        with pytest.raises(DomainError):
            fock_chi_oracle(preset_state("even_cat"), 0.1, 0.1, 0.0, n_cut=0)
        with pytest.raises(DomainError, match="n_cut"):
            fock_chi_oracle(preset_state("even_cat"), 0.1, 0.1, 0.0, n_cut=True)

    @pytest.mark.parametrize(
        "xi,eta",
        [(math.nan, 0.3), (math.inf, 0.3), (1e200, 0.3), (1e100, 0.3), (0.3, 1e100),
         (0.3, complex(0.0, math.nan))],
    )
    def test_unusable_displacement_is_domain_error(self, xi, eta):
        # Even cat at |alpha| = |beta| = 1, s = 0: a NaN or non-finite |xi|^2
        # is refused up front; at xi = 1e100 the number-basis recurrence
        # passes the float range and the trace is NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="xi"):
                fock_chi_oracle(preset_state("even_cat"), xi, eta, 0.0)

    def test_nan_bound_fails_closed(self, monkeypatch):
        monkeypatch.setattr("catphase.oracle._poisson_tail", lambda mean, n_cut: math.nan)
        with pytest.raises(CutoffTooSmallError, match="bound nan"):
            fock_chi_oracle(preset_state("even_cat"), 0.5, 0.5, 0.0)

    def test_numpy_integer_cutoff(self):
        state = preset_state("even_cat")
        numpy_cut = fock_chi_oracle(state, 0.5, 0.5, 0.0, n_cut=np.int64(40))
        assert numpy_cut == fock_chi_oracle(state, 0.5, 0.5, 0.0, n_cut=40)

    @pytest.mark.parametrize("xi,eta,s", [(40.0, 0.0, 1.0), (0.0, 30j, 2.0), (30.0, 30.0, 0.9)])
    def test_ordering_factor_past_float_range_is_domain_error(self, xi, eta, s):
        # exp(s(|xi|^2+|eta|^2)/2) overflows; the message names xi, eta and s.
        with pytest.raises(DomainError, match=r"xi=.*eta=.*s="):
            fock_chi_oracle(preset_state("even_cat"), xi, eta, s)


def _mp_displacement(xi: complex, n_cut: int) -> np.ndarray:
    """D(xi) in the number basis from the explicit Laguerre sum, in mpmath.

    Lower triangle from <m|D|n> = sqrt(n!/m!) xi^(m-n) e^(-|xi|^2/2)
    L_n^(m-n)(|xi|^2), upper triangle from D(xi)^dagger = D(-xi).
    """
    z = mpmath.mpc(xi.real, xi.imag)
    x = abs(z) ** 2
    powers = [x**i / mpmath.factorial(i) for i in range(n_cut + 1)]
    out = np.empty((n_cut + 1, n_cut + 1), dtype=complex)
    for m in range(n_cut + 1):
        for n in range(m + 1):
            laguerre = mpmath.fsum(
                (-1) ** i * math.comb(m, n - i) * powers[i] for i in range(n + 1)
            )
            mag = (
                mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m))
                * mpmath.exp(-x / 2)
                * laguerre
            )
            out[m, n] = complex(mag * z ** (m - n))
            out[n, m] = complex(mag * (-mpmath.conj(z)) ** (m - n))
    return out


def _rebuilt_displacement(xi: complex, m: np.ndarray) -> np.ndarray:
    """D(xi) from its real lower triangle M: D = E (M + P S^T P) E*, S the strict lower part."""
    k = np.arange(m.shape[0])
    sign = np.where(k % 2, -1.0, 1.0)
    turn = np.exp(1j * np.angle(xi) * k)
    strict = np.tril(m, -1)
    return turn[:, None] * (m + sign[:, None] * strict.T * sign) * turn.conj()


def _mp_overlap(a: complex, b: complex, xi: complex) -> complex:
    """<a|D(xi)|b> for coherent states, in mpmath: D(xi)|b> = e^((xi b* - xi* b)/2) |b + xi>."""
    a, b, xi = (mpmath.mpc(z.real, z.imag) for z in (a, b, xi))
    c = b + xi
    return complex(
        mpmath.exp(
            (xi * mpmath.conj(b) - mpmath.conj(xi) * b) / 2
            - abs(a) ** 2 / 2
            - abs(c) ** 2 / 2
            + mpmath.conj(a) * c
        )
    )


_RNG_PAIR = tuple(complex(*v) for v in np.random.default_rng(15).normal(size=(2, 2)))


class TestFockPieces:
    @pytest.mark.parametrize("xi", [0.05j, 0.7 + 0.2j, -1.2 + 0.9j, 2.0j, 2.8])
    def test_displacement_matrix_matches_mpmath(self, xi):
        # D rebuilt from the triangle M, element by element.
        n_cut = 60
        with mpmath.workdps(30):
            ref = _mp_displacement(xi, n_cut)
        (m,) = _laguerre_triangles((xi,), n_cut)
        assert np.all(np.triu(m, 1) == 0.0)
        assert np.max(np.abs(_rebuilt_displacement(xi, m) - ref)) < 1e-13

    @pytest.mark.parametrize(
        "amp, xi",
        [(0.0, 0.7 - 0.4j), (1.0, 0.05j), (0.9 + 0.4j, -1.2 + 0.9j), (-1.1 + 1.2j, 2.0j),
         (1.7j, 2.8), (-0.6 - 1.0j, 0.0)],
    )
    def test_overlaps_match_mpmath(self, amp, xi):
        with mpmath.workdps(30):
            ref = [[_mp_overlap(a, b, xi) for b in (amp, -amp)] for a in (amp, -amp)]
        (got,) = _overlaps((amp,), (xi,), 60)
        assert np.max(np.abs(got - np.array(ref))) < 1e-13

    @pytest.mark.parametrize("n_cut", [1, 40, 80])
    @pytest.mark.parametrize(
        "xis",
        [(0.0, -1.2 + 0.9j), (0.7 - 0.2j, 0.0), _RNG_PAIR, (-0.3, 2.5j)],
        ids=["zero-first", "zero-second", "random", "real-imaginary"],
    )
    def test_displacement_matrices_match_per_xi_bits(self, n_cut, xis):
        # The triangles of one recurrence over both xi against one recurrence per xi.
        got = _laguerre_triangles(xis, n_cut)
        assert got.shape == (2, n_cut + 1, n_cut + 1)
        for m, xi in zip(got, xis):
            assert m.tobytes() == _laguerre_triangles((xi,), n_cut)[0].tobytes()

    def test_zero_displacement_is_exact_identity(self):
        eye = np.eye(41).tobytes()
        assert all(m.tobytes() == eye for m in _laguerre_triangles((0.0, 0j), 40))
        assert _laguerre_triangles((0j, 0.5), 40)[0].tobytes() == eye
        # So the overlaps at xi = 0 are exactly V^dagger V.
        amps = (0.9 + 0.4j, -1.3j)
        cols = _coherent_columns(amps, 40)
        gram = cols.conj().transpose(0, 2, 1) @ cols
        assert np.array_equal(_overlaps(amps, (0.0, 0j), 40), gram)

    def test_cached_tables_are_read_only(self):
        for array in (*_legendre_rule(40), *_fock_tables(41)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert _legendre_rule(40) is _legendre_rule(40)
        assert _fock_tables(41) is _fock_tables(41)

    def test_caches_are_bounded_and_keyed_by_an_int(self):
        for cached in (_legendre_rule, _fock_tables):
            assert cached.cache_parameters()["maxsize"] is not None
        # Typed keys: a float node count is refused as by leggauss, not served the int's rule.
        _legendre_rule(40)
        with pytest.raises(TypeError):
            _legendre_rule(40.0)

    @pytest.mark.parametrize(
        "oracle",
        [
            lambda state: quadrature_phase_dist(state, 0.2, "plus", np.linspace(0.0, 6.0, 7)),
            lambda state: quadrature_one_mode(state, -0.5, 2, np.linspace(0.0, 6.0, 7)),
            lambda state: np.float64(quadrature_normalization(state, 0.1)),
        ],
        ids=["phase-dist", "one-mode", "normalization"],
    )
    def test_quadrature_bits_cold_and_warm_cache(self, oracle):
        state = preset_state("yurke_stoler_plus", 1.1)
        _legendre_rule.cache_clear()
        cold = np.asarray(oracle(state)).tobytes()
        assert _legendre_rule.cache_info().currsize == 1
        assert np.asarray(oracle(state)).tobytes() == cold
        assert _legendre_rule.cache_info().hits >= 1

    def test_poisson_tail_matches_mpmath(self):
        with mpmath.workdps(30):
            for mean in (0.01, 0.5, 1.0, 3.0, 9.0, 100.0, 1e6):
                for n_cut in (6, 20, 40, 60):
                    ref = mpmath.gammainc(n_cut + 1, 0, mean, regularized=True)
                    expected = pytest.approx(float(ref), rel=1e-12, abs=0.0)
                    assert _poisson_tail(mean, n_cut) == expected
