import cmath
import itertools
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

from catphase import oracle
from catphase.oracle import (
    _coherent_columns,
    _combine,
    _fock_tables,
    _legendre_rule,
    _mode_sums,
    _overlaps,
    _partial_sums,
    _poisson_tail,
    _rules,
)

from conftest import BOX_POINTS, BOX_STATES, PRESETS, preset_state

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


class _ContractionRecorder:
    """Stands in for oracle's numpy module and keeps each einsum's operands and result."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, values, weights):
        out = np.einsum(subscripts, values, weights)
        self.calls.append((values.copy(), weights.copy(), out))
        return out


class TestRadialContraction:
    """Each radial sum of _radial_sums is one einsum contraction over the radial nodes."""

    PHIS = np.array([-1.2, 0.0, 0.7, 2.2, 3.0, 5.9])
    CALLS = [
        lambda st, phi, spec: quadrature_phase_dist(st, 0.3, "plus", phi, spec),
        lambda st, phi, spec: quadrature_phase_dist(st, 0.3, "minus", phi, spec),
        lambda st, phi, spec: quadrature_one_mode(st, 0.3, 1, phi, spec),
        lambda st, phi, spec: quadrature_one_mode(st, 0.3, 2, phi, spec),
    ]

    # At an odd radial count the mirrored weights are a reversed view that is
    # one shorter than the inner ones, and cos[..., :upper] is not contiguous.
    @pytest.mark.parametrize("nodes", [(17, 32), (40, 64), (41, 33)], ids=str)
    @pytest.mark.parametrize("call", CALLS, ids=["plus", "minus", "mode1", "mode2"])
    def test_bits_do_not_depend_on_the_shape_of_phi(self, call, nodes):
        state, spec = SEPARABLE_STATES[-1], QuadratureSpec(*nodes)
        flat = call(state, self.PHIS, spec)
        for shape in ((2, 3), (3, 2)):
            assert np.array_equal(call(state, self.PHIS.reshape(shape), spec).ravel(), flat)
        for k, phi in enumerate(self.PHIS):
            assert call(state, float(phi), spec) == flat[k]
            assert call(state, self.PHIS[k : k + 1], spec)[0] == flat[k]

    # c = 8: over 200 random states in this box the largest error was 2.6 eps
    # per unit of sum |products|; recursive summation of 40 terms allows 19.5.
    C = 8.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(state=BOX_STATES, s=st.floats(-1.0, 0.4))
    def test_each_sum_matches_an_exact_sum_of_its_products(self, state, s):
        # validate's box, at its 40 x 64 nodes: the two Gaussian and the four
        # interference sums of both modes, on the angles of all three oracles.
        recorder = _ContractionRecorder()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "np", recorder)
            quadrature_phase_dist(state, s, "minus", np.array([0.3, 2.0]))
            quadrature_one_mode(state, s, 2, 1.0)
            quadrature_normalization(state, s)
        assert len(recorder.calls) == 3 * 2 * 5  # the two Gaussian sums are one contraction
        for values, weights, out in recorder.calls:
            products = values * weights
            rows = products.reshape(-1, weights.size)
            exact = np.array([math.fsum(row) for row in rows]).reshape(out.shape)
            size = np.sum(np.abs(products), axis=-1)
            assert np.all(np.abs(out - exact) <= self.C * np.finfo(float).eps * size)


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
        # Gauss-Legendre radii and the uniform angles of _rules.
        state = preset_state(any_preset)
        r, _, ang, _ = _rules(state, -1.0, QuadratureSpec())
        values = w_symmetrized(
            state,
            r[:, None, None, None],
            r[None, :, None, None],
            ang[None, None, :, None],
            ang[None, None, None, :],
            -1.0,
        )
        assert float(np.min(values)) >= -1e-12


def _node_factors(state, s, r, gamma_angles, delta_angles):
    """Each mode's three factors of W on its angles' shape + (radial node,).

    A one-hot radial weight turns each per-mode sum into the factor at that
    node.  The nodes below the centre of the radial grid, and an odd count's
    middle one, are on the direct side of the paired interference sum, and
    the nodes above it on the mirrored side.
    """
    one_hot = np.eye(r.size)
    sums = [_mode_sums(state, s, r, one_hot[k], gamma_angles, delta_angles) for k in range(r.size)]
    return tuple(
        [np.stack([node[mode][part] for node in sums], axis=-1) for part in range(3)]
        for mode in range(2)
    )


# The four presets plus a state whose Im(mu nu*) is not zero.
SEPARABLE_STATES = [preset_state(kind) for kind in PRESETS] + [
    QuasiBellState(0.9 + 0.4j, -0.7 + 1.1j, 0.6, 0.8 * np.exp(0.7j))
]
SEPARABLE_IDS = list(PRESETS) + ["complex_weights"]


@pytest.mark.parametrize("s", [-1.0, 0.0, 0.4])
@pytest.mark.parametrize("state", SEPARABLE_STATES, ids=SEPARABLE_IDS)
class TestSeparableIntegrand:
    """Per-mode factors rebuild W and W_sym at every node of the default grid.

    The factors come from the per-mode sums with one-hot radial weights
    (_node_factors).  One slab per radial node of gamma, with axes (angle of
    gamma or phi_plus, radius of delta, angle of delta or phi_minus).
    """

    @staticmethod
    def _grid(state, s):
        r, _, a, _ = _rules(state, s, QuadratureSpec())
        return r, a

    @staticmethod
    def _assert_close(pairs):
        peak = max(float(np.max(np.abs(ref))) for _, ref in pairs)
        dev = max(float(np.max(np.abs(fast - ref))) for fast, ref in pairs)
        assert dev <= 1e-13 * peak

    def test_w(self, state, s):
        # Both angles on the angular nodes: the one-mode grid of either mode.
        r, a = self._grid(state, s)
        g, d = _node_factors(state, s, r, a, a)
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
        g, d = _node_factors(state, s, r, 0.5 * (a[:, None] - a), 0.5 * (a[:, None] + a))
        d = [np.moveaxis(x, 2, 1) for x in d]
        pairs = []
        for k in range(r.size):
            g_k = [x[:, None, :, k] for x in g]
            ref = w_symmetrized(state, r[k], r[:, None], a[:, None, None], a, s)
            pairs.append((_combine(state, g_k, d, True), ref))
        self._assert_close(pairs)


class TestRandomStates:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(state=BOX_STATES, xi=BOX_POINTS, eta=BOX_POINTS, s=st.floats(-1.0, 0.4))
    def test_fock_trace_matches_chi(self, state, xi, eta, s):
        # |xi|, |eta| <= 2 and s in [-1, 0.4], as in validate.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traced = fock_chi_oracle(state, xi, eta, s, n_cut=40)
            assert abs(traced.value - chi(state, xi, eta, s)) < 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(state=BOX_STATES, xi=BOX_POINTS, eta=BOX_POINTS)
    def test_overlaps_match_mpmath(self, state, xi, eta):
        # Both modes in one batch, at the cutoff validate uses.
        amps = (state.alpha, state.beta)
        got = _overlaps(amps, (xi, eta), 40)
        with mpmath.workdps(30):
            for block, amp, z in zip(got, amps, (xi, eta)):
                ref = [[_mp_overlap(a, b, z) for b in (amp, -amp)] for a in (amp, -amp)]
                assert np.max(np.abs(block - np.array(ref))) < 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        r=st.floats(0.0, 4.5),
        angle=st.floats(-math.pi, math.pi),
        stretch=st.floats(0.0, 2.5),
        turn=st.floats(-0.5, 0.5),
        kind=st.sampled_from(PRESETS),
    )
    def test_bound_covers_rounding_at_large_amplitudes(self, r, angle, stretch, turn, kind):
        # Up to |alpha| = 4.5 with the advised cutoff, and xi up to 2.5 alpha around
        # the interference peak xi = 2 alpha, where the factors cancel most: the
        # trace is within its bound of chi, or it is refused.
        alpha = cmath.rect(r, angle)
        xi = stretch * alpha * cmath.exp(1j * turn)
        state = QuasiBellState(alpha, 0.5j, *_weights(kind))
        n_cut = math.ceil(4.0 * r * r + 20.0)
        try:
            traced = fock_chi_oracle(state, xi, 0.3, 0.0, n_cut=n_cut)
        except DomainError as error:
            assert "rounding estimate" in str(error)
        else:
            assert abs(traced.value - chi(state, xi, 0.3, 0.0)) <= traced.bound + 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        r=st.floats(4.5, 37.64),
        angle=st.floats(-math.pi, math.pi),
        stretch=st.floats(0.0, 3.0),
        xi_angle=st.floats(-math.pi, math.pi),
        kind=st.sampled_from(PRESETS),
    )
    def test_bound_covers_the_columns_rounding_up_to_the_normal_floor(
        self, r, angle, stretch, xi_angle, kind
    ):
        # Up to |alpha| = 37.64, where the columns' first coefficient
        # e^(-|alpha|^2/2) is still a normal float, with the advised cutoff and
        # |xi| <= 3/|alpha|.  Their relative rounding grows as eps |alpha|^2; at
        # |alpha| = 37.6, xi = 0 a 16 eps bound was off by 7 times.
        state = QuasiBellState(cmath.rect(r, angle), 0.5j, *_weights(kind))
        xi = cmath.rect(stretch / r, xi_angle)
        n_cut = int(4.0 * r * r) + 40
        try:
            traced = fock_chi_oracle(state, xi, 0.3, 0.0, n_cut=n_cut)
        except DomainError as error:
            assert "rounding estimate" in str(error)
        else:
            assert abs(traced.value - chi(state, xi, 0.3, 0.0)) <= traced.bound

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(state=BOX_STATES, s=st.floats(-1.0, 0.97), n_radial=st.sampled_from([16, 17]))
    def test_factors_rebuild_w(self, state, s, n_radial):
        # Both angles on the angular nodes, gamma on axes 0-1 and delta on axes 2-3.
        spec = QuadratureSpec(n_radial=n_radial, n_angular=32)
        r, _, a, _ = _rules(state, s, spec)
        z = np.exp(1j * a)[:, None] * r
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, d = _node_factors(state, s, r, a, a)
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
        state=BOX_STATES,
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
        r_nodes, rw, _, _ = _rules(state, s, QuadratureSpec())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = _mode_sums(state, s, r_nodes, rw, phi_a, phi_b)
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
    """The separable oracles against direct node sums of W and W_sym.

    At 16 x 32 nodes, and at an odd radial count, 17 x 32, whose middle
    radial node has no mirror in the paired interference sum.
    """

    SPEC = QuadratureSpec(n_radial=16, n_angular=32)
    ODD_SPEC = QuadratureSpec(n_radial=17, n_angular=32)
    PHIS = np.linspace(-1.0, 7.0, 16)

    @staticmethod
    def _brute_force(state, s, spec, values):
        """Node sum of r1 r2 values(r1, r2, angle) over both radii and the angle.

        values gets r1, r2 and the angle on axes 0, 1 and 3, and puts the
        fixed angles on axis 2.
        """
        r, rw, a, a_w = _rules(state, s, spec)
        integrand = values(r[:, None, None, None], r[None, :, None, None], a)
        return a_w * np.einsum("rspa,r,s->p", integrand, rw, rw)

    def _deviations(self, state, s, spec):
        """|oracle - direct node sum| at PHIS: both branches, both modes, the normalization."""
        phis = self.PHIS[:, None]
        out = []
        for branch in ("plus", "minus"):

            # The complementary angle's nodes sit at phi - a_j (plus) and phi + a_j (minus).
            def values(r1, r2, a, plus=branch == "plus"):
                if plus:
                    return w_symmetrized(state, r1, r2, phis, phis - a, s)
                return w_symmetrized(state, r1, r2, phis + a, phis, s)

            got = quadrature_phase_dist(state, s, branch, self.PHIS, spec)
            out.append(np.max(np.abs(got - self._brute_force(state, s, spec, values))))

        for mode in (1, 2):

            def values(r1, r2, a, first=mode == 1):
                own, other = r1 * np.exp(1j * phis), r2 * np.exp(1j * a)
                return w(state, own, other, s) if first else w(state, other, own, s)

            got = quadrature_one_mode(state, s, mode, self.PHIS, spec)
            out.append(np.max(np.abs(got - self._brute_force(state, s, spec, values))))

        # Raw W over the product of both modes' (radius, angle) grids: mode 1's
        # angles on the fixed axis, mode 2's on the summed one.
        _, _, nodes, a_w = _rules(state, s, spec)
        by_gamma_angle = self._brute_force(
            state,
            s,
            spec,
            lambda r1, r2, a: w(state, r1 * np.exp(1j * nodes[:, None]), r2 * np.exp(1j * a), s),
        )
        got = quadrature_normalization(state, s, spec)
        out.append(abs(got - a_w * float(np.sum(by_gamma_angle))))
        return out

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.4])
    @pytest.mark.parametrize("state", SEPARABLE_STATES, ids=SEPARABLE_IDS)
    def test_all_three_oracles(self, state, s):
        assert max(self._deviations(state, s, self.SPEC)) <= 1e-14

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.4])
    @pytest.mark.parametrize("state", SEPARABLE_STATES, ids=SEPARABLE_IDS)
    def test_odd_radial_count(self, state, s):
        assert max(self._deviations(state, s, self.ODD_SPEC)) <= 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(state=BOX_STATES, s=st.floats(-1.0, 0.4), odd=st.booleans())
    def test_random_states_in_the_validated_box(self, state, s, odd):
        # validate's box: |alpha|, |beta| <= sqrt(3), any phases and weights, s <= 0.4.
        # W's interference terms reach N^2 |mu nu| e^(2s(|alpha|^2+|beta|^2)/(1-s)) times
        # its Gaussians, up to about 1,500 in the box's corner, and every node sum
        # rounds relative to them: there the unpaired sums missed a plain 1e-14 too,
        # by up to 6.8e-14 over 1,500 random states.
        spec = self.ODD_SPEC if odd else self.SPEC
        amp_sq = abs(state.alpha) ** 2 + abs(state.beta) ** 2
        interference = abs(state.mu * state.nu) * math.exp(2.0 * s * amp_sq / (1.0 - s))
        scale = 1.0 + normalization_constant(state) ** 2 * interference
        assert max(self._deviations(state, s, spec)) <= 1e-14 * scale

    @pytest.mark.parametrize("n_phi", [1, 3, 8])
    def test_each_mode_takes_its_radial_sums_once(self, monkeypatch, n_phi):
        # Mode 1 sits at a_j/2 on both phase lines whatever phi is, so only
        # mode 2's angles depend on phi; the normalization needs n angles a mode.
        shapes = []

        def spy(amp, r, rw, angles, *args):
            shapes.append(np.shape(angles))
            return radial_sums(amp, r, rw, angles, *args)

        radial_sums = oracle._radial_sums
        monkeypatch.setattr(oracle, "_radial_sums", spy)
        state, n = preset_state("yurke_stoler_plus"), self.SPEC.n_angular
        for branch in ("plus", "minus"):
            quadrature_phase_dist(state, 0.2, branch, np.linspace(0.0, 6.0, n_phi), self.SPEC)
            assert shapes == [(n,), (n_phi, n)]
            shapes.clear()
        quadrature_normalization(state, 0.2, self.SPEC)
        assert shapes == [(n,), (n,)]

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda st: quadrature_phase_dist(st, 0.4, "plus", 0.3),
            lambda st: quadrature_phase_dist(st, 0.4, "minus", np.array([0.3, 1.0])),
            lambda st: quadrature_one_mode(st, 0.4, 1, 0.3),
            lambda st: quadrature_one_mode(st, 0.4, 2, np.array([0.3, 1.0])),
            lambda st: quadrature_normalization(st, 0.4),
        ],
        ids=["plus", "minus", "mode1", "mode2", "normalization"],
    )
    def test_refusal_probe_is_one_w_call(self, call, monkeypatch):
        calls = {"w": 0, "w_symmetrized": 0}
        for name in calls:

            def counted(*args, name=name, inner=getattr(oracle, name)):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(oracle, name, counted)
        call(preset_state("odd_cat"))
        assert calls == {"w": 1, "w_symmetrized": 0}

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

    def test_cancelling_factors_are_refused(self):
        # At |alpha| = 4 and xi = 2 alpha, the cat's interference peak, the
        # number-basis sums cancel from about e^32: the rounding estimate is
        # far above 1e-6, so the trace is refused rather than returned wrong.
        state = QuasiBellState(4.0, 0.5, *_weights("even_cat"))
        refusal = r"xi=\(8\+0j\), eta=\(0\.1\+0j\) .* rounding estimate"
        with pytest.raises(DomainError, match=refusal):
            fock_chi_oracle(state, 8.0, 0.1, 0.0, n_cut=84)
        # Away from the peak the same state is traced to within 1e-8 of chi.
        traced = fock_chi_oracle(state, 0.5, 0.1, 0.0, n_cut=84)
        assert abs(traced.value - chi(state, 0.5, 0.1, 0.0)) < 1e-8

    @pytest.mark.parametrize("amp", [37.3, 37.6, 37.64])
    def test_trace_of_rho_within_its_bound_below_the_normal_floor(self, amp):
        state = make_preset("even_cat", amp, 0.5)
        traced = fock_chi_oracle(state, 0.0, 0.0, 0.0, n_cut=int(4.0 * amp * amp) + 40)
        assert abs(traced.value - 1.0) <= traced.bound

    @pytest.mark.parametrize("amp", [37.7, 38.5, 40.0])
    @pytest.mark.parametrize("mode", ["alpha", "beta"])
    def test_amplitude_past_the_normal_floor_is_refused(self, amp, mode):
        # e^(-|alpha|^2/2) is subnormal from |alpha| = 37.65 and 0 near 38.6: the
        # trace of rho was off by 3.7e-14 at 37.7 (bound 1.4e-14), read 1.0349 at
        # 38.5 and exactly 0 at 40.  The refusal comes before the cutoff's.
        amps = {"alpha": 0.5, "beta": 0.5, mode: amp}
        state = make_preset("even_cat", amps["alpha"], amps["beta"])
        refusal = rf"^\|{mode}\| = {amp!r} is past the number-basis trace's range: "
        for n_cut in (int(4.0 * amp * amp) + 40, 40):
            with pytest.raises(DomainError, match=refusal):
                fock_chi_oracle(state, 0.0, 0.0, 0.0, n_cut=n_cut)

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

    @pytest.mark.parametrize("n_cut", [2**16 + 1, 10**400])
    def test_cutoff_above_the_cap_is_refused_before_any_work(self, monkeypatch, n_cut):
        # 10**400 was a bare OverflowError from _poisson_tail, and 2**30 would
        # have allocated arrays of 2**30 + 1 entries.
        def unreachable(*args):
            raise AssertionError("ran past the cutoff check")

        for name in ("_poisson_tail", "_fock_tables", "_overlaps"):
            monkeypatch.setattr(oracle, name, unreachable)
        with pytest.raises(DomainError, match=rf"^n_cut must be <= 65536, got {n_cut}$"):
            fock_chi_oracle(preset_state("even_cat"), 0.1, 0.1, 0.0, n_cut=n_cut)

    def test_cutoff_at_the_cap_is_traced(self):
        state = preset_state("even_cat")
        traced = fock_chi_oracle(state, 0.5, 0.3j, 0.0, n_cut=2**16)
        assert abs(traced.value - chi(state, 0.5, 0.3j, 0.0)) < 1e-8

    @pytest.mark.parametrize(
        "xi,eta",
        [(math.nan, 0.3), (math.inf, 0.3), (1e200, 0.3), (1e100, 0.3), (0.3, 1e100),
         (0.3, complex(0.0, math.nan))],
    )
    def test_unusable_displacement_is_domain_error(self, xi, eta):
        # Even cat at |alpha| = |beta| = 1, s = 0: a NaN or non-finite |xi|^2
        # is refused up front; at xi = 1e100 the partial sums of e^(xi* alpha)
        # pass the float range and the trace is NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="xi"):
                fock_chi_oracle(preset_state("even_cat"), xi, eta, 0.0)

    def test_trace_past_float_range_names_the_partial_sums(self):
        refusal = r"not finite: the partial sums of e\^\(xi\* amp\) at n_cut=40 are past"
        with pytest.raises(DomainError, match=refusal):
            fock_chi_oracle(preset_state("even_cat"), 1e100, 0.3, 0.0)

    def test_cutoff_refused_before_the_contraction(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("_overlaps ran")

        monkeypatch.setattr(oracle, "_overlaps", unreachable)
        with pytest.raises(CutoffTooSmallError):
            fock_chi_oracle(preset_state("even_cat", 2.0), 0.5, 0.5, 0.0, n_cut=6)

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


def _mp_partial_sums(x: complex, n_cut: int) -> list:
    """S_N(x) = sum_(j <= N) x^j / j! for N = 0 .. n_cut, in mpmath."""
    z = mpmath.mpc(x.real, x.imag)
    return list(itertools.accumulate(z**j / mpmath.factorial(j) for j in range(n_cut + 1)))


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
        # Neither D(xi) nor its factor L(xi*) is formed; the partial sums of
        # e^(+-x) that stand for L's columns are checked entry by entry, to a
        # relative 1e-13.
        n_cut = 60
        (got,) = _partial_sums((xi,), n_cut)
        with mpmath.workdps(30):
            for column, x in zip(got.T, (xi, -xi)):
                for entry, ref in zip(column, _mp_partial_sums(x, n_cut)):
                    assert abs(entry - ref) <= 1e-13 * abs(ref)

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
        # Both modes in one batched product against one mode at a time.
        amps = (0.9 + 0.4j, -1.3j)
        got = _overlaps(amps, xis, n_cut)
        assert got.shape == (2, 2, 2)
        for block, amp, xi in zip(got, amps, xis):
            assert block.tobytes() == _overlaps((amp,), (xi,), n_cut)[0].tobytes()

    def test_zero_displacement_is_exact_identity(self):
        # At xi = 0 every partial sum is exactly 1, as L(0) is the identity ...
        assert np.all(_partial_sums((0.0, 0j), 40) == 1.0)
        # ... so the overlaps at xi = 0 are exactly V^dagger V.
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
