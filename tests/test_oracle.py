import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from catphase import (
    CutoffTooSmallError,
    DomainError,
    QuadratureSpec,
    QuasiBellState,
    chi,
    eval_one_mode_dist,
    fock_chi_oracle,
    make_preset,
    one_mode_coefficients,
    quadrature_normalization,
    quadrature_one_mode,
    quadrature_phase_dist,
    w,
    w_symmetrized,
)

from catphase.oracle import (
    _angular_rule,
    _combine,
    _displacement_matrices,
    _factors,
    _fock_tables,
    _legendre_rule,
    _poisson_tail,
    _radial_rule,
)

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


def _per_xi_displacement(xi: complex, n_cut: int) -> np.ndarray:
    """D(xi) built for one xi at a time, with every table rebuilt per call.

    The earlier form of oracle._displacement_matrices, kept as the bit reference.
    """
    dim = n_cut + 1
    if xi == 0:
        return np.eye(dim, dtype=complex)
    x = abs(xi) ** 2
    k = np.arange(dim)
    p = np.ones((dim, dim))
    step = np.zeros(dim)
    for j in range(dim - 1):
        step = (j * step - x * p[j]) / (j + 1 + k)
        p[j + 1] = p[j] + step
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
    rows, cols = k[:, None], k[None, :]
    diff = np.maximum(rows - cols, 0)
    log_mag = 0.5 * (log_fact[rows] - log_fact[cols]) - log_fact[diff] + diff * math.log(abs(xi))
    magnitude = np.tril(np.exp(log_mag - 0.5 * x) * p[cols, diff])
    low = magnitude * np.exp(1j * np.angle(xi) * diff)
    upp = np.tril(magnitude * np.exp(1j * np.angle(-xi) * diff), -1).conj().T
    return low + upp


_RNG_PAIR = tuple(complex(*v) for v in np.random.default_rng(15).normal(size=(2, 2)))


class TestFockPieces:
    @pytest.mark.parametrize("xi", [0.05j, 0.7 + 0.2j, -1.2 + 0.9j, 2.0j, 2.8])
    def test_displacement_matrix_matches_mpmath(self, xi):
        n_cut = 60
        with mpmath.workdps(30):
            ref = _mp_displacement(xi, n_cut)
        (got,) = _displacement_matrices((xi,), n_cut)
        assert np.max(np.abs(got - ref)) < 1e-13

    @pytest.mark.parametrize("n_cut", [1, 40, 80])
    @pytest.mark.parametrize(
        "xis",
        [(0.0, -1.2 + 0.9j), (0.7 - 0.2j, 0.0), _RNG_PAIR, (-0.3, 2.5j)],
        ids=["zero-first", "zero-second", "random", "real-imaginary"],
    )
    def test_displacement_matrices_match_per_xi_bits(self, n_cut, xis):
        got = _displacement_matrices(xis, n_cut)
        assert got.shape == (2, n_cut + 1, n_cut + 1)
        for matrix, xi in zip(got, xis):
            assert matrix.tobytes() == _per_xi_displacement(xi, n_cut).tobytes()

    def test_zero_displacement_is_exact_identity(self):
        eye = np.eye(41, dtype=complex).tobytes()
        assert all(m.tobytes() == eye for m in _displacement_matrices((0.0, 0j), 40))
        assert _displacement_matrices((0j, 0.5), 40)[0].tobytes() == eye

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
