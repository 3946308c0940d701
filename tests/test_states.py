import cmath
import math
import re

import numpy as np
import pytest

from catphase import (
    DomainError,
    NullStateError,
    QuasiBellState,
    make_preset,
    normalization_constant,
    params_from_descriptor,
    state_from_descriptor,
    validate_params,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def renormalized(mu: complex, nu: complex) -> dict:
    """Descriptor of alpha = beta = 1 with weights (mu, nu) to be rescaled to unit norm."""
    return {
        "alpha": {"abs": 1.0, "arg": 0.0},
        "beta": {"abs": 1.0, "arg": 0.0},
        "mu": {"re": mu.real, "im": mu.imag},
        "nu": {"re": nu.real, "im": nu.imag},
        "renormalize": True,
    }


class TestNormalizationConstant:
    def test_even_cat_vacuum_is_inverse_sqrt2(self):
        state = make_preset("even_cat", 0.0, 0.0)
        assert normalization_constant(state) == pytest.approx(2.0**-0.5, rel=1e-15, abs=0.0)

    def test_imaginary_weight_overlap_gives_unity(self):
        # Re(mu nu*) = 0 kills the exponential term entirely.
        for alpha, beta in [(0.0, 0.0), (1.0, 2.0), (0.3 + 0.4j, -1.0j)]:
            state = make_preset("yurke_stoler_plus", alpha, beta)
            assert normalization_constant(state) == 1.0

    def test_even_cat_unit_amplitudes(self):
        # (1 + e^-4)^(-1/2), frozen from a 40-digit evaluation.
        state = make_preset("even_cat", 1.0, 1.0)
        assert normalization_constant(state) == pytest.approx(
            0.9909660892472095, rel=1e-15, abs=0.0
        )

    def test_odd_cat_vacuum_raises(self):
        with pytest.raises(NullStateError):
            make_preset("odd_cat", 0.0, 0.0)

    def test_global_weight_phase_invariance(self):
        base = normalization_constant(make_preset("even_cat", 0.7, 0.2j))
        for theta in (0.1, 1.0, 2.5, -0.7, math.pi):
            rot = cmath.exp(1j * theta)
            state = QuasiBellState(0.7, 0.2j, INV_SQRT2 * rot, INV_SQRT2 * rot)
            assert normalization_constant(state) == pytest.approx(base, rel=1e-14, abs=0.0)

    def test_amplitude_phase_invariance(self):
        base = normalization_constant(make_preset("even_cat", 0.9, 1.3))
        for t1, t2 in [(0.4, -1.1), (2.0, 0.3), (-3.0, 3.0)]:
            state = make_preset("even_cat", 0.9 * cmath.exp(1j * t1), 1.3 * cmath.exp(1j * t2))
            assert normalization_constant(state) == pytest.approx(base, rel=1e-14, abs=0.0)

    def test_large_amplitude_suppression(self, any_preset):
        state = make_preset(any_preset, math.sqrt(10.0), math.sqrt(10.0))
        assert abs(normalization_constant(state) - 1.0) < 1e-16


class TestConstruction:
    def test_preset_weights(self):
        even = make_preset("even_cat", 1.0, 1.0)
        assert even.mu == pytest.approx(INV_SQRT2)
        assert even.nu == pytest.approx(INV_SQRT2)
        ys = make_preset("yurke_stoler_plus", 1.0, 0.0)
        assert ys.mu == pytest.approx(INV_SQRT2)
        assert ys.nu == pytest.approx(INV_SQRT2 * 1j)
        ysm = make_preset("yurke_stoler_minus", 1.0, 0.0)
        assert ysm.nu == pytest.approx(-INV_SQRT2 * 1j)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_preset("even", 1.0, 1.0)

    def test_weight_norm_enforced(self):
        with pytest.raises(ValueError, match=r"\|mu\|\^2\+\|nu\|\^2"):
            QuasiBellState(1.0, 1.0, 1.0, 1.0)

    def test_weight_norm_tolerance(self):
        # A 1e-13 miss is inside the tolerance; 1e-10 is not.
        eps_ok = 5e-14
        QuasiBellState(1.0, 1.0, INV_SQRT2 * (1 + eps_ok), INV_SQRT2)
        with pytest.raises(ValueError):
            QuasiBellState(1.0, 1.0, INV_SQRT2 * (1 + 1e-10), INV_SQRT2)

    def test_renormalize_option(self):
        state = state_from_descriptor(renormalized(3.0, 4.0j))
        assert abs(state.mu) ** 2 + abs(state.nu) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert state.mu == pytest.approx(0.6)
        assert state.nu == pytest.approx(0.8j)

    def test_renormalize_weight_modulus_past_float_range(self):
        # abs(complex(1.7e308, 1.7e308)) overflows; the norm is not finite.
        with pytest.raises(ValueError, match="cannot renormalize"):
            params_from_descriptor(renormalized(complex(1.7e308, 1.7e308), 1.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            QuasiBellState(math.inf, 1.0, INV_SQRT2, INV_SQRT2)
        with pytest.raises(ValueError, match="not finite"):
            QuasiBellState(1.0, 1.0, complex(math.nan, 0.0), INV_SQRT2)

    @pytest.mark.parametrize("field", ["alpha", "beta", "mu", "nu"])
    def test_bool_or_string_parameter_is_domain_error(self, field):
        # complex(True) is 1 and complex("1") parses: each would pass as a weight or amplitude.
        params = {"alpha": 1.0, "beta": 1.0, "mu": 1.0, "nu": 0.0}
        for value in (True, False, np.True_, "1"):
            message = f"^{field} must be a number and not a bool, got {re.escape(repr(value))}$"
            with pytest.raises(DomainError, match=message):
                QuasiBellState(**{**params, field: value})
        assert QuasiBellState(**{**params, field: np.float32(params[field])}) is not None

    def test_amplitudes_past_float_range_rejected(self):
        for kind in ("even_cat", "odd_cat"):
            with pytest.raises(ValueError, match="past the float range") as info:
                make_preset(kind, 1e154, 1e154)
            assert not isinstance(info.value, NullStateError)

    def test_null_state_with_weights_off_is_null_state_error(self):
        with pytest.raises(NullStateError, match="non-normalizable"):
            QuasiBellState(0.0, 0.0, 1.0, -1.0)

    def test_immutable(self):
        state = make_preset("even_cat", 1.0, 1.0)
        with pytest.raises(AttributeError):
            state.alpha = 2.0


class TestValidate:
    def test_valid_state_is_clean(self, any_preset):
        state = make_preset(any_preset, 0.8, 0.5j)
        assert validate_params(state.alpha, state.beta, state.mu, state.nu) == []

    def test_weight_norm_diagnostic(self):
        msgs = validate_params(1.0, 1.0, 1.0, 1.0)
        assert len(msgs) == 1
        assert "|mu|^2+|nu|^2 = 2.0" in msgs[0]

    def test_null_state_diagnostic(self):
        msgs = validate_params(0.0, 0.0, INV_SQRT2, -INV_SQRT2)
        assert len(msgs) == 1
        assert "non-normalizable" in msgs[0]

    @pytest.mark.parametrize(
        "alpha,beta",
        [(1e200, 1.0), (1.35e154, 0.0), (1e154, 1e154j), (complex(1e308, 1e308), 0.0),
         (0.0, complex(1.7e308, 1.7e308))],
    )
    def test_amplitudes_past_float_range_diagnostic(self, alpha, beta):
        msgs = validate_params(alpha, beta, INV_SQRT2, INV_SQRT2)
        assert msgs == [
            f"|alpha|^2+|beta|^2 is past the float range "
            f"(alpha={complex(alpha)!r}, beta={complex(beta)!r})"
        ]

    def test_weights_past_float_range_diagnostic(self):
        msgs = validate_params(1.0, 1.0, 1e200, complex(1.7e308, 1.7e308))
        assert len(msgs) == 1
        assert "|mu|^2+|nu|^2 = inf" in msgs[0]

    def test_non_finite_diagnostic(self):
        msgs = validate_params(complex(0, math.inf), 0.0, INV_SQRT2, INV_SQRT2)
        assert msgs and "alpha" in msgs[0]


class TestDescriptor:
    def test_preset_descriptor(self):
        state = state_from_descriptor(
            {
                "preset": "odd_cat",
                "alpha": {"abs": 1.0, "arg": 0.5},
                "beta": {"abs": 2.0, "arg": -0.25},
            }
        )
        assert state.alpha == pytest.approx(cmath.rect(1.0, 0.5))
        assert state.beta == pytest.approx(cmath.rect(2.0, -0.25))
        assert state.nu == pytest.approx(-INV_SQRT2)

    def test_explicit_weights_round_trip(self):
        original = QuasiBellState(0.5 + 0.1j, 1.2, 0.6, 0.8j)
        rebuilt = state_from_descriptor(
            {
                "alpha": {"abs": 0.5099019513592785, "arg": 0.19739555984988078},
                "beta": {"abs": 1.2, "arg": 0.0},
                "mu": {"re": 0.6, "im": 0.0},
                "nu": {"re": 0.0, "im": 0.8},
            }
        )
        assert rebuilt.alpha == pytest.approx(original.alpha)
        assert rebuilt.beta == pytest.approx(original.beta)
        assert rebuilt.mu == pytest.approx(original.mu)
        assert rebuilt.nu == pytest.approx(original.nu)

    def test_descriptor_renormalize(self):
        state = state_from_descriptor(
            {
                "alpha": {"abs": 1.0, "arg": 0.0},
                "beta": {"abs": 1.0, "arg": 0.0},
                "mu": {"re": 1.0, "im": 0.0},
                "nu": {"re": 1.0, "im": 0.0},
                "renormalize": True,
            }
        )
        assert state.mu == pytest.approx(INV_SQRT2)

    @pytest.mark.parametrize(
        "bad",
        [
            {"preset": "even_cat"},
            {"alpha": {"abs": 1, "arg": 0}, "beta": {"abs": 1, "arg": 0}},
            {
                "preset": "even_cat",
                "mu": {"re": 1, "im": 0},
                "nu": {"re": 0, "im": 0},
                "alpha": {"abs": 1, "arg": 0},
                "beta": {"abs": 1, "arg": 0},
            },
            {"preset": "nope", "alpha": {"abs": 1, "arg": 0}, "beta": {"abs": 1, "arg": 0}},
            {"alpha": {"abs": 1}, "beta": {"abs": 1, "arg": 0}, "preset": "even_cat"},
            "not a dict",
        ],
    )
    def test_bad_descriptors(self, bad):
        with pytest.raises(ValueError):
            state_from_descriptor(bad)

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    @pytest.mark.parametrize("arg", [math.inf, -math.inf])
    def test_infinite_polar_arg_names_the_amplitude(self, key, arg):
        descriptor = {
            "preset": "odd_cat",
            "alpha": {"abs": 1.0, "arg": 0.0},
            "beta": {"abs": 1.0, "arg": 0.0},
        }
        descriptor[key] = {"abs": 0.0, "arg": arg}  # even at abs 0, where rect gives 0
        with pytest.raises(ValueError, match=f"^{key} is not finite: arg {arg!r}$"):
            params_from_descriptor(descriptor)
