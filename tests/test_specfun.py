import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catphase import (
    DomainError,
    LogScaledValue,
    QuasiBellState,
    bessel_i_ratio,
    build_spectrum,
    fourier_coefficient,
    i_n_combo,
    i_n_combo_kummer,
    one_mode_coefficients,
    specfun,
)
from catphase.specfun import _check_half_order, _kummer_m_log, _log_ive

mpmath.mp.dps = 40


def mp_log_ive(order: float, x: float) -> float:
    """High-precision log(e^(-x) I_order(x)), independent of the package."""
    return float(mpmath.log(mpmath.besseli(mpmath.mpf(order * 2) / 2, x)) - x)


def plain(value: LogScaledValue) -> float:
    """The float a nonzero LogScaledValue stands for."""
    return value.sign * math.exp(value.log_mag)


def mp_combo_log(n: int, x: float, branch: str) -> float:
    lo = mpmath.besseli(mpmath.mpf(n - 1) / 2, x)
    hi = mpmath.besseli(mpmath.mpf(n + 1) / 2, x)
    if branch == "plus":
        val = mpmath.sqrt(x) * mpmath.exp(-x) * (lo + hi)
    else:
        val = mpmath.sqrt(x) * mpmath.exp(x) * (lo - hi)
    return float(mpmath.log(val))


class TestBesselScaled:
    """log(e^(-x) I_order(x)) from _log_ive, which seeds every combination table.

    Each check compares logs at an absolute tolerance equal to a relative
    tolerance on the value, which is the same to first order.
    """

    def test_frozen_values(self):
        # 40-digit oracle values.
        assert _log_ive(2, 1.0) == pytest.approx(math.log(0.2079104153497084), rel=0.0, abs=1e-14)
        assert _log_ive(1, 1.0) == pytest.approx(math.log(0.3449513138882446), rel=0.0, abs=1e-14)
        assert _log_ive(0, 1.0) == pytest.approx(math.log(0.4657596075936404), rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("order", [0, 0.5, 1, 1.5, 2, 2.5, 5, 7.5, 12, 20.5])
    @pytest.mark.parametrize("x", [1e-8, 1e-3, 0.5, 1.0, 10.0, 100.0, 350.0, 500.0, 700.0])
    def test_against_high_precision(self, order, x):
        expected = mp_log_ive(order, x)
        assert _log_ive(round(2 * order), x) == pytest.approx(expected, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("order,x", [(25, 1000.0), (20, 780.0)])
    def test_series_rescale_past_documented_range(self, order, x):
        # 2 order^2 > x sends these to the ascending series, whose running sum
        # passes 1e280 and is rescaled.  x lies past 700, the largest argument
        # the other checks here reach.
        expected = mp_log_ive(order, x)
        assert _log_ive(round(2 * order), x) == pytest.approx(expected, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("x", [1e-8, 1e-2, 0.5, 2.0, 10.0, 100.0, 500.0])
    def test_half_integer_closed_forms(self, x):
        # I_(1/2) = sqrt(2/(pi x)) sinh x, I_(3/2) = sqrt(2/(pi x)) (cosh x - sinh x / x),
        # both evaluated in scaled form through mpmath to dodge cancellation.
        i_half = float(
            mpmath.log(mpmath.sqrt(2 / (mpmath.pi * x)) * mpmath.sinh(x) * mpmath.exp(-x))
        )
        i_three_half = float(
            mpmath.log(
                mpmath.sqrt(2 / (mpmath.pi * x))
                * (mpmath.cosh(x) - mpmath.sinh(x) / x)
                * mpmath.exp(-x)
            )
        )
        assert _log_ive(1, x) == pytest.approx(i_half, rel=0.0, abs=1e-13)
        assert _log_ive(3, x) == pytest.approx(i_three_half, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("order", [0, 1, 2, 3.5])
    @pytest.mark.parametrize("x", [39.5, 40.0, 40.5])
    def test_series_asymptotic_crossover(self, order, x):
        # Both evaluation paths meet near x = 40; no seam is visible.
        expected = mp_log_ive(order, x)
        assert _log_ive(round(2 * order), x) == pytest.approx(expected, rel=0.0, abs=1e-13)

    def test_domain_errors(self):
        # Orders reach _log_ive as 2*order through _check_half_order.
        assert _check_half_order(0) == 0
        assert _check_half_order(2.5) == 5
        with pytest.raises(DomainError):
            _check_half_order(-0.5)
        with pytest.raises(DomainError):
            _check_half_order(0.3)
        with pytest.raises(DomainError):
            _check_half_order(math.nan)
        with pytest.raises(DomainError):
            bessel_i_ratio(math.inf, 1.0)


class TestBesselRatio:
    def test_small_x_leading_order(self):
        # I_1/I_0 ~ x/2 as x -> 0.
        assert bessel_i_ratio(0, 1e-8) == pytest.approx(5e-9, rel=1e-8, abs=0.0)

    def test_frozen_values(self):
        assert bessel_i_ratio(0, 1.0) == pytest.approx(0.4463899658965345, rel=1e-14, abs=0.0)
        # (cosh 2 - sinh 2 / 2) / sinh 2
        assert bessel_i_ratio(0.5, 2.0) == pytest.approx(0.5373147207275481, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("order", [0, 0.5, 1, 3.5, 10])
    def test_bounded_and_increasing(self, order):
        xs = [0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 50.0, 300.0]
        values = [bessel_i_ratio(order, x) for x in xs]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_high_precision(self):
        for order, x in [(0, 0.3), (1.5, 7.0), (4, 120.0), (9.5, 650.0)]:
            expected = float(
                mpmath.besseli(mpmath.mpf(2 * order + 2) / 2, x)
                / mpmath.besseli(mpmath.mpf(2 * order) / 2, x)
            )
            assert bessel_i_ratio(order, x) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("order", [0, 0.5, 10, 255.5])
    @pytest.mark.parametrize("x", [1e-310, 1e-299, 1e-290])
    def test_tiny_x_matches_high_precision(self, order, x):
        # Down to subnormal x, where b_1 = 2(order + 1)/x overflows.  abs=0
        # because approx's default absolute 1e-12 would swallow these values.
        expected = float(
            mpmath.besseli(mpmath.mpf(2 * order + 2) / 2, mpmath.mpf(x))
            / mpmath.besseli(mpmath.mpf(2 * order) / 2, mpmath.mpf(x))
        )
        assert bessel_i_ratio(order, x) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_i_ratio(0, 0.0)
        with pytest.raises(DomainError):
            bessel_i_ratio(0, -2.0)
        with pytest.raises(DomainError):
            bessel_i_ratio(-0.5, 1.0)
        with pytest.raises(DomainError):
            bessel_i_ratio(0.3, 1.0)


class TestCombination:
    def test_zero_argument(self):
        for branch in ("plus", "minus"):
            val = i_n_combo(1, 0.0, branch)
            assert val.sign == 0
            assert val.log_mag == -math.inf

    def test_frozen_values(self):
        # e^-1 (I_0(1) + I_1(1))
        val = i_n_combo(1, 1.0, "plus")
        assert val.sign == 1
        assert math.exp(val.log_mag) == pytest.approx(0.6736700229433489, rel=1e-13, abs=0.0)
        # sqrt(2/pi) (e^2 - 3) / 2
        val = i_n_combo(2, 1.0, "minus")
        assert math.exp(val.log_mag) == pytest.approx(1.7509800489172097, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 40, 63, 64, 65, 128, 129, 300, 512])
    @pytest.mark.parametrize("x", [1e-6, 0.3, 5.0, 80.0, 350.0, 900.0, 2000.0])
    def test_against_high_precision(self, branch, n, x):
        expected = mp_combo_log(n, x, branch)
        got = i_n_combo(n, x, branch)
        assert got.sign == 1
        assert got.log_mag == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("x", [1e-307, 2.3e-308, 1e-308, 5e-324])
    def test_tiny_argument_matches_high_precision(self, branch, x):
        # Past the downward recurrence's range: 2nu/x overflows from nu = 1/2
        # on, and 5e-324 is the smallest subnormal.
        for n in (1, 2, 3, 64, 65, 300, 2**16):
            expected = mp_combo_log(n, mpmath.mpf(x), branch)
            got = i_n_combo(n, x, branch)
            assert got.sign == 1
            assert got.log_mag == pytest.approx(expected, rel=1e-14, abs=0.0), n

    def test_positive_for_positive_argument(self):
        for n in (1, 2, 5, 17):
            for x in (1e-7, 0.1, 2.0, 50.0):
                assert i_n_combo(n, x, "plus").sign == 1
                assert i_n_combo(n, x, "minus").sign == 1

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
    def test_small_x_power_law(self, branch, n):
        # log magnitude slope vs log x approaches n/2 as x -> 0.
        lo = i_n_combo(n, 1e-8, branch).log_mag
        hi = i_n_combo(n, 1e-7, branch).log_mag
        slope = (hi - lo) / math.log(10.0)
        assert slope == pytest.approx(n / 2.0, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            i_n_combo(0, 1.0, "plus")
        with pytest.raises(DomainError):
            i_n_combo(1, -1.0, "plus")
        with pytest.raises(DomainError):
            i_n_combo(1, 1.0, "both")
        i_n_combo(1, 1.0, "plus")  # a cached (1, 1.0) must not let True through
        with pytest.raises(DomainError):
            i_n_combo(True, 1.0, "plus")
        with pytest.raises(DomainError, match="<= 65536"):
            i_n_combo(2**16 + 1, 1.0, "plus")
        with pytest.raises(DomainError, match="combination index n"):
            i_n_combo(2.0, 1.0, "plus")

    def test_non_finite_argument_message_names_finiteness(self):
        for x in (math.inf, math.nan, -1.0):
            with pytest.raises(DomainError, match=r"x must be finite and >= 0, got"):
                i_n_combo(1, x, "plus")
            with pytest.raises(DomainError, match=r"x must be finite and >= 0, got"):
                i_n_combo_kummer(1, x, "minus")

    def test_numpy_integer_index(self):
        for n in (1, 65, 300):
            for branch in ("plus", "minus"):
                assert _bits(i_n_combo(np.int64(n), 80.0, branch)) == _bits(
                    i_n_combo(n, 80.0, branch)
                )
                assert _bits(i_n_combo_kummer(np.int32(n), 3.0, branch)) == _bits(
                    i_n_combo_kummer(n, 3.0, branch)
                )

    def test_largest_index(self):
        for branch in ("plus", "minus"):
            val = i_n_combo(2**16, 1.0, branch)
            assert val.sign == 1 and math.isfinite(val.log_mag)


def _bits(value: LogScaledValue) -> tuple:
    return value.sign, value.log_mag.hex()


class TestTablePurity:
    """i_n_combo is a function of (n, x, branch) alone, whatever the table cache holds."""

    # At large x a table's entries depend on its top order in the last bits.
    @pytest.mark.parametrize("x", [1e-6, 0.3, 5.0, 80.0, 900.0, 2000.0])
    def test_bits_independent_of_cache(self, x):
        for n in (1, 2, 37, 63, 64, 65, 128, 129, 300):
            for branch in ("plus", "minus"):
                specfun._combo_table.cache_clear()
                cold = _bits(i_n_combo(n, x, branch))
                i_n_combo(300, x, "plus")
                i_n_combo(300, x, "minus")
                after_large = _bits(i_n_combo(n, x, branch))
                for other in (0.5 * x, 2.0 * x, x + 1.0):
                    i_n_combo(n, other, branch)
                specfun._combo_table.cache_clear()
                cleared = _bits(i_n_combo(n, x, branch))
                assert cold == after_large == cleared, (n, x, branch)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_spectrum_independent_of_call_order(self, branch):
        # x_a = 96.8 and x_b = 45 at s = 0.95: the series runs to n = 316,
        # across four table sizes, where the last bits depend on the table.
        state = QuasiBellState(2.2, 1.5 * cmath.exp(0.3j), 0.6, 0.8)
        specfun._combo_table.cache_clear()
        first = build_spectrum(state, 0.95, branch)
        assert first.n_used > 256
        specfun._combo_table.cache_clear()
        one_mode_coefficients(state, 0.95, 1)
        one_mode_coefficients(state, 0.95, 2)
        second = build_spectrum(state, 0.95, branch)
        assert [c.hex() for c in first.cos_coeffs] == [c.hex() for c in second.cos_coeffs]

    # The state above, and one at x_a = 900, x_b = 625 (s = 0) where a table's
    # last bits depend on its size more often.
    @pytest.mark.parametrize(
        "state,s",
        [
            (QuasiBellState(2.2, 1.5 * cmath.exp(0.3j), 0.6, 0.8), 0.95),
            (QuasiBellState(30.0, 25.0 * cmath.exp(0.3j), 0.6, 0.8), 0.0),
        ],
    )
    def test_one_mode_and_coefficient_independent_of_call_order(self, state, s):
        def outputs():
            rows = []
            for mode in (1, 2):
                spectrum = one_mode_coefficients(state, s, mode)
                rows += [c.hex() for c in spectrum.cos_coeffs + spectrum.sin_coeffs]
            for branch in ("plus", "minus"):
                for n in (1, 64, 65, 128, 129, 256, 257, 316):
                    rows.append(fourier_coefficient(state, s, n, branch).hex())
            return rows

        specfun._combo_table.cache_clear()
        cold = outputs()
        # The 512-row table cached first at both x must not change what the
        # smaller tables serve.
        specfun._combo_table.cache_clear()
        for amp in (state.alpha, state.beta):
            i_n_combo(512, abs(amp) ** 2 / (1.0 - s), "plus")
        assert outputs() == cold


class TestKummer:
    def test_at_zero(self):
        for a, b in [(0.5, 1.0), (3.0, 4.0), (1.5, 2.0)]:
            assert _kummer_m_log(a, b, 0.0) == LogScaledValue(1, 0.0)

    @pytest.mark.parametrize("x", [-30.0, -2.0, 0.5, 3.0, 100.0])
    def test_exponential_identity(self, x):
        # M(1, 1, x) = e^x.
        val = _kummer_m_log(1.0, 1.0, x)
        assert val.sign == 1
        assert val.log_mag == pytest.approx(x, abs=1e-13)

    def test_frozen_value(self):
        # M(3/2, 2, 2), the n = 1, x = 1 case of the combination identity.
        assert plain(_kummer_m_log(1.5, 2.0, 2.0)) == pytest.approx(
            4.977785591696303, rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize(
        "a,b,x",
        [(1.5, 2.0, 7.0), (2.5, 4.0, -11.0), (21.0, 41.0, 200.0), (3.0, 5.0, -600.0)],
    )
    def test_against_high_precision(self, a, b, x):
        expected = float(mpmath.log(mpmath.hyp1f1(a, b, x)))
        assert _kummer_m_log(a, b, x).log_mag == pytest.approx(expected, abs=1e-12)

    def test_excluded_b(self):
        for b in (0.0, -1.0, -5.0):
            with pytest.raises(DomainError):
                _kummer_m_log(1.0, b, 1.0)


class TestDualFormulaIdentity:
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_bessel_equals_kummer(self, branch):
        # The two independent routes agree in log space to 1e-10 over the
        # full working range.
        for n in range(1, 41):
            for x in (1e-6, 0.1, 1.0, 10.0, 100.0):
                a = i_n_combo(n, x, branch)
                b = i_n_combo_kummer(n, x, branch)
                assert a.sign == b.sign == 1
                assert abs(a.log_mag - b.log_mag) < 1e-10, (n, x, branch)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 512),
        log10_x=st.floats(-8.0, 3.0),
        branch=st.sampled_from(["plus", "minus"]),
    )
    def test_bessel_equals_kummer_all_orders(self, n, log10_x, branch):
        x = 10.0**log10_x
        a = i_n_combo(n, x, branch)
        b = i_n_combo_kummer(n, x, branch)
        assert a.sign == b.sign == 1
        assert abs(a.log_mag - b.log_mag) < 1e-10, (n, x, branch)

    def test_kummer_route_zero(self):
        assert i_n_combo_kummer(3, 0.0, "plus").sign == 0
        assert i_n_combo_kummer(3, 0.0, "minus").sign == 0


class TestLogScaledValue:
    def test_zero(self):
        z = LogScaledValue.zero()
        assert z.sign == 0 and z.log_mag == -math.inf
        assert LogScaledValue.from_value(0.0).sign == 0

    def test_round_trip(self):
        # exp(log x) round-trips to ~|log x| ulps.
        for x in (3.5, -1e-200, 2e250, -7.25):
            assert plain(LogScaledValue.from_value(x)) == pytest.approx(x, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_domain_error(self, value):
        with pytest.raises(DomainError, match=f"^log-scaled value must be finite, got {value!r}$"):
            LogScaledValue.from_value(value)

    def test_scaled(self):
        v = LogScaledValue.from_value(2.0).scaled(math.log(3.0))
        assert plain(v) == pytest.approx(6.0, rel=1e-14, abs=0.0)

    def test_is_an_immutable_tuple(self):
        value = LogScaledValue(-1, 2.5)
        sign, log_mag = value
        assert (sign, log_mag) == (-1, 2.5)
        assert isinstance(value, tuple) and tuple(value) == (-1, 2.5)
        with pytest.raises(AttributeError):
            value.sign = 1
        with pytest.raises(AttributeError):
            value.log_mag = 0.0
        assert (value.sign, value.log_mag) == (-1, 2.5)

    def test_equality(self):
        assert LogScaledValue(-1, 2.5) == LogScaledValue(-1, 2.5)
        assert hash(LogScaledValue(-1, 2.5)) == hash(LogScaledValue(-1, 2.5))
        assert LogScaledValue(-1, 2.5) != LogScaledValue(1, 2.5)
        assert LogScaledValue(-1, 2.5) != LogScaledValue(-1, 2.0)
        assert LogScaledValue.zero() == LogScaledValue.from_value(0.0) == (0, -math.inf)

    def test_methods(self):
        assert LogScaledValue.from_value(-4.0) == LogScaledValue(-1, math.log(4.0))
        assert LogScaledValue.from_value(0.5) == LogScaledValue(1, math.log(0.5))
        assert plain(LogScaledValue(-1, math.log(4.0))) == -4.0
        assert LogScaledValue(1, 1.5).scaled(2.0) == LogScaledValue(1, 3.5)
        assert LogScaledValue.zero().scaled(5.0) == LogScaledValue.zero()
        assert LogScaledValue.zero() == (0, -math.inf)

    def test_returned_by_both_routes(self):
        for route in (i_n_combo, i_n_combo_kummer):
            assert isinstance(route(3, 1.5, "minus"), LogScaledValue)
            sign, log_mag = route(3, 0.0, "plus")
            assert (sign, log_mag) == (0, -math.inf)
