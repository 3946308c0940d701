import cmath
import math

import pytest
from hypothesis import strategies as st

from catphase import PRESET_WEIGHTS, QuasiBellState
from catphase.states import _unit_weights

PRESETS = tuple(sorted(PRESET_WEIGHTS))


def preset_state(kind: str, amp: float = 1.0) -> QuasiBellState:
    """Preset state with real amplitudes alpha = beta = amp."""
    mu, nu = PRESET_WEIGHTS[kind]
    return QuasiBellState(alpha=amp, beta=amp, mu=mu, nu=nu)


@pytest.fixture(params=PRESETS)
def any_preset(request) -> str:
    return request.param


TWO_PI = 2.0 * math.pi

# Random states in the validated box: any amplitude phases, renormalized
# complex weights, |alpha|, |beta| <= sqrt(3); and points |xi|, |eta| <= 2.
_BOX_AMPLITUDES = st.builds(
    cmath.rect, st.floats(0.0, math.sqrt(3.0)), st.floats(-math.pi, math.pi)
)
_ANY_WEIGHT = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
BOX_STATES = st.builds(
    lambda alpha, beta, mu, nu: QuasiBellState(alpha, beta, *_unit_weights(mu, nu)),
    _BOX_AMPLITUDES,
    _BOX_AMPLITUDES,
    _ANY_WEIGHT.filter(lambda z: abs(z) > 1e-3),
    _ANY_WEIGHT,
)
BOX_POINTS = st.builds(cmath.rect, st.floats(0.0, 2.0), st.floats(-math.pi, math.pi))
