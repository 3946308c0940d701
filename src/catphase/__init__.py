"""Phase distributions of entangled two-mode coherent states.

catphase evaluates the s-ordered characteristic function, quasi-probability
distribution, and the phase-sum, phase-difference and one-mode phase
distributions of two-mode Schrödinger-cat (quasi-Bell) states, together with
independent quadrature and Fock-basis oracles that validate every analytic
formula numerically.
"""

from .errors import (
    CatPhaseError,
    CutoffTooSmallError,
    DomainError,
    NoConvergenceError,
    NullStateError,
)
from .oracle import (
    FOCK_BOUND_TOL,
    FockChiResult,
    QuadratureSpec,
    fock_chi_oracle,
    quadrature_normalization,
    quadrature_one_mode,
    quadrature_phase_dist,
)
from .phasedist import (
    FourierSpectrum,
    OneModeSpectrum,
    PhaseStats,
    TrigMoments,
    TruncationPolicy,
    build_spectrum,
    eval_one_mode_dist,
    eval_phase_dist,
    fourier_coefficient,
    one_mode_coefficients,
    phase_mean_var,
    trig_moments,
    wrap_angle,
)
from .quasiprob import S_UPPER, chi, w, w_symmetrized
from .specfun import (
    LogScaledValue,
    bessel_i_ratio,
    bessel_i_scaled,
    i_n_combo,
    i_n_combo_kummer,
    kummer_m_log,
)
from .states import (
    PRESET_WEIGHTS,
    QuasiBellState,
    make_preset,
    normalization_constant,
    state_from_descriptor,
    state_to_descriptor,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [
    "CatPhaseError",
    "CutoffTooSmallError",
    "DomainError",
    "NoConvergenceError",
    "NullStateError",
    "FOCK_BOUND_TOL",
    "FockChiResult",
    "QuadratureSpec",
    "fock_chi_oracle",
    "quadrature_normalization",
    "quadrature_one_mode",
    "quadrature_phase_dist",
    "FourierSpectrum",
    "OneModeSpectrum",
    "PhaseStats",
    "TrigMoments",
    "TruncationPolicy",
    "build_spectrum",
    "eval_one_mode_dist",
    "eval_phase_dist",
    "fourier_coefficient",
    "one_mode_coefficients",
    "phase_mean_var",
    "trig_moments",
    "wrap_angle",
    "S_UPPER",
    "chi",
    "w",
    "w_symmetrized",
    "LogScaledValue",
    "bessel_i_ratio",
    "bessel_i_scaled",
    "i_n_combo",
    "i_n_combo_kummer",
    "kummer_m_log",
    "PRESET_WEIGHTS",
    "QuasiBellState",
    "make_preset",
    "normalization_constant",
    "state_from_descriptor",
    "state_to_descriptor",
    "validate_params",
    "__version__",
]
