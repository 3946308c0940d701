"""Independent numerical validation of the analytic formulas.

Two oracle families live here:

* brute-force quadrature marginalization of the symmetrized quasi-probability
  (Gauss-Legendre radially, uniform trapezoid angularly, which is spectrally
  accurate for the periodic integrands), checking normalization and the
  phase-distribution series, and
* a truncated-Fock-basis trace of the displacement operator, checking the
  closed-form characteristic function.  The number-basis displacement
  matrix is built from log-factorials and the forward three-term recurrence
  of the generalized Laguerre polynomials in the degree; the truncation
  bound uses the Poisson tail, summed by its upward series (or as one minus
  its head once the mean passes the cutoff).

Node sums use NumPy's pairwise summation on fixed shapes, so results are
bit-stable across runs for a fixed spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CutoffTooSmallError, DomainError
from .quasiprob import _require_s_below_one, w, w_symmetrized
from .specfun import _branch_sign
from .states import QuasiBellState, normalization_constant

__all__ = [
    "QuadratureSpec",
    "FockChiResult",
    "FOCK_BOUND_TOL",
    "quadrature_phase_dist",
    "quadrature_normalization",
    "quadrature_one_mode",
    "fock_chi_oracle",
]

_TWO_PI = 2.0 * math.pi

# A reported Fock truncation bound above this raises CutoffTooSmallError.
FOCK_BOUND_TOL = 1e-6


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and radial cutoff for the quadrature oracles.

    The radial domain is [0, R] with R = max(|alpha|, |beta|)
    + radial_cutoff_sigma * sqrt((1-s)/2); the Gaussian envelope
    exp(-2 r^2/(1-s)) makes the neglected tail negligible at the default
    eight sigma.
    """

    n_radial: int = 40
    n_angular: int = 64
    radial_cutoff_sigma: float = 8.0

    def __post_init__(self) -> None:
        if self.n_radial < 16:
            raise ValueError(f"n_radial must be >= 16, got {self.n_radial!r}")
        if self.n_angular < 32:
            raise ValueError(f"n_angular must be >= 32, got {self.n_angular!r}")
        if not (self.radial_cutoff_sigma > 0.0):
            raise ValueError(
                f"radial_cutoff_sigma must be positive, got {self.radial_cutoff_sigma!r}"
            )


def _radial_rule(state: QuasiBellState, s: float, spec: QuadratureSpec):
    """Gauss-Legendre nodes and weights on [0, R]."""
    radius = max(abs(state.alpha), abs(state.beta)) + spec.radial_cutoff_sigma * math.sqrt(
        (1.0 - s) / 2.0
    )
    nodes, weights = leggauss(spec.n_radial)
    return 0.5 * radius * (nodes + 1.0), 0.5 * radius * weights


def _angular_rule(spec: QuadratureSpec):
    """Uniform angular nodes with the periodic trapezoid weight 2pi/n."""
    nodes = _TWO_PI * np.arange(spec.n_angular) / spec.n_angular
    return nodes, _TWO_PI / spec.n_angular


def _marginal(values, state: QuasiBellState, s: float, phi, spec: QuadratureSpec | None):
    """Quadrature of r1 r2 values(r1, r2, phi, angle) over both radii and the free angle.

    Axes are (phi, angle, r1, r2); ``phi`` may be a scalar or a 1-D array.
    """
    spec = spec or QuadratureSpec()
    r_nodes, r_weights = _radial_rule(state, s, spec)
    a_nodes, a_weight = _angular_rule(spec)
    fixed = np.atleast_1d(np.asarray(phi, dtype=float))[:, None, None, None]
    r_1 = r_nodes[None, None, :, None]
    r_2 = r_nodes[None, None, None, :]
    integrand = r_1 * r_2 * values(r_1, r_2, fixed, a_nodes[None, :, None, None])
    out = a_weight * np.einsum("pars,r,s->p", integrand, r_weights, r_weights)
    return float(out[0]) if np.ndim(phi) == 0 else out


def quadrature_phase_dist(
    state: QuasiBellState,
    s: float,
    branch: str,
    phi,
    spec: QuadratureSpec | None = None,
):
    """Marginal phase-sum/difference density at phi, by direct quadrature.

    Integrates |gamma||delta| W_sym over both radii and the complementary
    angle (phi_minus for the plus branch and vice versa), with the fixed
    angle set to phi.  ``phi`` may be a scalar or a 1-D array.
    """
    plus = _branch_sign(branch) > 0
    s = _require_s_below_one(s)

    def values(r_g, r_d, fixed, other):
        if plus:
            return w_symmetrized(state, r_g, r_d, fixed, other, s)
        return w_symmetrized(state, r_g, r_d, other, fixed, s)

    return _marginal(values, state, s, phi, spec)


def quadrature_normalization(
    state: QuasiBellState, s: float, spec: QuadratureSpec | None = None
) -> float:
    """Full four-variable quadrature of |gamma||delta| W_sym; expected 1.

    Evaluated in slabs over the gamma radius to bound memory.
    """
    s = _require_s_below_one(s)
    spec = spec or QuadratureSpec()
    r_nodes, r_weights = _radial_rule(state, s, spec)
    a_nodes, a_weight = _angular_rule(spec)

    r_d = r_nodes[:, None, None]
    plus = a_nodes[None, :, None]
    minus = a_nodes[None, None, :]
    slabs = []
    for r_g, w_g in zip(r_nodes, r_weights):
        values = w_symmetrized(state, r_g, r_d, plus, minus, s)
        inner = np.einsum("ras,r->", r_d * values, r_weights)
        slabs.append(w_g * r_g * float(inner))
    return a_weight**2 * math.fsum(slabs)


def quadrature_one_mode(
    state: QuasiBellState,
    s: float,
    mode: int,
    phi,
    spec: QuadratureSpec | None = None,
):
    """Marginal one-mode phase density at phi, by direct quadrature of W.

    Integrates the raw (unsymmetrized) W over the full complex plane of the
    other mode and over the mode's own radius, at fixed own angle phi.
    """
    if mode not in (1, 2):
        raise DomainError(f"mode must be 1 or 2, got {mode!r}")
    s = _require_s_below_one(s)

    def values(r_own, r_other, own_angle, other_angle):
        own = r_own * np.exp(1j * own_angle)
        other = r_other * np.exp(1j * other_angle)
        return w(state, own, other, s) if mode == 1 else w(state, other, own, s)

    return _marginal(values, state, s, phi, spec)


class FockChiResult(NamedTuple):
    """Characteristic-function value from the Fock trace, with error bound."""

    value: complex
    bound: float


def _coherent_pair(alpha: complex, n_cut: int) -> np.ndarray:
    """Number-basis coefficients of |alpha> and |-alpha> up to n_cut, as two columns."""
    coeffs = np.empty(n_cut + 1, dtype=complex)
    coeffs[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_cut + 1):
        coeffs[n] = coeffs[n - 1] * alpha / math.sqrt(n)
    return np.column_stack([coeffs, np.where(np.arange(n_cut + 1) % 2, -coeffs, coeffs)])


def _displacement_matrix(xi: complex, n_cut: int) -> np.ndarray:
    """Number-basis matrix of the one-mode displacement operator D(xi).

    For m >= n:  D_mn = sqrt(m!/n!) / (m-n)! xi^(m-n) e^(-|xi|^2/2) p_n^(m-n)(|xi|^2),
    with log-factorials by cumulative sum and p_j^(k) = L_j^(k) / C(j+k, j) from the
    forward three-term Laguerre recurrence in the degree, run on the steps p_(j+1) - p_j
    so that small |xi| does not cancel.  The upper triangle follows from
    D(xi)^dagger = D(-xi), which has the same magnitudes.
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


def _poisson_tail(mean: float, n_cut: int) -> float:
    """P(N > n_cut) for N ~ Poisson(mean).

    For mean <= n_cut + 1, the upward series sum_(j > n_cut) e^(-mean) mean^j / j!,
    summed relative to its first term.  Past that the tail is at least about 1/2, so it
    is 1 minus the n_cut + 1 head terms.
    """
    if mean == 0.0:
        return 0.0
    if mean > n_cut + 1:
        log_mean = math.log(mean)
        return 1.0 - math.fsum(
            math.exp(-mean + j * log_mean - math.lgamma(j + 1.0)) for j in range(n_cut + 1)
        )
    j = n_cut + 1
    term = total = 1.0
    while term > 1e-17 * total:
        j += 1
        term *= mean / j
        total += term
    log_first = -mean + (n_cut + 1) * math.log(mean) - math.lgamma(n_cut + 2.0)
    return math.exp(log_first + math.log(total))


def fock_chi_oracle(
    state: QuasiBellState, xi: complex, eta: complex, s: float, n_cut: int = 40
) -> FockChiResult:
    """Characteristic function via a truncated number-basis trace of rho D(xi, eta).

    The four pure-state overlap terms <+-alpha, +-beta| D |+-alpha, +-beta>
    are assembled from truncated coherent vectors and the exact number-basis
    displacement matrices, then multiplied by the s-ordering factor
    exp(s(|xi|^2+|eta|^2)/2).  A rigorous truncation bound (driven by the
    coherent tails beyond n_cut; take n_cut >= 4 max(|alpha|^2, |beta|^2) + 20
    for comfortable margins) is returned alongside and must stay below
    ``FOCK_BOUND_TOL``.
    """
    if not isinstance(n_cut, int) or isinstance(n_cut, bool) or n_cut < 1:
        raise DomainError(f"n_cut must be an integer >= 1, got {n_cut!r}")
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"ordering parameter must be finite, got {s!r}")
    xi = complex(xi)
    eta = complex(eta)

    vec_a = _coherent_pair(state.alpha, n_cut)
    vec_b = _coherent_pair(state.beta, n_cut)
    overlap_a = vec_a.conj().T @ _displacement_matrix(xi, n_cut) @ vec_a
    overlap_b = vec_b.conj().T @ _displacement_matrix(eta, n_cut) @ vec_b

    mu, nu = state.mu, state.nu
    weights = np.outer(np.conj([mu, nu]), [mu, nu])
    n2 = normalization_constant(state) ** 2
    prefactor = math.exp(0.5 * s * (abs(xi) ** 2 + abs(eta) ** 2))
    value = prefactor * n2 * complex(np.sum(weights * overlap_a * overlap_b))

    err_a = 2.0 * math.sqrt(_poisson_tail(abs(state.alpha) ** 2, n_cut))
    err_b = 2.0 * math.sqrt(_poisson_tail(abs(state.beta) ** 2, n_cut))
    per_term = err_a + err_b + err_a * err_b
    bound = prefactor * n2 * (abs(mu) + abs(nu)) ** 2 * per_term
    if bound > FOCK_BOUND_TOL:
        raise CutoffTooSmallError(
            f"Fock truncation bound {bound:.3e} exceeds {FOCK_BOUND_TOL:g} at "
            f"n_cut={n_cut}; increase the cutoff"
        )
    return FockChiResult(value=value, bound=bound)
