"""Independent numerical validation of the analytic formulas.

Two oracle families live here:

* quadrature marginalization of the quasi-probability W (Gauss-Legendre
  radially, uniform trapezoid angularly, which is spectrally accurate for the
  periodic integrands), checking normalization and the phase-distribution
  series.  W is a sum of terms that are each a product of one factor per
  mode, so the four-variable node sum is computed separably: per angle, one
  radial sum per mode, combined as W's terms are.  The nodes are those of the
  direct four-variable sum (default 40 radial x 64 angular), and results
  differ from it by rounding only.  W's OverflowError comes from W evaluated
  at the innermost radial node pair, where the interference exponent peaks;
  and
* a truncated-Fock-basis trace of the displacement operator, checking the
  closed-form characteristic function.  The number-basis displacement
  matrices are built from log-factorials and the forward three-term
  recurrence of the generalized Laguerre polynomials in the degree, one
  recurrence for both modes' matrices; the truncation bound uses the
  Poisson tail, summed by its upward series (or as one minus its head once
  the mean passes the cutoff).

What depends only on an integer is built once and kept read-only in a
small bounded cache: the Gauss-Legendre rule per radial node count, and per
Fock cutoff the index grids, log-factorial base and recurrence denominators
of the displacement matrices.  Nothing that depends on the state is cached.

Node sums use NumPy's pairwise summation on fixed shapes, so results are
bit-stable across runs for a fixed spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CutoffTooSmallError, DomainError
from .quasiprob import (
    _finite_array,
    _require_real_s,
    _require_s_below_one,
    _square_of_spread,
    w,
    w_symmetrized,
)
from .specfun import _branch_sign, _positive_int
from .states import QuasiBellState, _require_mode, _sq_sum, normalization_constant

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
        sigma = self.radial_cutoff_sigma
        if not sigma > 0.0:
            raise ValueError(f"radial_cutoff_sigma must be positive, got {sigma!r}")
        if not math.isfinite(sigma):
            raise ValueError(f"radial_cutoff_sigma must be finite, got {sigma!r}")


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=8, typed=True)
def _legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] for n nodes, as read-only arrays."""
    return _read_only(*leggauss(n))


def _radial_rule(state: QuasiBellState, s: float, spec: QuadratureSpec):
    """Gauss-Legendre nodes and weights on [0, R]; DomainError if R^2 is not finite."""
    radius = max(abs(state.alpha), abs(state.beta)) + spec.radial_cutoff_sigma * math.sqrt(
        (1.0 - s) / 2.0
    )
    if not math.isfinite(radius * radius):
        raise DomainError(
            f"radial_cutoff_sigma = {spec.radial_cutoff_sigma!r} gives the radius R = {radius!r}, "
            "whose square is not finite"
        )
    nodes, weights = _legendre_rule(spec.n_radial)
    return 0.5 * radius * (nodes + 1.0), 0.5 * radius * weights


def _angular_rule(spec: QuadratureSpec):
    """Uniform angular nodes with the periodic trapezoid weight 2pi/n."""
    nodes = _TWO_PI * np.arange(spec.n_angular) / spec.n_angular
    return nodes, _TWO_PI / spec.n_angular


def _checked_rules(
    state: QuasiBellState, s: float, spec: QuadratureSpec | None, symmetrized: bool
):
    """Radial and angular rules, after the refusal check at the innermost node pair.

    The interference exponent of W peaks at the smallest radii, so W (or W_sym)
    at the innermost radial node pair raises quasiprob's OverflowError exactly
    when W on the whole node grid would.
    """
    spec = spec or QuadratureSpec()
    r_nodes, r_weights = _radial_rule(state, s, spec)
    r_in = r_nodes[0]
    if symmetrized:
        w_symmetrized(state, r_in, r_in, 0.0, 0.0, s)
    else:
        w(state, r_in, r_in, s)
    return (r_nodes, r_weights, *_angular_rule(spec))


def _mode_factors(amp: complex, r, angles, s: float, log_gauss: float, log_interf: float):
    """Factors of W for one mode at z = r e^(i angle), on angles.shape + r.shape.

    Returns e^(log_gauss) times each Gaussian e^(-2|z -+ amp|^2/(1-s)), and
    e^(log_interf) e^(2(s|amp|^2 - |z|^2)/(1-s)) e^(i theta_z) with
    theta_z = 4 Im(amp* z)/(1-s).
    """
    one_minus = 1.0 - s
    z = r * np.exp(1j * np.asarray(angles, dtype=float)[..., None])
    gauss_minus = np.exp(log_gauss - 2.0 * np.abs(z - amp) ** 2 / one_minus)
    gauss_plus = np.exp(log_gauss - 2.0 * np.abs(z + amp) ** 2 / one_minus)
    modulus = np.exp(log_interf + 2.0 * (s * abs(amp) ** 2 - r**2) / one_minus)
    theta = 4.0 * (np.conj(amp) * z).imag / one_minus
    return gauss_minus, gauss_plus, modulus * np.exp(1j * theta)


def _factors(state: QuasiBellState, s: float, r_nodes, gamma_angles, delta_angles):
    """Per-mode factors (g, d) of W on the radial nodes, ascending from r_nodes[0].

    W(gamma, delta) = _combine(state, g, d, False) pointwise.  The prefactor
    4 N^2/(pi^2 (1-s)^2) is split evenly between the modes.  Each interference
    factor is taken relative to its peak, at the innermost node, and the two
    peaks are given back in equal halves, so no factor exceeds the square root
    of W's largest interference term on the grid.  Unshifted, one mode's own
    exponent can pass the float range where the pair's does not (a wide
    radial cutoff moves the innermost node out).  DomainError, naming s, where
    (pi (1-s))^2 passes the float range (s below about -4.3e153).
    """
    spread = _square_of_spread(math.pi * (1.0 - s), s)
    log_pref = math.log(4.0 * normalization_constant(state) ** 2 / spread)
    peaks = [
        2.0 * (s * abs(amp) ** 2 - r_nodes[0] ** 2) / (1.0 - s) for amp in (state.alpha, state.beta)
    ]
    half = 0.5 * (peaks[0] + peaks[1] + log_pref)
    g = _mode_factors(state.alpha, r_nodes, gamma_angles, s, 0.5 * log_pref, half - peaks[0])
    d = _mode_factors(state.beta, r_nodes, delta_angles, s, 0.5 * log_pref, half - peaks[1])
    return g, d


def _mode_sums(state: QuasiBellState, s: float, r_nodes, r_weights, gamma_angles, delta_angles):
    """Gauss-Legendre sums of r times each per-mode factor over its radius."""
    rw = r_nodes * r_weights
    g, d = _factors(state, s, r_nodes, gamma_angles, delta_angles)
    return tuple(np.sum(f * rw, axis=-1) for f in g), tuple(np.sum(f * rw, axis=-1) for f in d)


def _combine(state: QuasiBellState, g, d, symmetrized: bool):
    """W or W_sym from per-mode factors, or from per-mode sums of them.

    W = |mu|^2 a_1 b_1 + |nu|^2 a_2 b_2 + 2 Re(mu* nu f_gamma f_delta) is
    bilinear in the two modes' parts, so a node sum of W over both radii is
    this combination of the two radial sums.  In
    W_sym = (W(gamma, delta) + W(-gamma, -delta))/2 the Gaussians swap and each
    f turns into its conjugate, so the Im(mu* nu) part cancels.
    """
    mu_sq, nu_sq = abs(state.mu) ** 2, abs(state.nu) ** 2
    cross = np.conj(state.mu) * state.nu
    if symmetrized:
        gauss = 0.5 * (mu_sq + nu_sq) * (g[0] * d[0] + g[1] * d[1])
        return gauss + 2.0 * cross.real * (g[2] * d[2]).real
    return mu_sq * g[0] * d[0] + nu_sq * g[1] * d[1] + 2.0 * (cross * g[2] * d[2]).real


def quadrature_phase_dist(
    state: QuasiBellState,
    s: float,
    branch: str,
    phi,
    spec: QuadratureSpec | None = None,
):
    """Marginal phase-sum/difference density at phi, by quadrature.

    Integrates |gamma||delta| W_sym over both radii and the complementary
    angle (phi_minus for the plus branch and vice versa), with the fixed
    angle set to phi.  Per angular node a_j, W_sym sits at
    phi_gamma = (phi_plus - phi_minus)/2 and phi_delta = (phi_plus + phi_minus)/2,
    and its radial double sum is a product of one radial sum per mode.
    ``phi`` may be a scalar or an array of any shape; a phi that is not
    finite is a DomainError.
    """
    plus = _branch_sign(branch) > 0
    s = _require_s_below_one(s)
    phi = _finite_array(phi, float, "phi")
    r_nodes, r_weights, a_nodes, a_weight = _checked_rules(state, s, spec, True)
    fixed = np.mod(np.atleast_1d(phi), _TWO_PI)[..., None]
    # (phi_plus, phi_minus) is (phi, a_j) on the plus branch and (a_j, phi) on the minus.
    half_diff = 0.5 * (fixed - a_nodes) if plus else 0.5 * (a_nodes - fixed)
    g, d = _mode_sums(state, s, r_nodes, r_weights, half_diff, 0.5 * (fixed + a_nodes))
    out = a_weight * np.sum(_combine(state, g, d, True), axis=-1)
    return float(out[0]) if np.ndim(phi) == 0 else out


def quadrature_normalization(
    state: QuasiBellState, s: float, spec: QuadratureSpec | None = None
) -> float:
    """Full four-variable quadrature of |gamma||delta| W_sym; expected 1.

    On the (phi_plus, phi_minus) node grid, a_i = 2 pi i/n, the mode angles
    (a_i -+ a_j)/2 = pi k/n take only 3n - 2 values, so each mode's radial
    sums are taken once per value and looked up for every node pair.
    """
    s = _require_s_below_one(s)
    r_nodes, r_weights, a_nodes, a_weight = _checked_rules(state, s, spec, True)
    n = a_nodes.size
    half = math.pi * np.arange(1 - n, 2 * n - 1) / n
    g, d = _mode_sums(state, s, r_nodes, r_weights, half, half)
    i, j = np.ogrid[:n, :n]
    g = tuple(x[i - j + n - 1] for x in g)
    d = tuple(x[i + j + n - 1] for x in d)
    return a_weight**2 * float(np.sum(_combine(state, g, d, True)))


def quadrature_one_mode(
    state: QuasiBellState,
    s: float,
    mode: int,
    phi,
    spec: QuadratureSpec | None = None,
):
    """Marginal one-mode phase density at phi, by quadrature of W.

    Integrates the raw (unsymmetrized) W over the full complex plane of the
    other mode and over the mode's own radius, at fixed own angle phi.  The
    other mode's sums over its plane do not depend on phi and are taken once.
    A phi that is not finite is a DomainError.
    """
    mode = _require_mode(mode)
    s = _require_s_below_one(s)
    phi = _finite_array(phi, float, "phi")
    r_nodes, r_weights, a_nodes, a_weight = _checked_rules(state, s, spec, False)
    own = np.atleast_1d(phi)
    angles = (own, a_nodes) if mode == 1 else (a_nodes, own)
    g, d = _mode_sums(state, s, r_nodes, r_weights, *angles)
    if mode == 1:
        d = tuple(a_weight * np.sum(x) for x in d)
    else:
        g = tuple(a_weight * np.sum(x) for x in g)
    out = _combine(state, g, d, False)
    return float(out[0]) if np.ndim(phi) == 0 else out


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


@lru_cache(maxsize=8)
def _fock_tables(dim: int):
    """The parts of the displacement matrices in a dim-state basis that do not depend on xi.

    Returns the Laguerre step denominators j + 1 + k (row j), the column grid,
    diff = max(rows - cols, 0) and the log-factorial base
    log(sqrt(m!/n!) / (m-n)!) on the lower triangle, all read-only.
    """
    k = np.arange(dim)
    rows, cols = k[:, None], k[None, :]
    diff = np.maximum(rows - cols, 0)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
    base = 0.5 * (log_fact[rows] - log_fact[cols]) - log_fact[diff]
    return _read_only(np.arange(1, dim)[:, None] + k, cols, diff, base)


def _displacement_matrices(xis, n_cut: int) -> np.ndarray:
    """Number-basis matrices of the one-mode displacement operators D(xi), one per xi.

    For m >= n:  D_mn = sqrt(m!/n!) / (m-n)! xi^(m-n) e^(-|xi|^2/2) p_n^(m-n)(|xi|^2),
    with log-factorials by cumulative sum and p_j^(k) = L_j^(k) / C(j+k, j) from the
    forward three-term Laguerre recurrence in the degree, run on the steps p_(j+1) - p_j
    so that small |xi| does not cancel; one recurrence serves every nonzero xi.  The
    upper triangle follows from D(xi)^dagger = D(-xi), which has the same magnitudes.
    xi = 0 gives the exact identity.
    """
    dim = n_cut + 1
    out = np.empty((len(xis), dim, dim), dtype=complex)
    out[:] = np.eye(dim)
    live = [i for i, xi in enumerate(xis) if xi != 0]
    if not live:
        return out
    xis = [xis[i] for i in live]
    denominators, cols, diff, base = _fock_tables(dim)
    x = np.array([abs(xi) ** 2 for xi in xis])[:, None]
    # p[j, i, k] = p_j^(k) at the i-th |xi|^2.
    p = np.ones((dim, len(xis), dim))
    step = np.zeros((len(xis), dim))
    for j in range(dim - 1):
        step *= j
        step -= x * p[j]
        step /= denominators[j]
        np.add(p[j], step, out=p[j + 1])
    log_mag = base + diff * np.array([math.log(abs(xi)) for xi in xis])[:, None, None]
    p_lower = p.transpose(1, 0, 2)[:, cols, diff]
    magnitude = np.tril(np.exp(log_mag - 0.5 * x[:, :, None]) * p_lower)
    # e^(i arg(+-xi) d) for d = 0 .. n_cut, looked up at d = m - n.
    angles = np.array([[1j * np.angle(xi), 1j * np.angle(-xi)] for xi in xis])
    phases = np.exp(angles[:, :, None] * np.arange(dim))
    low = magnitude * phases[:, 0, diff]
    upp = magnitude * phases[:, 1, diff]
    out[live] = low + np.tril(upp, -1).conj().transpose(0, 2, 1)
    return out


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
    ``FOCK_BOUND_TOL``.  DomainError if |xi|^2 + |eta|^2, the s-ordering factor
    or the trace is not finite.
    """
    n_cut = _positive_int(n_cut, "n_cut")
    s = _require_real_s(s)
    xi = complex(xi)
    eta = complex(eta)
    mod_sq = _sq_sum(xi, eta)
    if not math.isfinite(mod_sq):
        raise DomainError(f"|xi|^2+|eta|^2 must be finite, got xi={xi!r}, eta={eta!r}")
    try:
        prefactor = math.exp(0.5 * s * mod_sq)
    except OverflowError:
        raise DomainError(
            f"the s-ordering factor exp(s(|xi|^2+|eta|^2)/2) is past the float range at "
            f"xi={xi!r}, eta={eta!r}, s={s!r}"
        ) from None

    vec_a = _coherent_pair(state.alpha, n_cut)
    vec_b = _coherent_pair(state.beta, n_cut)
    mu, nu = state.mu, state.nu
    weights = np.outer(np.conj([mu, nu]), [mu, nu])
    n2 = normalization_constant(state) ** 2
    # A trace that leaves the float range is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        disp_a, disp_b = _displacement_matrices((xi, eta), n_cut)
        overlap_a = vec_a.conj().T @ disp_a @ vec_a
        overlap_b = vec_b.conj().T @ disp_b @ vec_b
        value = prefactor * n2 * complex(np.sum(weights * overlap_a * overlap_b))

    err_a = 2.0 * math.sqrt(_poisson_tail(abs(state.alpha) ** 2, n_cut))
    err_b = 2.0 * math.sqrt(_poisson_tail(abs(state.beta) ** 2, n_cut))
    per_term = err_a + err_b + err_a * err_b
    bound = prefactor * n2 * (abs(mu) + abs(nu)) ** 2 * per_term
    if not bound <= FOCK_BOUND_TOL:
        raise CutoffTooSmallError(
            f"Fock truncation bound {bound:.3e} exceeds {FOCK_BOUND_TOL:g} at "
            f"n_cut={n_cut}; increase the cutoff"
        )
    if not np.isfinite(value):
        raise DomainError(
            f"the number-basis trace at xi={xi!r}, eta={eta!r} is not finite: "
            f"the displacement matrix at n_cut={n_cut} is past the float range there"
        )
    return FockChiResult(value=value, bound=bound)
