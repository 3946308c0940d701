"""Independent numerical validation of the analytic formulas.

Two oracle families live here:

* quadrature marginalization of the quasi-probability W (Gauss-Legendre
  radially, uniform trapezoid angularly, which is spectrally accurate for the
  periodic integrands), checking normalization and the phase-distribution
  series.  W is a sum of terms that are each a product of one factor per
  mode, so each oracle takes each mode's radial sums once, on the angles that
  mode needs, and combines them as W's terms are.  Each equals, up to
  rounding, a node sum (default 40 radial x 64 angular nodes a_j) of r_1 r_2
  W over both modes' grids (normalization), over the other mode's grid and
  the own radius (one-mode line), or of r_1 r_2 W_sym over both radii and
  the complementary angle at phi -+ a_j (phase line).  W's OverflowError
  comes from W at the innermost radial node pair, where its exponent peaks;
  and
* a truncated-Fock-basis trace of the displacement operator, checking the
  closed-form characteristic function.  D(xi) = E (M + P S^T P) E* with
  E = diag(e^(i m arg xi)), P = diag((-1)^m), M the lower triangle of D
  with its phases e^(i (m-n) arg xi) taken out (real) and S the strict
  lower part of M.  M is built from log-factorials and the
  forward three-term recurrence of the generalized Laguerre polynomials in
  the degree, one recurrence for both modes; the phases go into the
  coherent columns, so each overlap block takes two real matrix products.
  The truncation bound uses the Poisson tail, summed by its upward series
  (or as one minus its head once the mean passes the cutoff).

What depends only on an integer is built once and kept read-only in a
small bounded cache: the Gauss-Legendre rule per radial node count, and per
Fock cutoff the Laguerre step rows, square roots, signs and the
log-factorial base of the triangles.  Nothing that depends on the state is
cached.

Node sums use NumPy's pairwise summation on fixed shapes, so results are
bit-stable across runs for a fixed spec.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CutoffTooSmallError, DomainError
from .quasiprob import (
    _finite_array,
    _require_real_s,
    _require_s_below_one,
    _square_of_spread,
    w,
    w_symmetrized,  # not called here; perfbench/spans.py binds catphase.oracle.w_symmetrized
)
from .specfun import _branch_sign, _integer
from .states import QuasiBellState, _number, _require_mode, _sq_sum, normalization_constant

__all__ = [
    "QuadratureSpec",
    "quadrature_phase_dist",
    "quadrature_normalization",
    "quadrature_one_mode",
    "fock_chi_oracle",
]

_TWO_PI = 2.0 * math.pi

# A reported Fock truncation bound above this raises CutoffTooSmallError.
_FOCK_BOUND_TOL = 1e-6


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and radial cutoff for the quadrature oracles.

    The radial domain is [0, R] with R = max(|alpha|, |beta|)
    + radial_cutoff_sigma * sqrt((1-s)/2); the Gaussian envelope
    exp(-2 r^2/(1-s)) makes the neglected tail negligible at the default
    eight sigma.  A bool, a string or a complex field is a DomainError.
    """

    n_radial: int = 40
    n_angular: int = 64
    radial_cutoff_sigma: float = 8.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_radial", _integer(self.n_radial, "n_radial"))
        object.__setattr__(self, "n_angular", _integer(self.n_angular, "n_angular"))
        if self.n_radial < 16:
            raise ValueError(f"n_radial must be >= 16, got {self.n_radial!r}")
        if self.n_angular < 32:
            raise ValueError(f"n_angular must be >= 32, got {self.n_angular!r}")
        sigma = _number(self.radial_cutoff_sigma, "radial_cutoff_sigma")
        object.__setattr__(self, "radial_cutoff_sigma", sigma)
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
    from numpy.polynomial.legendre import leggauss  # about 1 MiB, loaded for quadrature only

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


def _checked_rules(state: QuasiBellState, s: float, spec: QuadratureSpec | None):
    """Radial and angular rules, after the refusal check at the innermost node pair.

    The interference exponent of W peaks at the smallest radii, and W's
    refusal depends on |gamma|^2 + |delta|^2 alone, so one W at the innermost
    radial node pair raises quasiprob's OverflowError exactly when W (or
    W_sym) on the whole node grid would.
    """
    spec = spec or QuadratureSpec()
    r_nodes, r_weights = _radial_rule(state, s, spec)
    w(state, r_nodes[0], r_nodes[0], s)
    return (r_nodes, r_weights, *_angular_rule(spec))


def _mode_factors(amp: complex, r, angles, s: float, log_gauss: float, log_interf: float):
    """Factors of W for one mode at z = r e^(i angle), on angles.shape + r.shape.

    Returns e^(log_gauss) times each Gaussian e^(-2|z -+ amp|^2/(1-s)), and
    e^(log_interf) e^(2(s|amp|^2 - r^2)/(1-s)) e^(i theta_z) with
    theta_z = 4 Im(amp* z)/(1-s).  With psi = angle - arg amp, the parts of amp
    along and across z, |amp| cos psi and |amp| sin psi, are taken on the
    angle axis only; then |z -+ amp|^2 = (r -+ along)^2 + across^2 and
    theta_z = 4 r across/(1-s).  The expanded r^2 + |amp|^2 -+ 2 r along would
    cancel, and near s = 1 form inf - inf.
    """
    one_minus = 1.0 - s
    psi = np.asarray(angles, dtype=float)[..., None] - cmath.phase(amp)
    along = abs(amp) * np.cos(psi)
    across = abs(amp) * np.sin(psi)
    rest = log_gauss - 2.0 * across**2 / one_minus
    gauss_minus = np.exp(rest - 2.0 * (r - along) ** 2 / one_minus)
    gauss_plus = np.exp(rest - 2.0 * (r + along) ** 2 / one_minus)
    modulus = np.exp(log_interf + 2.0 * (s * abs(amp) ** 2 - r**2) / one_minus)
    theta = across * (4.0 * r / one_minus)
    interference = np.empty(theta.shape, dtype=complex)
    np.multiply(modulus, np.cos(theta), out=interference.real)
    np.multiply(modulus, np.sin(theta), out=interference.imag)
    return gauss_minus, gauss_plus, interference


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
    bilinear in the two modes' parts, so a node sum of W over both modes'
    nodes is this combination of the two modes' sums; the normalization and
    the one-mode lines take raw W so.  The phase lines take
    W_sym = (W(gamma, delta) + W(-gamma, -delta))/2, in which the Gaussians
    swap and each f turns into its conjugate, so the Im(mu* nu) part cancels.
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
    angle set to phi.  Its nodes sit at phi -+ a_j, (phi_plus, phi_minus) =
    (phi, phi - a_j) on the plus line and (phi + a_j, phi) on the minus, so
    phi_gamma = (phi_plus - phi_minus)/2 = a_j/2 for every phi (mode 1's sums
    are taken once) and phi_delta = phi -+ a_j/2.  ``phi`` may be a scalar or
    an array of any shape; a phi that is not finite is a DomainError.
    """
    sign = _branch_sign(branch)
    s = _require_s_below_one(s)
    phi = _finite_array(phi, float, "phi")
    r_nodes, r_weights, a_nodes, a_weight = _checked_rules(state, s, spec)
    fixed = np.mod(np.atleast_1d(phi), _TWO_PI)[..., None]
    half = 0.5 * a_nodes
    g, d = _mode_sums(state, s, r_nodes, r_weights, half, fixed - sign * half)
    out = a_weight * np.sum(_combine(state, g, d, True), axis=-1)
    return float(out[0]) if np.ndim(phi) == 0 else out


def quadrature_normalization(
    state: QuasiBellState, s: float, spec: QuadratureSpec | None = None
) -> float:
    """Quadrature of |gamma||delta| W over both modes' planes; expected 1.

    W is bilinear in the modes (see _combine): its node sum is a combination
    of one plane sum per mode.
    """
    s = _require_s_below_one(s)
    r_nodes, r_weights, a_nodes, a_weight = _checked_rules(state, s, spec)
    g, d = (
        tuple(a_weight * np.sum(x) for x in sums)
        for sums in _mode_sums(state, s, r_nodes, r_weights, a_nodes, a_nodes)
    )
    return float(_combine(state, g, d, False))


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
    r_nodes, r_weights, a_nodes, a_weight = _checked_rules(state, s, spec)
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


@lru_cache(maxsize=8)
def _fock_tables(dim: int):
    """The parts of the number-basis triangles in a dim-state basis that do not depend on xi.

    Returns the Laguerre step rows j/(j+1+k) and 1/(j+1+k) (row j, for
    j = 0 .. dim-2), sqrt(n) for n = 1 .. dim-1, the signs (-1)^n, and the
    log-factorial base log(sqrt(m!/n!) / (m-n)!) with -inf above the diagonal,
    all read-only.
    """
    k = np.arange(dim)
    denominators = np.arange(1, dim)[:, None] + k
    rows, cols = k[:, None], k[None, :]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
    base = 0.5 * (log_fact[rows] - log_fact[cols]) - log_fact[np.maximum(rows - cols, 0)]
    base[rows < cols] = -math.inf
    return _read_only(
        np.arange(dim - 1)[:, None] / denominators,
        1.0 / denominators,
        np.sqrt(np.arange(1.0, dim)),
        np.where(k % 2, -1.0, 1.0),
        base,
    )


def _laguerre_triangles(xis, n_cut: int) -> np.ndarray:
    """The real lower triangles M of the one-mode displacement operators D(xi), one per xi.

    For m >= n:  M_mn = sqrt(m!/n!) / (m-n)! |xi|^(m-n) e^(-|xi|^2/2) p_n^(m-n)(|xi|^2),
    and 0 above the diagonal, so that D(xi) = E (M + P S^T P) E* with
    E = diag(e^(i m arg xi)), P = diag((-1)^m) and S the strict lower part of M
    (the upper triangle follows from D(xi)^dagger = D(-xi)).  Here
    p_j^(k) = L_j^(k) / C(j+k, j) comes from the forward three-term Laguerre
    recurrence in the degree, run on the steps p_(j+1) - p_j so that small
    |xi| does not cancel.  The recurrence is linear, so it carries the power
    |xi|^k from its start p_0^(k) = 1; xi = 0 then needs no log and gives the
    exact identity.  One recurrence serves every xi.
    """
    dim = n_cut + 1
    ratios, inverses, _, _, base = _fock_tables(dim)
    mods = np.array([abs(xi) for xi in xis])
    x = mods * mods
    x_inverses = inverses[:, None, :] * x[:, None]
    # p[j, i, j + k] = |xi_i|^k p_j^(k): row j starts at column j, so M_mn = p[n, i, m].
    p = np.zeros((dim, len(xis), 2 * dim - 1))
    row = p[0, :, :dim]
    np.power(mods[:, None], np.arange(dim), out=row)
    step = np.zeros((len(xis), dim))
    term = np.empty_like(step)
    for j in range(n_cut):
        np.multiply(step, ratios[j], out=step)
        np.multiply(row, x_inverses[j], out=term)
        np.subtract(step, term, out=step)
        row, previous = p[j + 1, :, j + 1 : j + 1 + dim], row
        np.add(previous, step, out=row)
    out = np.exp(base - 0.5 * x[:, None, None])
    out *= p[:, :, :dim].transpose(1, 2, 0)
    return out


def _coherent_columns(amps, n_cut: int) -> np.ndarray:
    """Number-basis coefficients of |amp> and |-amp> up to n_cut, as two columns per amp."""
    dim = n_cut + 1
    _, _, roots, signs, _ = _fock_tables(dim)
    terms = np.empty((len(amps), dim), dtype=complex)
    terms[:, 0] = [math.exp(-0.5 * abs(amp) ** 2) for amp in amps]
    np.divide(np.array(amps, dtype=complex)[:, None], roots, out=terms[:, 1:])
    out = np.empty((len(amps), dim, 2), dtype=complex)
    np.cumprod(terms, axis=1, out=out[..., 0])
    np.multiply(out[..., 0], signs, out=out[..., 1])
    return out


def _overlaps(amps, xis, n_cut: int) -> np.ndarray:
    """<a|D(xi)|b> for a, b in (|amp>, |-amp>), truncated at n_cut: a 2 x 2 block per pair.

    With D(xi) = E (M + P S^T P) E* (see _laguerre_triangles), the phases go
    into the columns: V = E* (|amp>, |-amp>) holds the coherent columns of
    amp e^(-i arg xi), and P V is V with its columns swapped, so the block is
    V^dagger M V + J (V^dagger S^T V) J with J the swap.  The two products
    with the real M and S^T = M^T - diag(M) are taken on V's real and
    imaginary parts.
    """
    turned = [amp * (xi.conjugate() / abs(xi)) if xi else amp for amp, xi in zip(amps, xis)]
    cols = _coherent_columns(turned, n_cut)
    m = _laguerre_triangles(xis, n_cut)
    parts = cols.view(float)  # (re, im) of each column
    lower = m @ parts
    upper = m.transpose(0, 2, 1) @ parts
    upper -= m.diagonal(axis1=1, axis2=2)[..., None] * parts
    adjoint = cols.conj().transpose(0, 2, 1)
    return adjoint @ lower.view(complex) + (adjoint @ upper.view(complex))[:, ::-1, ::-1]


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
    are products of one 2 x 2 overlap block per mode, each taken from the
    truncated coherent columns and the real triangle of the exact
    number-basis displacement matrix (see _overlaps), then multiplied by the
    s-ordering factor exp(s(|xi|^2+|eta|^2)/2).  A rigorous truncation bound
    (driven by the coherent tails beyond n_cut; take
    n_cut >= 4 max(|alpha|^2, |beta|^2) + 20 for comfortable margins) is
    returned alongside; above 1e-6 it is a CutoffTooSmallError.  DomainError
    if |xi|^2 + |eta|^2, the s-ordering factor or the trace is not finite.
    """
    n_cut = _integer(n_cut, "n_cut", 1)
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

    mu, nu = state.mu, state.nu
    weights = np.outer(np.conj([mu, nu]), [mu, nu])
    n2 = normalization_constant(state) ** 2
    # A trace that leaves the float range is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        overlap_a, overlap_b = _overlaps((state.alpha, state.beta), (xi, eta), n_cut)
        value = prefactor * n2 * complex(np.sum(weights * overlap_a * overlap_b))

    err_a = 2.0 * math.sqrt(_poisson_tail(abs(state.alpha) ** 2, n_cut))
    err_b = 2.0 * math.sqrt(_poisson_tail(abs(state.beta) ** 2, n_cut))
    per_term = err_a + err_b + err_a * err_b
    bound = prefactor * n2 * (abs(mu) + abs(nu)) ** 2 * per_term
    if not bound <= _FOCK_BOUND_TOL:
        raise CutoffTooSmallError(
            f"Fock truncation bound {bound:.3e} exceeds {_FOCK_BOUND_TOL:g} at "
            f"n_cut={n_cut}; increase the cutoff"
        )
    if not np.isfinite(value):
        raise DomainError(
            f"the number-basis trace at xi={xi!r}, eta={eta!r} is not finite: "
            f"the displacement matrix at n_cut={n_cut} is past the float range there"
        )
    return FockChiResult(value=value, bound=bound)
