"""Independent numerical validation of the analytic formulas.

Two oracle families live here:

* quadrature marginalization of the quasi-probability W (Gauss-Legendre
  radially, uniform trapezoid angularly, which is spectrally accurate for the
  periodic integrands), checking normalization and the phase-distribution
  series.  W is a sum of terms that are each a product of one factor per
  mode, so each oracle takes each mode's radial sums once, on the angles that
  mode needs, and combines them as W's terms are.  The Gauss-Legendre radii
  are symmetric about their centre, so each mode's interference sum takes
  the cosines and sines of half its radial phases and mirrors them onto the
  other half; an odd node count's middle node has no mirror and is taken
  with its own phase (see _radial_sums).  Each oracle equals, up to
  rounding, a node sum (default 40 radial x 64 angular nodes a_j) of r_1 r_2
  W over both modes' grids (normalization), over the other mode's grid and
  the own radius (one-mode line), or of r_1 r_2 W_sym over both radii and
  the complementary angle at phi -+ a_j (phase line).  W's OverflowError
  comes from W at the innermost radial node pair, where its exponent peaks;
  and
* a truncated-Fock-basis trace of the displacement operator, checking the
  closed-form characteristic function.  D(xi) is taken in its normally
  ordered form e^(-|xi|^2/2) e^(xi a^dagger) e^(-xi* a), whose two factors
  have exact lower-triangular number-basis matrices; contracted with the
  truncated coherent columns, each factor reduces to partial sums of an
  exponential series, and neither D nor its factors are formed (see
  _overlaps).  The truncation bound uses the Poisson tail, summed by its
  upward series (or as one minus its head once the mean passes the
  cutoff), and adds an estimate of the contraction's rounding.

What depends only on an integer is built once and kept read-only in a
small bounded cache: the Gauss-Legendre rule per radial node count, and per
Fock cutoff the integers, their square roots and the signs.  Nothing that
depends on the state is cached.

Each radial sum is one einsum contraction over the radial nodes, which
takes no BLAS path, so each output's summation order depends only on the
radial node count: results are bit-stable across runs for a fixed spec and
do not depend on how many phases are asked for, or in what shape.  The
angular sums use NumPy's pairwise summation on fixed shapes.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    _INDEX_CAP,
    CutoffTooSmallError,
    DomainError,
    _branch_sign,
    _finite,
    _finite_array,
    _integer,
    _number,
    _require_mode,
    _require_s_below_one,
)
from .quasiprob import (
    _square_of_spread,
    w,
    w_symmetrized,  # not called here; perfbench/spans.py binds catphase.oracle.w_symmetrized
)
from .states import QuasiBellState, _sq_sum, normalization_constant

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
# Rounding of one overlap block per unit of e^(2|amp||xi| - |xi|^2/2) (see _overlaps): four
# times the largest ratio seen against 50-digit mpmath, |amp| <= 4.5, n_cut <= 8|amp|^2 + 40.
_ROUNDING_SCALE = 16.0 * sys.float_info.epsilon
# Past |amp|^2 = 10 that rounding grows as |amp|^2: the columns' first coefficient
# e^(-|amp|^2/2) and their running product up to the peak near m = |amp|^2 carry a relative
# error of order eps |amp|^2 into every entry.  At most 0.4 eps |amp|^2 was seen against chi,
# |amp| from 4.5 to 37.6, n_cut = 4|amp|^2 + 40; _ROUNDING_SCALE |amp|^2 / 10 is four times that.
_ROUNDING_AMP_SQ = 10.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and radial cutoff for the quadrature oracles.

    The radial domain is [0, R] with R = max(|alpha|, |beta|)
    + radial_cutoff_sigma * sqrt((1-s)/2); the Gaussian envelope
    exp(-2 r^2/(1-s)) makes the neglected tail negligible at the default
    eight sigma.  A bool, a string or a complex field is a DomainError, and
    so is a radial_cutoff_sigma that is not finite.
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
        sigma = _finite(self.radial_cutoff_sigma, "radial_cutoff_sigma")
        object.__setattr__(self, "radial_cutoff_sigma", sigma)
        if not sigma > 0.0:
            raise ValueError(f"radial_cutoff_sigma must be positive, got {sigma!r}")


_DEFAULT_SPEC = QuadratureSpec()


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=8, typed=True)
def _legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] for n nodes, as read-only arrays."""
    from numpy.polynomial.legendre import leggauss  # about 1 MiB, loaded for quadrature only

    return _read_only(*leggauss(n))


def _rules(state: QuasiBellState, s: float, spec: QuadratureSpec | None):
    """The quadrature oracles' node grid, once W is known to be finite on it.

    Returns the Gauss-Legendre radii r on [0, R], r times their weights, the
    uniform angles 2 pi j/n and their periodic trapezoid weight 2 pi/n, with
    R = max(|alpha|, |beta|) + radial_cutoff_sigma sqrt((1-s)/2); DomainError
    if R^2 is not finite.  The interference exponent of W peaks at the
    smallest radii, and W's refusal depends on |gamma|^2 + |delta|^2 alone,
    so one W at the innermost radial node pair raises quasiprob's
    OverflowError exactly when W (or W_sym) on the whole node grid would.
    """
    spec = spec or _DEFAULT_SPEC
    radius = max(abs(state.alpha), abs(state.beta)) + spec.radial_cutoff_sigma * math.sqrt(
        (1.0 - s) / 2.0
    )
    if not math.isfinite(radius * radius):
        raise DomainError(
            f"radial_cutoff_sigma = {spec.radial_cutoff_sigma!r} gives the radius R = {radius!r}, "
            "whose square is not finite"
        )
    nodes, weights = _legendre_rule(spec.n_radial)
    r_nodes = 0.5 * radius * (nodes + 1.0)
    w(state, r_nodes[0], r_nodes[0], s)
    n = spec.n_angular
    return r_nodes, r_nodes * (0.5 * radius * weights), _TWO_PI * np.arange(n) / n, _TWO_PI / n


def _radial_sums(amp: complex, r, rw, angles, s: float, log_gauss: float, log_interf: float):
    """One mode's three parts of W at z = r e^(i angle), summed over the radius with rw.

    Returns, on angles.shape, the sums over the radial nodes of rw times
    e^(log_gauss) times each Gaussian e^(-2|z -+ amp|^2/(1-s)), and of rw
    times e^(log_interf) e^(2(s|amp|^2 - r^2)/(1-s)) e^(i theta_z) with
    theta_z = 4 Im(amp* z)/(1-s).  With psi = angle - arg amp, the parts of
    amp along and across z, |amp| cos psi and |amp| sin psi, are taken on
    the angle axis only; then |z -+ amp|^2 = (r -+ along)^2 + across^2 and
    theta_z = 4 r across/(1-s).  The expanded r^2 + |amp|^2 -+ 2 r along
    would cancel, and near s = 1 form inf - inf.

    The Gaussians are formed node by node in one buffer, from the radii and
    the along parts scaled by k = sqrt(2/(1-s)) once on their own axes, as
    e^(log_gauss - 2 across^2/(1-s) - (k r -+ k along)^2), and both are
    contracted with rw in one einsum.  The interference
    modulus depends on r alone: with a_i the radial weight times it at node
    i and theta_i = 4 r_i across/(1-s), its part is sum_i a_i e^(i theta_i).
    The Gauss-Legendre radii are symmetric, r_(n-1-i) = R - r_i with
    R = r_0 + r_(n-1) to rounding, so theta_(n-1-i) = T - theta_i with
    T = 4 R across/(1-s), and with b_i = a_(n-1-i)

        sum_i a_i e^(i theta_i) = sum_(i<n/2) a_i e^(i theta_i)
                                  + e^(i T) sum_(i<n/2) b_i e^(-i theta_i);

    an odd n adds its middle node, at theta = T/2, to the first sum with its
    own phase.  One cosine and one sine of each inner phase serve both sums,
    which are taken in real arithmetic: each of the four is one einsum of
    the cosines or sines against a_i or b_i, with no product array formed.
    The inner nodes, where the modulus peaks, keep their phases as formed;
    only the outer nodes, where it is smallest, take theirs through T.
    einsum is called without ``optimize``, so it takes no BLAS path, whose
    rounding would depend on the shape of the angle axes.
    """
    one_minus = 1.0 - s
    scale = math.sqrt(2.0 / one_minus)
    psi = np.asarray(angles, dtype=float)[..., None] - cmath.phase(amp)
    along = (scale * abs(amp)) * np.cos(psi)
    across = abs(amp) * np.sin(psi)
    rest = log_gauss - 2.0 * across**2 / one_minus
    scaled_r = scale * r
    gauss = np.empty((2,) + psi.shape[:-1] + r.shape)
    np.subtract(scaled_r, along, out=gauss[0])
    np.add(scaled_r, along, out=gauss[1])
    np.square(gauss, out=gauss)
    np.subtract(rest, gauss, out=gauss)
    np.exp(gauss, out=gauss)
    gauss_minus, gauss_plus = np.einsum("...i,i->...", gauss, rw)

    weights = rw * np.exp(log_interf + 2.0 * (s * abs(amp) ** 2 - r**2) / one_minus)
    upper = r.size // 2
    lower = r.size - upper  # the nodes below the centre, and an odd count's middle one
    theta = across * (4.0 * r[:lower] / one_minus)
    cos = np.cos(theta)
    sin = np.sin(theta, out=theta)
    inner, mirrored = weights[:lower], weights[::-1][:upper]  # a_i and b_i = a_(n-1-i)
    real, imag = np.einsum("...i,i->...", cos, inner), np.einsum("...i,i->...", sin, inner)
    real_up = np.einsum("...i,i->...", cos[..., :upper], mirrored)
    imag_up = np.einsum("...i,i->...", sin[..., :upper], mirrored)
    turn = across[..., 0] * (4.0 * (r[0] + r[-1]) / one_minus)
    cos_turn, sin_turn = np.cos(turn), np.sin(turn)
    interference = np.empty(turn.shape, dtype=complex)
    interference.real = real + (cos_turn * real_up + sin_turn * imag_up)
    interference.imag = imag + (sin_turn * real_up - cos_turn * imag_up)
    return gauss_minus, gauss_plus, interference


def _mode_sums(state: QuasiBellState, s: float, r_nodes, rw, gamma_angles, delta_angles):
    """Each mode's three parts of W summed over the radius with rw, r times the weights.

    Mode 1's sums are on gamma_angles and mode 2's on delta_angles (see
    _radial_sums); _combine joins them, and with a one-hot rw it rebuilds W
    at one node.  The prefactor 4 N^2/(pi^2 (1-s)^2) is split evenly between
    the modes.  Each interference part is taken relative to its peak, at the
    innermost node, and the two peaks are given back in equal halves, so no
    mode's part exceeds the square root of W's largest interference term on
    the grid.  Unshifted, one mode's own exponent can pass the float range
    where the pair's does not (a wide radial cutoff moves the innermost node
    out).  DomainError, naming s, where (pi (1-s))^2 passes the float range
    (s below about -4.3e153).
    """
    spread = _square_of_spread(math.pi * (1.0 - s), s)
    log_pref = math.log(4.0 * normalization_constant(state) ** 2 / spread)
    peaks = [
        2.0 * (s * abs(amp) ** 2 - r_nodes[0] ** 2) / (1.0 - s) for amp in (state.alpha, state.beta)
    ]
    half = 0.5 * (peaks[0] + peaks[1] + log_pref)
    return (
        _radial_sums(state.alpha, r_nodes, rw, gamma_angles, s, 0.5 * log_pref, half - peaks[0]),
        _radial_sums(state.beta, r_nodes, rw, delta_angles, s, 0.5 * log_pref, half - peaks[1]),
    )


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

    phi is first reduced to [-pi, pi] as arctan2(sin phi, cos phi):
    unreduced, the node angles phi -+ a_j/2 would round at ulp(phi).  The
    sine and cosine reduce their argument exactly, so the reduced angle is
    within about 2e-16 rad of the exact phi modulo 2pi at any offset, and
    the oracle agrees with the series, which is taken at the exact offset, to
    about 4e-15 up to phi = 0.3 + 1e12 (odd cat, |alpha| = |beta| = 1,
    s = 0.3).  A reduction modulo the float 2pi would carry |phi| 3.9e-17
    rad and move the density by 2.1e-5 there.
    """
    sign = _branch_sign(branch)
    s = _require_s_below_one(s)
    phi = _finite_array(phi, float, "phi")
    r_nodes, rw, a_nodes, a_weight = _rules(state, s, spec)
    fixed = np.atleast_1d(np.arctan2(np.sin(phi), np.cos(phi)))[..., None]
    half = 0.5 * a_nodes
    g, d = _mode_sums(state, s, r_nodes, rw, half, fixed - sign * half)
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
    r_nodes, rw, a_nodes, a_weight = _rules(state, s, spec)
    g, d = (
        tuple(a_weight * np.sum(x) for x in sums)
        for sums in _mode_sums(state, s, r_nodes, rw, a_nodes, a_nodes)
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
    r_nodes, rw, a_nodes, a_weight = _rules(state, s, spec)
    own = np.atleast_1d(phi)
    angles = (own, a_nodes) if mode == 1 else (a_nodes, own)
    sums = list(_mode_sums(state, s, r_nodes, rw, *angles))
    other = 2 - mode  # the index of the other mode's sums
    sums[other] = tuple(a_weight * np.sum(x) for x in sums[other])
    out = _combine(state, *sums, False)
    return float(out[0]) if np.ndim(phi) == 0 else out


class FockChiResult(NamedTuple):
    """Characteristic-function value from the Fock trace, with error bound."""

    value: complex
    bound: float


@lru_cache(maxsize=8)
def _fock_tables(dim: int):
    """n = 1 .. dim-1 and sqrt(n), and the signs (-1)^n for n = 0 .. dim-1, read-only."""
    n = np.arange(1.0, dim)
    return _read_only(n, np.sqrt(n), np.where(np.arange(dim) % 2, -1.0, 1.0))


def _coherent_columns(amps, n_cut: int) -> np.ndarray:
    """Number-basis coefficients of |amp> and |-amp> up to n_cut, as two columns per amp."""
    dim = n_cut + 1
    _, roots, signs = _fock_tables(dim)
    terms = np.empty((len(amps), dim), dtype=complex)
    terms[:, 0] = [math.exp(-0.5 * abs(amp) ** 2) for amp in amps]
    np.divide(np.array(amps, dtype=complex)[:, None], roots, out=terms[:, 1:])
    out = np.empty((len(amps), dim, 2), dtype=complex)
    np.cumprod(terms, axis=1, out=out[..., 0])
    np.multiply(out[..., 0], signs, out=out[..., 1])
    return out


def _partial_sums(xs, n_cut: int) -> np.ndarray:
    """S_N(+-x) = sum_(j <= N) (+-x)^j / j! for N = 0 .. n_cut, as two columns per x."""
    dim = n_cut + 1
    counts, _, signs = _fock_tables(dim)
    terms = np.empty((len(xs), dim), dtype=complex)
    terms[:, 0] = 1.0
    np.divide(np.array(xs, dtype=complex)[:, None], counts, out=terms[:, 1:])
    np.cumprod(terms, axis=1, out=terms)
    out = np.empty((len(xs), dim, 2), dtype=complex)
    np.cumsum(terms, axis=1, out=out[..., 0])
    np.cumsum(terms * signs, axis=1, out=out[..., 1])
    return out


def _overlaps(amps, xis, n_cut: int) -> np.ndarray:
    """<a|D(xi)|b> for a, b in (|amp>, |-amp>), truncated at n_cut: a 2 x 2 block per pair.

    D(xi) normally ordered is e^(-|xi|^2/2) e^(xi a^dagger) e^(-xi* a).  With
    L(w)[m, k] = sqrt(m!/k!) w^(m-k)/(m-k)! (0 above the diagonal),
    <m|e^(xi a^dagger)|k> = L(xi)[m, k] and <k|e^(-xi* a)|n> = L(-xi*)[n, k];
    the sum over k stops at min(m, n), so the truncated block is the exact
    one on the truncated columns.  With V = (|amp>, |-amp>) from
    _coherent_columns, L(-w) = P L(w) P for P = diag((-1)^m), and P V = V J
    for the column swap J, so with A = L(xi*)^T V the block is
    e^(-|xi|^2/2) A^dagger P A J.  L is never formed either: the coherent
    coefficients c_m = e^(-|amp|^2/2) amp^m/sqrt(m!) make
    A[k] = sum_(m >= k) L(xi*)[m, k] c_m = c_k S_(n_cut-k)(xi* amp), with the
    partial sums S_N of e^x (_partial_sums), and -amp takes S_N(-xi* amp).
    Both modes take one batched product.

    D itself is never formed: at high m, n its entries are sums of large
    terms of both signs, so the product of the two factors is ill-conditioned
    (off by 1.7e-2 against mpmath at xi = 2.8, n_cut = 60).  This route
    cancels too, more gently: S_N(-x) sums terms up to about e^|x| to
    e^(-x), and the P-weighted sum over k takes <amp|-amp> = e^(-2|amp|^2)
    from terms of size |c_k|^2.  Each entry's rounding therefore grows as
    eps e^(2|amp||xi| - |xi|^2/2), at most eps e^(2|amp|^2) at |xi| = 2|amp|,
    and past |amp|^2 of about 10 also as |amp|^2, through the rounding of
    c_0 = e^(-|amp|^2/2) and of the running product to the peak near
    m = |amp|^2; fock_chi_oracle adds it to its bound and refuses the trace
    past 1e-6.
    """
    cols = _coherent_columns(amps, n_cut)
    _, _, signs = _fock_tables(n_cut + 1)
    sums = _partial_sums([xi.conjugate() * amp for amp, xi in zip(amps, xis)], n_cut)
    a = cols * sums[:, ::-1]
    block = (a.conj().transpose(0, 2, 1) @ (signs[:, None] * a))[..., ::-1]
    return block * np.exp([-0.5 * abs(xi) ** 2 for xi in xis])[:, None, None]


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
    are products of one 2 x 2 overlap block per mode, each contracted from
    the truncated coherent columns and the two exact lower-triangular
    factors of the normally ordered D(xi) (see _overlaps; D is never formed,
    since the product of its factors is ill-conditioned at high photon
    numbers), then multiplied by the s-ordering factor
    exp(s(|xi|^2+|eta|^2)/2).  A rigorous truncation bound (driven by the
    coherent tails beyond n_cut; take n_cut >= 4 max(|alpha|^2, |beta|^2) + 20
    for comfortable margins) is returned alongside, plus an estimate of the
    contraction's rounding, which grows as eps e^(2|amp||xi| - |xi|^2/2),
    and past |amp|^2 = 10 also as |amp|^2.  The two blocks are taken out of
    _overlaps as Python complexes once, and the weighted sum, its
    finiteness test and the blocks' largest moduli are formed in floats.
    A truncation bound above 1e-6 is a CutoffTooSmallError; a bound above
    1e-6 only with the rounding estimate is a DomainError: near the
    interference peak xi = 2 alpha that is from |alpha| of about 3.1.  ``xi``
    and ``eta`` are numbers (a bool or a string is a DomainError naming it).
    DomainError if |xi|^2 + |eta|^2, the s-ordering factor or the trace is
    not finite.

    At large |xi| (or |eta|) the outcome is a value within 1e-8 of chi or a
    DomainError: at n_cut = 40 the trace is a value (an exact 0 past
    |xi| of about 40, where e^(-|xi|^2/2) underflows) up to |xi| of about
    8e4 to 1.5e6, depending on the amplitude, and past that the partial
    sums of e^(xi* amp) leave the float range and the trace is refused.
    Where s > 0 inflates the bound past 1e-6 it is a CutoffTooSmallError.
    ``n_cut`` is an integer from 1 to 2**16, the index cap of i_n_combo; a
    larger cutoff is a DomainError, refused before anything is allocated.
    |alpha| and |beta| go up to about 37.64: past that the coherent columns'
    first coefficient e^(-|amp|^2/2) is not a normal float (the trace of rho
    read 1.0349 at |alpha| = 38.5 and 0 at 40), and the amplitude is a
    DomainError naming it, before the cutoff is checked.
    """
    n_cut = _integer(n_cut, "n_cut", 1, _INDEX_CAP)
    s = _finite(s, "s")
    xi = _number(xi, "xi", real=False)
    eta = _number(eta, "eta", real=False)
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
    amps = (state.alpha, state.beta)
    for name, amp in zip(("alpha", "beta"), amps):
        if math.exp(-0.5 * abs(amp) ** 2) < sys.float_info.min:  # as _coherent_columns forms it
            raise DomainError(
                f"|{name}| = {abs(amp)!r} is past the number-basis trace's range: the coherent "
                f"columns start from e^(-|{name}|^2/2), which is below the smallest normal float"
            )
    n2 = normalization_constant(state) ** 2
    err_a, err_b = (2.0 * math.sqrt(_poisson_tail(abs(amp) ** 2, n_cut)) for amp in amps)
    scale = prefactor * n2 * (abs(mu) + abs(nu)) ** 2
    bound = scale * (err_a + err_b + err_a * err_b)
    if not bound <= _FOCK_BOUND_TOL:
        raise CutoffTooSmallError(
            f"Fock truncation bound {bound:.3e} exceeds {_FOCK_BOUND_TOL:g} at "
            f"n_cut={n_cut}; increase the cutoff"
        )
    # A trace that leaves the float range is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _overlaps(amps, (xi, eta), n_cut)
    # Each mode's block as four Python complexes, row by row, as the weights conj(m_i) m_j.
    entries_a, entries_b = blocks.reshape(2, 4).tolist()
    weights = [m.conjugate() * n for m in (mu, nu) for n in (mu, nu)]
    value = prefactor * n2 * sum(c * a * b for c, a, b in zip(weights, entries_a, entries_b))
    if not cmath.isfinite(value):
        raise DomainError(
            f"the number-basis trace at xi={xi!r}, eta={eta!r} is not finite: the partial "
            f"sums of e^(xi* amp) at n_cut={n_cut} are past the float range there"
        )
    # Each computed block entry is within r = _ROUNDING_SCALE max(1, |amp|^2/10)
    # e^(2|amp||xi| - |xi|^2/2) of the truncated one (see _overlaps), so a product of
    # entries is off by at most r_a (|o_b| + r_b) + |o_a| r_b.
    round_a, round_b = (
        _ROUNDING_SCALE
        * max(1.0, abs(amp) ** 2 / _ROUNDING_AMP_SQ)
        * math.exp(min(2.0 * abs(amp) * abs(z) - 0.5 * abs(z) ** 2, 700.0))
        for amp, z in zip(amps, (xi, eta))
    )
    # A finite value has finite entries: an entry past the float range makes its term inf or NaN.
    size_a, size_b = max(map(abs, entries_a)), max(map(abs, entries_b))
    bound += scale * (round_a * (size_b + round_b) + size_a * round_b)
    if not bound <= _FOCK_BOUND_TOL:
        raise DomainError(
            f"the number-basis trace at xi={xi!r}, eta={eta!r} has the error bound "
            f"{bound:.3e} with its rounding estimate, above {_FOCK_BOUND_TOL:g}: the "
            "normally ordered factors cancel there at these amplitudes"
        )
    return FockChiResult(value=value, bound=bound)
