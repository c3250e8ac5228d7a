"""Scalar numerics for Gaussian pulses and their time-truncated spectra.

All positions and widths are dimensionless (normalized to the bin pitch of
whichever domain is being described).  The central objects are

* exact Gaussian bin masses through the error function,
* the Fourier transform of a window-truncated standard-normal amplitude,
  evaluated in a form that stays stable at large frequency, and
* :class:`TruncatedSpectrum`, a cumulative distribution of the truncated
  pulse's spectral energy, built once by adaptive G7-K15 panel quadrature
  and then queryable at arbitrary points without special functions.

Spectral tails decay only like ``1/w**2``, so any mass involving an
unbounded interval is always obtained as (known total) minus a
finite-interval integral, never by integrating out to infinity.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erf, sici, wofz

from .errors import DomainError, NumericFailure, _check_count, _check_positive, _check_scalar, _check_widths

__all__ = [
    "DEFAULT_ACCURACY",
    "TruncatedSpectrum",
    "build_spectrum",
    "density_bin_mass",
    "truncated_pulse_fourier",
]

SQRT2 = np.sqrt(2.0)
SQRTPI = np.sqrt(np.pi)

#: the one absolute tolerance of every spectrum table, clip and information bound
DEFAULT_ACCURACY = 1e-8

# The asymptotic tail series below is trusted only beyond this point, so the
# panel tables cover exactly [0, _TAIL_W_MIN]; every spectrum is even.
_TAIL_W_MIN = 30.0
_TAIL_ORDER = 10
_FACTORIAL = np.array([math.factorial(k) for k in range(2 * _TAIL_ORDER)], dtype=float)  # k! for k < 2 * order
# i + j: summing a.T @ b over it adds up the convolutions of the rows of a and b
_ANTIDIAGONAL = np.add.outer(np.arange(_TAIL_ORDER), np.arange(_TAIL_ORDER))

# The one memory budget, read at call time: a stacked temporary (a pass of tail series, a tile
# of the capacity grid, a chunk of per-term overlaps) holds at most this many entries for any m.
_STACK_ENTRIES = 1 << 14


# ---------------------------------------------------------------------------
# Gaussian densities and exact bin masses
# ---------------------------------------------------------------------------

def density_bin_mass(width: float, center: float, lo: float, hi: float) -> float:
    """Mass of a unit-energy Gaussian density on the interval ``[lo, hi]``.

    The density has 1/e half-width ``width`` (i.e. it is a normal density
    with standard deviation ``width/sqrt(2)``), so the closed form is
    ``0.5*(erf((hi-center)/width) - erf((lo-center)/width))``.  Infinite
    bounds are allowed: ``erf(+-inf)`` is exactly ``+-1``.
    """
    _check_positive(("width", width))
    if not np.isfinite(center):
        raise DomainError(f"center must be finite, got {center}")
    if not lo <= hi:  # also rejects NaN
        raise DomainError(f"empty interval: lo={lo}, hi={hi}")
    return 0.5 * (erf((hi - center) / width) - erf((lo - center) / width))


# ---------------------------------------------------------------------------
# Fourier transform of a truncated standard-normal amplitude
# ---------------------------------------------------------------------------

def _erf_exp_half(cuts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows ``exp(-w**2/2) * erf((x + i*w)/sqrt(2))``, one per cut ``x``, without overflow.

    A naive complex erf overflows once ``|w|`` reaches ~38; rewriting
    through the Faddeeva function keeps every factor bounded because
    ``wofz`` is evaluated in the half plane where it is <= 1 in modulus.
    erf is odd, so a negative cut is ``-conj`` of its mirror image; the
    rows of cuts at +-inf are ``+-exp(-w**2/2)``.
    """
    rows = np.full(cuts.shape + w.shape, np.exp(-0.5 * w * w), dtype=complex)
    finite = np.isfinite(cuts)
    x, inverse = np.unique(np.abs(cuts[finite]), return_inverse=True)  # mirrored cuts share |x|
    x = x.reshape((-1,) + (1,) * w.ndim)
    damp = np.exp(-0.5 * x * x) * np.exp(-1j * w * x)
    faddeeva = wofz((-w + 1j * x) / SQRT2)
    # named operands: on a large temporary numpy may swap the factors, which rounds differently
    product = damp * faddeeva
    rows[finite] -= product[inverse]
    rows[cuts < 0.0] = -np.conj(rows[cuts < 0.0])
    return rows


def truncated_pulse_fourier(x_lo: float, x_hi: float, w):
    """``F(w) = integral of phi(x)*exp(-i*w*x)`` over ``[x_lo, x_hi]``.

    ``phi`` is the standard normal pdf; bounds may be infinite.  Satisfies
    ``|F| <= 1`` and the conjugate symmetry ``F(-w) == conj(F(w))``.
    """
    if not x_lo <= x_hi:  # also rejects NaN
        raise DomainError(f"empty window: x_lo={x_lo}, x_hi={x_hi}")
    out = 0.5 * np.diff(_erf_exp_half(np.array([x_lo, x_hi], dtype=float),
                                      np.asarray(w, dtype=float)), axis=0)[0]
    return out if out.ndim else complex(out)


def _summed_density(cuts: np.ndarray, w):
    """Sum of the spectral densities ``|F(w)|**2 / sqrt(pi)`` of the windows
    between neighbouring ``cuts``, added in window order for one point as for many."""
    spectra = 0.5 * np.diff(_erf_exp_half(cuts, np.asarray(w, dtype=float)), axis=0)
    return np.cumsum((spectra.real * spectra.real + spectra.imag * spectra.imag) / SQRTPI, axis=0)[-1]


# ---------------------------------------------------------------------------
# Asymptotic tail mass of the spectral density
# ---------------------------------------------------------------------------

def _phi_derivatives(x: np.ndarray, order: int) -> np.ndarray:
    """Rows of ``phi^(k)(x)``, k = 0..order-1 (probabilists' Hermite), per point of ``x``."""
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    he = [np.ones_like(x), x]
    for k in range(2, order):
        he.append(x * he[k - 1] - (k - 1) * he[k - 2])
    return np.stack([((-1.0) ** k) * he[k] * phi for k in range(order)], axis=-1)


def _tail_coefficients(cuts: np.ndarray):
    """Series coefficients of ``(1/sqrt(pi)) * integral_w^inf |F|**2``,
    summed over the spectra of the windows between neighbouring ``cuts``,
    one series per row of ``cuts`` (..., k); the rows share which cuts are finite.

    Integration by parts expands F into Gaussian derivatives at the finite
    cuts, so ``|F|**2`` is a sum of ``exp(i*lag*w) * w**-n`` terms,
    n = 2..2*order.  A cut with itself has lag 0: powers of ``1/w`` after
    integration, once per window the cut bounds.  The two cuts of a finite
    window have lag ``x_hi - x_lo``: their terms integrate to ``I_n``, whose
    exact recurrence ``I_n = (exp(i*lag*w) * w**(1-n) + i*lag*I_{n-1}) / (n-1)``
    is unrolled here into ``first * I_1 + exp(i*lag*w) * (powers of 1/w)``.
    The series is linear in these terms, so a sum of spectra adds them up;
    its cross terms must share one lag, which the interior filters of
    :func:`_filter_cuts` do: they all have the same length.

    Returns ``(coef, first, lag)`` with the leading shape of ``cuts``;
    ``coef[..., k, :]`` multiplies ``w**-(k+1)`` in three columns (lag 0, real
    and imaginary cross part); one finite cut has no cross terms, so its cross
    columns and ``first`` are 0, at a placeholder lag of 1 that keeps ``sici`` finite.
    """
    # per finite cut: c_k = phi^(k)(x) * (-i)**(k+1), k = 0..order-1, negated
    # where the cut is the upper edge of a window
    minus_i = (-1j) ** np.arange(1, _TAIL_ORDER + 1)
    finite = np.isfinite(cuts.reshape(-1, cuts.shape[-1])[0])
    c = _phi_derivatives(cuts[..., finite], _TAIL_ORDER) * minus_i  # (..., cut, k)
    # windows each cut bounds: 1 at the ends, else 2
    windows_bounded = np.convolve(np.ones(cuts.shape[-1] - 1, dtype=int), [1, 1])
    n = np.arange(2, 2 * _TAIL_ORDER + 1)
    lag0 = np.zeros(cuts.shape[:-1] + n.shape)
    c_t = np.swapaxes(c, -1, -2)
    np.add.at(lag0, (..., _ANTIDIAGONAL), ((c_t * windows_bounded[finite]) @ np.conj(c)).real)
    coef = lag0 / (n - 1) / SQRTPI
    lags = np.diff(cuts[..., finite], axis=-1)
    lag = lags[..., 0] if lags.shape[-1] else np.ones(cuts.shape[:-1])
    il = 1j * lag[..., None, None]
    cross = np.zeros(cuts.shape[:-1] + n.shape, dtype=complex)
    np.add.at(cross, (..., _ANTIDIAGONAL), 2.0 * (c_t[..., :-1] @ np.conj(-c[..., 1:, :])))
    scaled = (cross / SQRTPI / _FACTORIAL[n - 1])[..., None]  # c_n / (n-1)!, a column
    first = np.sum(scaled * il ** (n[:, None] - 1), axis=(-2, -1))
    # term k is k! * sum over k' >= k of scaled[k'] * il ** (k' - k): one triangular product
    unrolled = _FACTORIAL[n - 2] * (np.triu(il ** np.maximum(n - n[:, None], 0)) @ scaled)[..., 0]
    return np.stack([coef, unrolled.real, unrolled.imag], axis=-1), first, lag


def _tail_mass(series, w):
    """Spectral mass above each ``w >= 30`` (and below ``-w``, by evenness) of
    :func:`_tail_coefficients` series of leading shape s (``()`` for one), at
    points ``w`` of shape s + (q,).  Horner's rule in 1/w runs point by point,
    so no value depends on the other points.  Truncation error is
    O(w ** -(order+1)), below 1e-14 against adaptive quadrature at order 10
    and ``w >= 30``."""
    coef, first, lag = series
    w = np.asarray(w, dtype=float)
    x = 1.0 / w
    sums = np.zeros(coef.shape[-1:] + w.shape)
    for column in np.moveaxis(coef, (-2, -1), (0, 1))[::-1, ..., None]:  # highest power first
        sums += column
        sums *= x
    first, lag = np.asarray(first)[..., None], np.asarray(lag)[..., None]
    si, ci = sici(lag * w)
    i_1 = -ci + 1j * (0.5 * np.pi - si)
    cross = first * i_1 + np.exp(1j * lag * w) * (sums[1] + 1j * sums[2])
    return sums[0] + cross.real


# ---------------------------------------------------------------------------
# Adaptive panel quadrature
# ---------------------------------------------------------------------------

# Gauss-Kronrod G7-K15 pair of QUADPACK's qk15 (Piessens et al., 1983),
# constants as in scipy.integrate._quad_vec; the Gauss nodes are the
# odd-indexed Kronrod nodes.
_K15_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
])
_K15_NODES = np.concatenate([_K15_NODES, -_K15_NODES[-2::-1]])
_K15_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_K15_WEIGHTS = np.concatenate([_K15_WEIGHTS, _K15_WEIGHTS[-2::-1]])
_G7_WEIGHTS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_G7_WEIGHTS = np.concatenate([_G7_WEIGHTS, _G7_WEIGHTS[-2::-1]])


# (16, 15): the 15 node values of a panel -> coefficients of t**0..t**15 of
# integral_{-1}^{t} of their interpolating polynomial, t in [-1, 1]; built
# through the Legendre basis, which is well conditioned on these nodes.
_K15_ANTIDERIVATIVE = np.column_stack([
    np.polynomial.legendre.leg2poly(np.polynomial.legendre.legint(column, lbnd=-1.0))
    for column in np.linalg.inv(np.polynomial.legendre.legvander(_K15_NODES, 14)).T
])


def _integrate_adaptive(g, seed_edges: np.ndarray, tol_total: float, max_rounds: int = 48):
    """Refine seed panels by bisection until the summed error gauge meets
    ``tol_total``; returns (sorted edges, per-panel integrals, per-panel K15
    node values, error bound); a node value that is not finite raises at once."""
    a = np.asarray(seed_edges[:-1], dtype=float)
    b = np.asarray(seed_edges[1:], dtype=float)
    span = float(seed_edges[-1] - seed_edges[0])
    kept = []  # per round: edges, integrals, gauges, node values of accepted panels
    for round_ in range(max_rounds + 1):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = g((mid[:, None] + half[:, None] * _K15_NODES).ravel()).reshape(a.size, -1)
        if not np.isfinite(nodes).all():
            raise NumericFailure("integrand is not finite at a quadrature node", target=tol_total)
        val = (nodes @ _K15_WEIGHTS) * half
        err = np.abs(val - (nodes[:, 1::2] @ _G7_WEIGHTS) * half)  # K15 - G7 gauge
        ok = (err <= np.maximum(tol_total * (b - a) / span, 1e-17)) | ((b - a) <= 1e-12)
        if round_ == max_rounds:  # ran out of rounds: keep what we have, report honestly
            ok[:] = True
        kept.append((a[ok], b[ok], val[ok], err[ok], nodes[ok]))
        if ok.all():
            break
        mids = 0.5 * (a[~ok] + b[~ok])
        a, b = np.concatenate([a[~ok], mids]), np.concatenate([mids, b[~ok]])
    order = np.argsort(np.concatenate([k[0] for k in kept]), kind="stable")
    a, b, v, e, n = (np.concatenate(parts)[order] for parts in zip(*kept))
    err_total = float(e.sum())
    if err_total > tol_total * 4.0:
        raise NumericFailure(
            f"panel quadrature stalled at error {err_total:.3e} (target {tol_total:.3e})",
            achieved=err_total,
            target=tol_total,
        )
    edges = np.concatenate([a, b[-1:]])
    return edges, v, n, err_total


# ---------------------------------------------------------------------------
# TruncatedSpectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruncatedSpectrum:
    """Cumulative spectral-energy distribution of time-truncated pulses.

    The density is the sum of the spectra of the pulse truncated by each
    window between neighbouring ``cuts`` (strictly increasing, read-only):
    two cuts for a single filter, ``m + 1`` for the filter bank whose outputs
    the eavesdropper's receiver sums.  Immutable after construction, so
    cached instances are shared.  ``total_mass`` is the exact pass
    probability of the windows (the spectrum integrates to
    it by Parseval); ``total_mass_numeric`` is the same value recovered from
    the panel table plus the asymptotic tails, kept as a self-check of the
    quadrature; ``error_bound`` is the summed K15-G7 gauge of its
    ``n_panels`` panels, built to ``DEFAULT_ACCURACY``.  The spectrum of a
    real pulse is even, so the table covers ``[0, 30]`` only and
    ``G(-w) = total_mass - G(w)``; the bound thus holds for G everywhere.
    Per panel the table holds G as a polynomial: ``total_mass / 2`` plus the
    mass between 0 and the panel plus the antiderivative of the K15
    interpolant.  Beyond 30 the tail series answers.
    """

    cuts: np.ndarray
    m: int
    beta: float
    total_mass: float
    total_mass_numeric: float
    error_bound: float
    n_panels: int
    _edges: np.ndarray = field(repr=False)
    _coef: np.ndarray = field(repr=False)
    _tail: tuple = field(repr=False)

    def density(self, w):
        """Spectral energy density g(w), summed over the windows."""
        return _summed_density(self.cuts, w)

    def cumulative(self, w):
        """G(w): spectral mass below ``w``, absolute error <= ``DEFAULT_ACCURACY``;
        raises :class:`NumericFailure` if it leaves ``[0, total_mass]`` by more,
        :class:`DomainError` at NaN.  The one-table case of :func:`_stacked_cumulative`."""
        w = np.asarray(w, dtype=float)
        if np.isnan(w).any():
            raise DomainError("spectrum queried at NaN")
        out = _stacked_cumulative((self,), w[None])[0]
        return out if out.ndim else float(out)

    def bin_mass(self, w_lo, w_hi):
        """Spectral mass on each ``[w_lo, w_hi]`` (arrays broadcast; a float
        for scalar bounds); unbounded sides use the remainder against
        ``total_mass`` rather than direct integration.  Raises
        :class:`NumericFailure` if it is negative by more than ``DEFAULT_ACCURACY``."""
        if np.any(np.asarray(w_lo) > np.asarray(w_hi)):
            raise DomainError(f"empty interval: w_lo={w_lo} > w_hi={w_hi}")
        # cumulative is exactly 0 at -inf and total_mass at +inf
        mass = np.asarray(self.cumulative(w_hi) - self.cumulative(w_lo))
        mass = _clip_within(mass, self.total_mass)
        return mass if mass.ndim else float(mass)


@lru_cache(maxsize=64)
def _stacked_index(tables: tuple) -> tuple:
    """What a :func:`_stacked_cumulative` query of ``tables`` reads, memoised per
    group (tables hash by identity).  Complex numbers sort by real, then
    imaginary part: table i's panels are keyed (i, left edge), so one exact
    searchsorted serves all tables."""
    keys = np.concatenate([i + 1j * s._edges[:-1] for i, s in enumerate(tables)])
    edges = np.concatenate([s._edges for s in tables])  # panel idx of table i: edges[idx + i]
    coef = np.concatenate([s._coef for s in tables])
    series = tuple(np.stack(part) for part in zip(*(s._tail for s in tables)))
    total = np.array([s.total_mass for s in tables])[:, None]
    for table in (keys, edges, coef, total, *series):
        table.setflags(write=False)
    return keys, edges, coef, series, total


def _stacked_cumulative(tables, w) -> np.ndarray:
    """G of ``tables[i]`` at every point of the float array ``w[i]`` (no NaN), clipped to
    each table's ``[0, total_mass]`` as :meth:`TruncatedSpectrum.cumulative`: one panel
    lookup and, beyond 30, one :func:`_tail_mass` call for all tables."""
    keys, edges, coef, series, total = _stacked_index(tuple(tables))
    flat = w.reshape(len(tables), -1)
    mag = np.abs(flat)
    g = np.repeat(total, flat.shape[1], axis=1)  # G(|w|) at |w| = inf
    inside = mag <= _TAIL_W_MIN
    table, ws = np.nonzero(inside)[0], mag[inside]
    idx = np.searchsorted(keys, table + 1j * ws, side="right") - 1
    a, b = edges[idx + table], edges[idx + table + 1]
    t = (2.0 * ws - a - b) / (b - a)
    powers = np.vander(t, coef.shape[1], increasing=True)
    g[inside] = np.einsum("ij,ij->i", coef[idx], powers)
    tail = ~inside & np.isfinite(mag)
    if tail.any():
        g[tail] -= _tail_mass(series, np.where(tail, mag, _TAIL_W_MIN))[tail]
    return _clip_within(np.where(flat < 0.0, total - g, g), total).reshape(w.shape)


def _clip_within(values: np.ndarray, upper) -> np.ndarray:
    """Clip ``values`` to ``[0, upper]`` (``upper`` broadcasts against them) when
    they leave it by at most ``DEFAULT_ACCURACY``; raise :class:`NumericFailure` beyond that."""
    excursion = max(-values.min(initial=0.0), (values - upper).max(initial=0.0))
    if excursion > DEFAULT_ACCURACY:
        raise NumericFailure(f"values leave [0, {np.max(upper):.17g}] by {excursion:.3e} "
                             f"(tolerance {DEFAULT_ACCURACY:.3e})",
                             achieved=excursion, target=DEFAULT_ACCURACY)
    return np.clip(values, 0.0, upper)


def _filter_cuts(m: int, beta: float) -> np.ndarray:
    """Sorted cuts of the filter bank in normalized amplitude coordinates
    (2*b/(beta*m)): -inf, the m - 1 inner bin bounds, +inf.  Filter ``f``
    is the window ``cuts[f-1:f+1]``.  An array of betas gives one row each;
    the caller has checked that each ``beta * m`` lies in [1e-12, 1e12]."""
    inner = (np.arange(1, m) - 0.5 * m) / (0.5 * np.asarray(beta, dtype=float)[..., None] * m)
    edge = np.full(inner.shape[:-1] + (1,), np.inf)
    return np.concatenate([-edge, inner, edge], axis=-1)


def _seed_edges(length: float) -> np.ndarray:
    # Panels must resolve both the Gaussian core of g and the interference
    # ripple whose period is 2*pi / (window length).  A window longer than
    # 17.5 has an end beyond |x| = 8.75, where phi < 1e-17, so its ripple is
    # below 1e-34 and it is seeded as untruncated.
    h = 1.0
    if length <= 17.5:
        h = min(1.0, 2.0 * np.pi / length / 4.0)
    right = [*np.arange(0.0, 10.0, h), 10.0]
    while right[-1] < _TAIL_W_MIN:
        right.append(min(right[-1] * 1.4, _TAIL_W_MIN))
    return np.asarray(right)


def build_spectrum(f: int | None, m: int, beta: float) -> TruncatedSpectrum:
    """Construct the cumulative spectrum of the pulse truncated by filter ``f``,
    or summed over all ``m`` filters when ``f`` is None, to ``DEFAULT_ACCURACY``.

    Parameters
    ----------
    f : int or None
        Filter index, 1..m; None sums the spectra of the whole filter bank,
        a distribution of total mass 1.
    m : int
        Number of symbols per basis (also the number of filters).
    beta : float
        Normalized width of the pulse being truncated (the filter bank has
        unit pitch; the pulse has 1/e half-width ``beta*m/2``).
    """
    m = _check_count("m", m, 2)
    if f is not None and (f := _check_count("f", f, 1)) > m:
        raise DomainError(f"filter index {f} outside 1..{m}")
    cuts = _filter_cuts(m, _check_widths(_check_scalar("beta", beta), m))
    if f is not None:
        cuts = cuts[f - 1:f + 1]
    return _build_tables(cuts[None], m, [beta])[0]


def _build_tables(cuts: np.ndarray, m: int, betas) -> list[TruncatedSpectrum]:
    """One table per row of ``cuts`` (n, k), rows alike in which cuts are finite:
    the panel quadrature table by table, the tail series in passes over
    groups of rows (``_STACK_ENTRIES`` (table, finite cut, order) entries a pass), every exact
    total from one ``erf`` call and the tail beyond 30 of every numeric total from one
    :func:`_tail_mass` call."""
    rows = max(1, _STACK_ENTRIES // (cuts.shape[1] * _TAIL_ORDER))
    passes = [_tail_coefficients(cuts[i:i + rows]) for i in range(0, len(cuts), rows)]
    series = [np.concatenate(part) for part in zip(*passes)]
    totals = np.cumsum(0.5 * np.diff(erf(cuts)), axis=1)[:, -1]  # added in window order
    tails = _tail_mass(series, np.full((len(cuts), 1), _TAIL_W_MIN))[:, 0]
    tables = []
    for row, beta, total, tail, *row_series in zip(cuts, betas, totals, tails, *series):
        # a bin across w = 0 carries the error of both halves, so each half
        # gets DEFAULT_ACCURACY / 4 and the bin stays within DEFAULT_ACCURACY / 2
        edges, panels, nodes, error_bound = _integrate_adaptive(
            lambda w: _summed_density(row, w), _seed_edges(np.diff(row).min()), 0.25 * DEFAULT_ACCURACY)
        cum = np.concatenate([[0.0], np.cumsum(panels)])
        # per panel: G(w) = polynomial in t, the constant term carrying the
        # mass below the panel (half the total below w = 0, by evenness)
        coef = (0.5 * np.diff(edges))[:, None] * (nodes @ _K15_ANTIDERIVATIVE.T)
        coef[:, 0] += 0.5 * total + cum[:-1]
        for table in (row, edges, coef):
            table.setflags(write=False)
        tables.append(TruncatedSpectrum(
            cuts=row, m=m, beta=beta, total_mass=float(total),
            total_mass_numeric=2.0 * float(cum[-1] + tail), error_bound=error_bound,
            n_panels=edges.size - 1, _edges=edges, _coef=coef, _tail=tuple(row_series)))
    return tables


_TABLES: OrderedDict = OrderedDict()  # (m, beta) -> summed table, least recent first


def summed_spectra(m: int, betas) -> list[TruncatedSpectrum]:
    """The spectrum summed over all ``m`` filters at each of ``betas``, the tables
    the eavesdropper's second stage queries.  One cache keeps the 1024 tables
    used last; the betas it misses are built in one :func:`_build_tables`
    call.  Spectra are immutable, so sharing is safe.  Callers pass a checked
    ``m`` and ``betas``."""
    keys = [(m, float(beta)) for beta in betas]
    missing = list(dict.fromkeys(key for key in keys if key not in _TABLES))
    if missing:
        widths = [key[1] for key in missing]
        _TABLES.update(zip(missing, _build_tables(_filter_cuts(m, widths), m, widths)))
    tables = [_TABLES[key] for key in keys]
    for key in keys:
        _TABLES.move_to_end(key)
    while len(_TABLES) > 1024:
        _TABLES.popitem(last=False)
    return tables


def cached_spectrum(m: int, beta: float) -> TruncatedSpectrum:
    """The one-beta case of :func:`summed_spectra`."""
    return summed_spectra(m, [beta])[0]
