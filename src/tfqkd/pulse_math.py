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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erf, factorial, sici, wofz

from .errors import DomainError, NumericFailure

SQRT2 = np.sqrt(2.0)
SQRTPI = np.sqrt(np.pi)

#: default absolute tolerance for one spectral bin mass
DEFAULT_ACCURACY = 1e-8

# The asymptotic tail series below is trusted only beyond this point, so the
# panel tables cover exactly [0, _TAIL_W_MIN]; every spectrum is even.
_TAIL_W_MIN = 30.0
_TAIL_ORDER = 10
_FACTORIAL = factorial(np.arange(2 * _TAIL_ORDER))  # k! for k < 2 * order


# ---------------------------------------------------------------------------
# Gaussian densities and exact bin masses
# ---------------------------------------------------------------------------

def density_bin_mass(width: float, center: float, lo: float, hi: float) -> float:
    """Mass of a unit-energy Gaussian density on the interval ``[lo, hi]``.

    The density has 1/e half-width ``width`` (i.e. it is a normal density
    with standard deviation ``width/sqrt(2)``), so the closed form is
    ``0.5*(erf((hi-center)/width) - erf((lo-center)/width))``.  Infinite
    bounds are allowed and map to ``erf = +-1``.
    """
    if not width > 0.0:
        raise DomainError(f"width must be positive, got {width}")
    if lo > hi:
        raise DomainError(f"empty interval: lo={lo} > hi={hi}")
    elo = -1.0 if np.isneginf(lo) else erf((lo - center) / width)
    ehi = 1.0 if np.isposinf(hi) else erf((hi - center) / width)
    return 0.5 * (ehi - elo)


# ---------------------------------------------------------------------------
# Fourier transform of a truncated standard-normal amplitude
# ---------------------------------------------------------------------------

def _erf_exp_half(x: float, w: np.ndarray) -> np.ndarray:
    """``exp(-w**2/2) * erf((x + i*w)/sqrt(2))`` without overflow.

    A naive complex erf overflows once ``|w|`` reaches ~38; rewriting
    through the Faddeeva function keeps every factor bounded because
    ``wofz`` is evaluated in the half plane where it is <= 1 in modulus.
    """
    envelope = np.exp(-0.5 * w * w)
    if np.isposinf(x):
        return envelope + 0.0j
    if np.isneginf(x):
        return -envelope + 0.0j
    damp = np.exp(-0.5 * x * x) * np.exp(-1j * w * x)
    if x >= 0.0:
        return envelope - damp * wofz((-w + 1j * x) / SQRT2)
    return -envelope + damp * wofz((w - 1j * x) / SQRT2)


def truncated_pulse_fourier(x_lo: float, x_hi: float, w):
    """``F(w) = integral of phi(x)*exp(-i*w*x)`` over ``[x_lo, x_hi]``.

    ``phi`` is the standard normal pdf; bounds may be infinite.  Satisfies
    ``|F| <= 1`` and the conjugate symmetry ``F(-w) == conj(F(w))``.
    """
    if x_lo > x_hi:
        raise DomainError(f"empty window: x_lo={x_lo} > x_hi={x_hi}")
    w_arr = np.asarray(w, dtype=float)
    out = 0.5 * (_erf_exp_half(x_hi, w_arr) - _erf_exp_half(x_lo, w_arr))
    return out if out.ndim else complex(out)


def _summed_density(windows, w):
    """Sum over ``windows`` of the spectral density ``|F(w)|**2 / sqrt(pi)``
    of :func:`truncated_pulse_fourier`, with one :func:`_erf_exp_half` per
    distinct edge: neighbouring filters share one."""
    w_arr = np.asarray(w, dtype=float)
    half = {x: _erf_exp_half(x, w_arr) for x in set().union(*windows)}
    spectra = (0.5 * (half[x_hi] - half[x_lo]) for x_lo, x_hi in windows)
    return sum((f.real * f.real + f.imag * f.imag) / SQRTPI for f in spectra)


# ---------------------------------------------------------------------------
# Asymptotic tail mass of the spectral density
# ---------------------------------------------------------------------------

def _phi_derivatives(x: float, order: int):
    """Values ``phi^(k)(x)`` for k = 0..order-1 (probabilists' Hermite)."""
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    he = [1.0, x]
    for k in range(2, order):
        he.append(x * he[k - 1] - (k - 1) * he[k - 2])
    return [((-1.0) ** k) * he[k] * phi for k in range(order)]


def _tail_coefficients(windows):
    """Series coefficients of ``(1/sqrt(pi)) * integral_w^inf |F|**2``,
    summed over the spectra of ``windows``.

    Integration by parts expands F into Gaussian derivatives at the finite
    window edges, so ``|F|**2`` is a sum of ``exp(i*lag*w) * w**-n`` terms,
    n = 2..2*order.  An edge with itself has lag 0: powers of ``1/w`` after
    integration.  The two edges have lag ``x_hi - x_lo``: their terms
    integrate to ``I_n``, whose exact recurrence
    ``I_n = (exp(i*lag*w) * w**(1-n) + i*lag*I_{n-1}) / (n-1)`` is unrolled
    here into ``first * I_1 + exp(i*lag*w) * (powers of 1/w)``.  The series
    is linear in these terms, so a sum of spectra adds them up; its cross
    terms must share one lag (all interior filters have the same length).

    Returns ``(coef, first, lag)``; ``coef[k]`` multiplies ``w**-(k+1)`` in
    one column (lag 0) or three (lag 0, real and imaginary cross part).
    """
    # per finite edge: c_k = s * phi^(k)(x) * (-i)**(k+1), k = 0..order-1
    minus_i = (-1j) ** np.arange(1, _TAIL_ORDER + 1)
    per_window = [[sign * np.asarray(_phi_derivatives(x, _TAIL_ORDER)) * minus_i
                   for sign, x in ((+1.0, x_lo), (-1.0, x_hi)) if np.isfinite(x)]
                  for x_lo, x_hi in windows]
    n = np.arange(2, 2 * _TAIL_ORDER + 1)
    terms = [c for edges in per_window for c in edges]
    lag0 = sum(np.convolve(c, np.conj(c)).real for c in terms) if terms else np.zeros(n.size)
    coef = lag0 / (n - 1) / SQRTPI
    pairs = [edges for edges in per_window if len(edges) == 2]
    if not pairs:
        return coef[:, None], 0.0, np.inf
    lags = [x_hi - x_lo for x_lo, x_hi in windows if np.isfinite(x_hi - x_lo)]
    if not np.allclose(lags, lags[0], rtol=1e-12, atol=0.0):
        raise DomainError(f"windows of lengths {min(lags)} and {max(lags)} share no tail series")
    lag = float(lags[0])
    il = 1j * lag
    cross = sum(2.0 * np.convolve(lo, np.conj(hi)) for lo, hi in pairs)
    scaled = cross / SQRTPI / _FACTORIAL[n - 1]  # c_n / (n-1)!
    first = np.sum(scaled * il ** (n - 1))
    unrolled = np.array([_FACTORIAL[j - 2] * np.sum(scaled[k:] * il ** (n[k:] - j))
                         for k, j in enumerate(n)])
    return np.column_stack([coef, unrolled.real, unrolled.imag]), first, lag


def _tail_mass(series, w):
    """Spectral mass above each ``w >= 30`` of the 1-d array ``w``;
    ``series`` comes from :func:`_tail_coefficients`.  The spectrum is even,
    so the mass below ``-w`` is the same number.  Truncation error is
    O(w ** -(order+1)); with order 10 and ``w >= 30`` it stays below 1e-14
    against adaptive quadrature.
    """
    coef, first, lag = series
    w = np.asarray(w, dtype=float)
    # vander multiplies out the powers of 1/w
    sums = np.vander(1.0 / w, coef.shape[0] + 1, increasing=True)[:, 1:] @ coef
    if coef.shape[1] == 1:
        return sums[:, 0]
    si, ci = sici(lag * w)
    i_1 = -ci + 1j * (0.5 * np.pi - si)
    cross = first * i_1 + np.exp(1j * lag * w) * (sums[:, 1] + 1j * sums[:, 2])
    return sums[:, 0] + cross.real


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
    node values, error bound)."""
    a = np.asarray(seed_edges[:-1], dtype=float)
    b = np.asarray(seed_edges[1:], dtype=float)
    span = float(seed_edges[-1] - seed_edges[0])
    kept = []  # per round: edges, integrals, gauges, node values of accepted panels
    for round_ in range(max_rounds + 1):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = g((mid[:, None] + half[:, None] * _K15_NODES).ravel()).reshape(a.size, -1)
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

    The density is the sum of the spectra of the pulse truncated by each of
    the ``windows``: one window for a single filter, all ``m`` for the
    filter bank whose outputs the eavesdropper's receiver sums.  Immutable
    after construction, so cached instances are shared.  ``total_mass`` is
    the exact pass probability of the windows (the spectrum integrates to
    it by Parseval); ``total_mass_numeric`` is the same value recovered from
    the panel table plus the asymptotic tails, kept as a self-check of the
    quadrature; ``error_bound`` is the summed K15-G7 gauge of its
    ``n_panels`` panels.  The spectrum of a real pulse is even, so the table
    covers ``[0, 30]`` only and ``G(-w) = total_mass - G(w)``; the bound thus
    holds for G everywhere.  Per panel the table holds G as a polynomial:
    ``total_mass / 2`` plus the mass between 0 and the panel plus the
    antiderivative of the K15 interpolant.  Beyond 30 the tail series
    answers.
    """

    windows: tuple
    m: int
    beta: float
    accuracy: float
    total_mass: float
    total_mass_numeric: float
    error_bound: float
    n_panels: int
    _edges: np.ndarray = field(repr=False)
    _coef: np.ndarray = field(repr=False)
    _tail: tuple = field(repr=False)

    def density(self, w):
        """Spectral energy density g(w), summed over the windows."""
        return _summed_density(self.windows, w)

    def cumulative(self, w):
        """G(w): spectral mass below ``w``, absolute error <= ``accuracy``;
        raises :class:`NumericFailure` if it leaves ``[0, total_mass]`` by more."""
        arr = np.atleast_1d(np.asarray(w, dtype=float))
        if np.isnan(arr).any():
            raise DomainError("spectrum queried at NaN")
        edges, mag = self._edges, np.abs(arr)
        g = np.full(arr.shape, self.total_mass)  # G(|w|) at |w| = inf
        inside = mag <= edges[-1]
        ws = mag[inside]
        idx = np.minimum(np.searchsorted(edges, ws, side="right") - 1, edges.size - 2)
        a, b = edges[idx], edges[idx + 1]
        t = (2.0 * ws - a - b) / (b - a)
        powers = np.vander(t, self._coef.shape[1], increasing=True)
        g[inside] = np.einsum("ij,ij->i", self._coef[idx], powers)
        tail = ~inside & np.isfinite(mag)
        if tail.any():
            g[tail] = self.total_mass - _tail_mass(self._tail, mag[tail])
        out = _clip_within(np.where(arr < 0.0, self.total_mass - g, g), self.total_mass,
                           self.accuracy)
        return out if np.ndim(w) else float(out[0])

    def bin_mass(self, w_lo, w_hi):
        """Spectral mass on each ``[w_lo, w_hi]`` (arrays broadcast; a float
        for scalar bounds); unbounded sides use the remainder against
        ``total_mass`` rather than direct integration.  Raises
        :class:`NumericFailure` if it is negative by more than ``accuracy``."""
        if np.any(np.asarray(w_lo) > np.asarray(w_hi)):
            raise DomainError(f"empty interval: w_lo={w_lo} > w_hi={w_hi}")
        # cumulative is exactly 0 at -inf and total_mass at +inf
        mass = np.asarray(self.cumulative(w_hi) - self.cumulative(w_lo))
        mass = _clip_within(mass, self.total_mass, self.accuracy)
        return mass if mass.ndim else float(mass)


def _clip_within(values: np.ndarray, upper: float, accuracy: float) -> np.ndarray:
    """Clip ``values`` to ``[0, upper]`` when they leave it by at most
    ``accuracy``; raise :class:`NumericFailure` beyond that."""
    excursion = max(-values.min(initial=0.0), values.max(initial=upper) - upper)
    if excursion > accuracy:
        raise NumericFailure(f"values leave [0, {upper:.17g}] by {excursion:.3e} (tolerance "
                             f"{accuracy:.3e})", achieved=excursion, target=accuracy)
    return np.clip(values, 0.0, upper)


def _filter_window(f: int, m: int, beta: float):
    """Normalized amplitude-domain window (2*b/(beta*m)) of filter ``f``."""
    b_lo = -np.inf if f == 1 else f - 0.5 * m - 1.0
    b_up = np.inf if f == m else f - 0.5 * m
    scale = 0.5 * beta * m
    x_lo = -np.inf if np.isneginf(b_lo) else b_lo / scale
    x_hi = np.inf if np.isposinf(b_up) else b_up / scale
    return x_lo, x_hi


def _seed_edges(length: float) -> np.ndarray:
    # Panels must resolve both the Gaussian core of g and the interference
    # ripple whose period is 2*pi / (window length).
    if np.isfinite(length):
        period = 2.0 * np.pi / max(length, 1e-9)
        h = min(1.0, period / 4.0)
    else:
        h = 1.0
    right = [*np.arange(0.0, 10.0, h), 10.0]
    while right[-1] < _TAIL_W_MIN:
        right.append(min(right[-1] * 1.4, _TAIL_W_MIN))
    return np.asarray(right)


def build_spectrum(
    f: int | None,
    m: int,
    beta: float,
    accuracy: float = DEFAULT_ACCURACY,
    window: tuple[float, float] | None = None,
) -> TruncatedSpectrum:
    """Construct the cumulative spectrum of the pulse truncated by filter ``f``,
    or summed over all ``m`` filters when ``f`` is None.

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
    accuracy : float
        Absolute tolerance for any single bin mass queried later.
    window : (float, float), optional
        Override of the truncation window in normalized amplitude
        coordinates; a test hook (``(-inf, inf)`` gives the untruncated
        reference spectrum ``exp(-w**2)/sqrt(pi)``).
    """
    if m % 1 or not m >= 2:
        raise DomainError(f"m must be an integer >= 2, got {m}")
    m = int(m)
    if f is not None and f not in range(1, m + 1):
        raise DomainError(f"filter index {f} outside 1..{m}")
    if not 0.0 < beta < np.inf:
        raise DomainError(f"beta must be finite and positive, got {beta}")
    if not 0.0 < accuracy < np.inf:
        raise DomainError(f"accuracy must be finite and positive, got {accuracy}")

    filters = range(1, m + 1) if f is None else (f,)
    windows = (tuple(window),) if window is not None else tuple(
        _filter_window(g, m, beta) for g in filters)
    if any(x_lo >= x_hi for x_lo, x_hi in windows):
        raise DomainError(f"empty window in {windows}")

    shortest = min(x_hi - x_lo for x_lo, x_hi in windows)
    # a bin across w = 0 carries the error of both halves, so each half gets
    # accuracy / 4 and the bin stays within accuracy / 2
    edges, panels, nodes, error_bound = _integrate_adaptive(
        lambda w: _summed_density(windows, w), _seed_edges(shortest), tol_total=0.25 * accuracy
    )
    series = _tail_coefficients(windows)
    total_exact = sum(density_bin_mass(1.0, 0.0, x_lo, x_hi) for x_lo, x_hi in windows)
    cum = np.concatenate([[0.0], np.cumsum(panels)])
    # per panel: G(w) = polynomial in t, the constant term carrying the mass
    # below the panel (half the total below w = 0, by evenness)
    coef = (0.5 * np.diff(edges))[:, None] * (nodes @ _K15_ANTIDERIVATIVE.T)
    coef[:, 0] += 0.5 * total_exact + cum[:-1]
    total_numeric = 2.0 * float(cum[-1] + _tail_mass(series, edges[-1:])[0])

    for table in (edges, coef):
        table.setflags(write=False)
    return TruncatedSpectrum(
        windows=windows,
        m=m,
        beta=beta,
        accuracy=accuracy,
        total_mass=float(total_exact),
        total_mass_numeric=total_numeric,
        error_bound=error_bound,
        n_panels=edges.size - 1,
        _edges=edges,
        _coef=coef,
        _tail=series,
    )


@lru_cache(maxsize=1024)
def cached_spectrum(m: int, beta: float, accuracy: float) -> TruncatedSpectrum:
    """Memoized :func:`build_spectrum` summed over all ``m`` filters, the one
    table the eavesdropper's second stage queries; spectra are immutable so
    sharing is safe."""
    return build_spectrum(None, m, beta, accuracy=accuracy)
