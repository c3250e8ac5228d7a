"""Scalar numerics for Gaussian pulses and their time-truncated spectra.

All positions and widths are dimensionless (normalized to the bin pitch of
whichever domain is being described).  The central objects are

* exact Gaussian bin masses through the error function,
* the Fourier transform of a window-truncated standard-normal amplitude,
  evaluated in a form that stays stable at large frequency, and
* :class:`TruncatedSpectrum`, a cumulative distribution of the truncated
  pulse's spectral energy, built once by adaptive panel quadrature and then
  queryable at arbitrary points.

Spectral tails decay only like ``1/w**2``, so any mass involving an
unbounded interval is always obtained as (known total) minus a
finite-interval integral, never by integrating out to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erf, sici, wofz

from .errors import DomainError, NumericFailure

SQRT2 = np.sqrt(2.0)
SQRTPI = np.sqrt(np.pi)

#: default absolute tolerance for one spectral bin mass
DEFAULT_ACCURACY = 1e-8

# The asymptotic tail series below is trusted only beyond this point; panel
# tables therefore always extend at least this far.
_TAIL_W_MIN = 30.0
_TAIL_ORDER = 6

_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)


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


@dataclass(frozen=True)
class PulseDensity:
    """Unit-mass Gaussian energy density with 1/e half-width ``width``.

    Equivalently a normal density with standard deviation ``width/sqrt(2)``
    centered at ``center``; even-symmetric about its center.
    """

    width: float
    center: float = 0.0

    def __post_init__(self):
        if not self.width > 0.0:
            raise DomainError(f"width must be positive, got {self.width}")

    def __call__(self, z):
        u = (np.asarray(z, dtype=float) - self.center) / self.width
        return np.exp(-u * u) / (self.width * SQRTPI)

    def amplitude(self, z):
        """Positive square root of the density (chirp-free pulse)."""
        return np.sqrt(self(z))

    def mass(self, lo: float, hi: float) -> float:
        return density_bin_mass(self.width, self.center, lo, hi)


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


def _spectral_density(x_lo: float, x_hi: float, w):
    """``g(w) = |F(w)|**2 / sqrt(pi)`` for the window ``[x_lo, x_hi]``."""
    f = truncated_pulse_fourier(x_lo, x_hi, w)
    f = np.asarray(f)
    return (f.real * f.real + f.imag * f.imag) / SQRTPI


# ---------------------------------------------------------------------------
# Asymptotic tail mass of the spectral density
# ---------------------------------------------------------------------------

def _phi_derivatives(x: float, order: int):
    """Values ``phi^(k)(x)`` for k = 0..order-1 (probabilists' Hermite)."""
    if not np.isfinite(x):
        return [0.0] * order
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    he = [1.0, x]
    for k in range(2, order):
        he.append(x * he[k - 1] - (k - 1) * he[k - 2])
    return [((-1.0) ** k) * he[k] * phi for k in range(order)]


def _osc_tail_integrals(n_max: int, lag: float, w_from: float):
    """``I_n = integral_{w_from}^inf exp(i*lag*w) * w**-n dw`` for n <= n_max.

    ``I_1`` comes from the sine/cosine integrals; higher orders follow the
    exact downward recurrence from integration by parts.
    """
    out = {}
    if lag == 0.0:
        for n in range(2, n_max + 1):
            out[n] = w_from ** (1 - n) / (n - 1) + 0.0j
        return out
    si, ci = sici(abs(lag) * w_from)
    i1 = -ci + 1j * (0.5 * np.pi - si)
    if lag < 0.0:
        i1 = np.conj(i1)
    out[1] = i1
    for n in range(2, n_max + 1):
        out[n] = (np.exp(1j * lag * w_from) * w_from ** (1 - n) + 1j * lag * out[n - 1]) / (n - 1)
    return out


def _spectral_tail_mass(x_lo: float, x_hi: float, w_from: float) -> float:
    """``(1/sqrt(pi)) * integral_{w_from}^inf |F(w)|**2 dw`` by series.

    Expands F through repeated integration by parts (boundary terms carry
    Gaussian derivatives at the window edges) and integrates each product
    term exactly.  Truncation error is O(w_from ** -(order+1)); with
    order 6 and ``w_from >= 30`` that is far below 1e-9.
    """
    endpoints = []
    if np.isfinite(x_lo):
        endpoints.append((+1.0, x_lo, _phi_derivatives(x_lo, _TAIL_ORDER)))
    if np.isfinite(x_hi):
        endpoints.append((-1.0, x_hi, _phi_derivatives(x_hi, _TAIL_ORDER)))
    if not endpoints:
        return 0.0  # untruncated pulse: super-exponential tail, nothing left past w_from
    total = 0.0 + 0.0j
    cache = {}
    for s1, x1, d1 in endpoints:
        for s2, x2, d2 in endpoints:
            lag = x2 - x1
            if lag not in cache:
                cache[lag] = _osc_tail_integrals(2 * _TAIL_ORDER, lag, w_from)
            integrals = cache[lag]
            for k1 in range(_TAIL_ORDER):
                c1 = s1 * d1[k1] * (-1j) ** (k1 + 1)
                for k2 in range(_TAIL_ORDER):
                    c2 = s2 * d2[k2] * (-1j) ** (k2 + 1)
                    total += c1 * np.conj(c2) * integrals[k1 + k2 + 2]
    return float(total.real) / SQRTPI


# ---------------------------------------------------------------------------
# Adaptive panel quadrature
# ---------------------------------------------------------------------------

def _panel_values(g, a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre 15 estimates and GL15-GL7 error gauges per panel."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    n15, w15 = _GL15
    n7, w7 = _GL7
    pts15 = mid[:, None] + half[:, None] * n15[None, :]
    v15 = g(pts15.ravel()).reshape(pts15.shape)
    est15 = (v15 * w15).sum(axis=1) * half
    pts7 = mid[:, None] + half[:, None] * n7[None, :]
    v7 = g(pts7.ravel()).reshape(pts7.shape)
    est7 = (v7 * w7).sum(axis=1) * half
    return est15, np.abs(est15 - est7)


def _integrate_adaptive(g, seed_edges: np.ndarray, tol_total: float, max_rounds: int = 48):
    """Refine seed panels by bisection until the summed error gauge meets
    ``tol_total``; returns (sorted edges, per-panel integrals, error bound)."""
    a = np.asarray(seed_edges[:-1], dtype=float)
    b = np.asarray(seed_edges[1:], dtype=float)
    span = float(seed_edges[-1] - seed_edges[0])
    keep_a, keep_b, keep_v, keep_e = [], [], [], []
    for _ in range(max_rounds):
        if a.size == 0:
            break
        val, err = _panel_values(g, a, b)
        local = tol_total * (b - a) / span
        ok = (err <= np.maximum(local, 1e-17)) | ((b - a) <= 1e-12)
        keep_a.append(a[ok])
        keep_b.append(b[ok])
        keep_v.append(val[ok])
        keep_e.append(err[ok])
        bad = ~ok
        if not bad.any():
            a = np.empty(0)
            break
        mids = 0.5 * (a[bad] + b[bad])
        a = np.concatenate([a[bad], mids])
        b = np.concatenate([mids, b[bad]])
    if a.size:  # ran out of rounds: keep what we have, report honestly
        val, err = _panel_values(g, a, b)
        keep_a.append(a)
        keep_b.append(b)
        keep_v.append(val)
        keep_e.append(err)
    a = np.concatenate(keep_a)
    b = np.concatenate(keep_b)
    v = np.concatenate(keep_v)
    e = np.concatenate(keep_e)
    order = np.argsort(a, kind="stable")
    a, b, v, e = a[order], b[order], v[order], e[order]
    err_total = float(e.sum())
    if err_total > tol_total * 4.0:
        raise NumericFailure(
            f"panel quadrature stalled at error {err_total:.3e} (target {tol_total:.3e})",
            achieved=err_total,
            target=tol_total,
        )
    edges = np.concatenate([a, b[-1:]])
    return edges, v, err_total


# ---------------------------------------------------------------------------
# TruncatedSpectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruncatedSpectrum:
    """Cumulative spectral-energy distribution of a time-truncated pulse.

    Immutable after construction, so cached instances are shared.  ``total_mass``
    is the exact pass probability of the truncating filter (the spectrum
    integrates to it by Parseval); ``total_mass_numeric`` is the same value
    recovered from the panel table plus the asymptotic tails, kept as a
    self-check of the quadrature.
    """

    filter_index: int
    m: int
    beta: float
    x_lo: float
    x_hi: float
    accuracy: float
    span: float
    total_mass: float
    total_mass_numeric: float
    _edges: np.ndarray = field(repr=False)
    _cum: np.ndarray = field(repr=False)

    def density(self, w):
        """Spectral energy density g(w) of the truncated pulse."""
        return _spectral_density(self.x_lo, self.x_hi, w)

    def cumulative(self, w):
        """G(w): spectral mass below ``w``, absolute error <= ``accuracy``."""
        arr = np.atleast_1d(np.asarray(w, dtype=float))
        out = np.empty(arr.shape, dtype=float)
        lo_edge, hi_edge = self._edges[0], self._edges[-1]

        below = arr < lo_edge
        above = arr > hi_edge
        inside = ~(below | above)

        for i in np.nonzero(below)[0]:
            if np.isneginf(arr[i]):
                out[i] = 0.0
            else:
                # mass below -|w| equals the mirrored window's upper tail
                out[i] = _spectral_tail_mass(-self.x_hi, -self.x_lo, -arr[i])
        for i in np.nonzero(above)[0]:
            if np.isposinf(arr[i]):
                out[i] = self.total_mass
            else:
                out[i] = self.total_mass - _spectral_tail_mass(self.x_lo, self.x_hi, arr[i])

        if inside.any():
            ws = arr[inside]
            idx = np.searchsorted(self._edges, ws, side="right") - 1
            idx = np.clip(idx, 0, len(self._edges) - 2)
            starts = self._edges[idx]
            mid = 0.5 * (starts + ws)
            half = 0.5 * (ws - starts)
            n15, w15 = _GL15
            pts = mid[:, None] + half[:, None] * n15[None, :]
            vals = self.density(pts.ravel()).reshape(pts.shape)
            partial = (vals * w15).sum(axis=1) * half
            out[inside] = self._cum[idx] + partial

        out = np.clip(out, 0.0, self.total_mass)
        return out if np.ndim(w) else float(out[0])

    def bin_mass(self, w_lo: float, w_hi: float) -> float:
        """Spectral mass on ``[w_lo, w_hi]``; unbounded sides use the
        remainder against ``total_mass`` rather than direct integration."""
        if w_lo > w_hi:
            raise DomainError(f"empty interval: w_lo={w_lo} > w_hi={w_hi}")
        if w_lo == w_hi:
            return 0.0
        if np.isposinf(w_hi):
            lower = 0.0 if np.isneginf(w_lo) else self.cumulative(w_lo)
            return max(self.total_mass - lower, 0.0)
        upper = self.cumulative(w_hi)
        lower = 0.0 if np.isneginf(w_lo) else self.cumulative(w_lo)
        return max(upper - lower, 0.0)


def _filter_window(f: int, m: int, beta: float):
    """Normalized amplitude-domain window (2*b/(beta*m)) of filter ``f``."""
    b_lo = -np.inf if f == 1 else f - 0.5 * m - 1.0
    b_up = np.inf if f == m else f - 0.5 * m
    scale = 0.5 * beta * m
    x_lo = -np.inf if np.isneginf(b_lo) else b_lo / scale
    x_hi = np.inf if np.isposinf(b_up) else b_up / scale
    return x_lo, x_hi


def _seed_edges(x_lo: float, x_hi: float, w_max: float) -> np.ndarray:
    # Panels must resolve both the Gaussian core of g and the interference
    # ripple whose period is 2*pi / (window length).
    if np.isfinite(x_lo) and np.isfinite(x_hi):
        period = 2.0 * np.pi / max(x_hi - x_lo, 1e-9)
        h = min(0.5, period / 4.0)
    else:
        h = 0.5
    core = min(10.0, w_max)
    right = list(np.arange(0.0, core, h)) + [core]
    w = core
    while w < w_max:
        w = min(w * 1.4, w_max)
        right.append(w)
    right = np.asarray(right)
    return np.unique(np.concatenate([-right[::-1], right]))


def build_spectrum(
    f: int,
    m: int,
    beta: float,
    accuracy: float = DEFAULT_ACCURACY,
    span: float | None = None,
    window: tuple[float, float] | None = None,
) -> TruncatedSpectrum:
    """Construct the cumulative spectrum of the pulse truncated by filter ``f``.

    Parameters
    ----------
    f : int
        Filter index, 1..m.
    m : int
        Number of symbols per basis (also the number of filters).
    beta : float
        Normalized width of the pulse being truncated (the filter bank has
        unit pitch; the pulse has 1/e half-width ``beta*m/2``).
    accuracy : float
        Absolute tolerance for any single bin mass queried later.
    span : float, optional
        Half-extent of the precomputed panel table.  Queries beyond it fall
        back to the asymptotic tail series and remain within ``accuracy``.
    window : (float, float), optional
        Override of the truncation window in normalized amplitude
        coordinates; a test hook (``(-inf, inf)`` gives the untruncated
        reference spectrum ``exp(-w**2)/sqrt(pi)``).
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if not 1 <= f <= m:
        raise DomainError(f"filter index {f} outside 1..{m}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not accuracy > 0.0:
        raise DomainError(f"accuracy must be positive, got {accuracy}")

    x_lo, x_hi = window if window is not None else _filter_window(f, m, beta)
    if x_lo > x_hi:
        raise DomainError(f"empty window: {x_lo} > {x_hi}")
    w_max = max(_TAIL_W_MIN, float(span) if span is not None else 0.0)

    def g(w):
        return _spectral_density(x_lo, x_hi, w)

    edges, panels, _ = _integrate_adaptive(g, _seed_edges(x_lo, x_hi, w_max), tol_total=0.5 * accuracy)

    left_tail = _spectral_tail_mass(-x_hi, -x_lo, -float(edges[0]))
    cum = left_tail + np.concatenate([[0.0], np.cumsum(panels)])
    right_tail = _spectral_tail_mass(x_lo, x_hi, float(edges[-1]))

    e_lo = -1.0 if np.isneginf(x_lo) else erf(x_lo)
    e_hi = 1.0 if np.isposinf(x_hi) else erf(x_hi)
    total_exact = 0.5 * (e_hi - e_lo)
    total_numeric = float(cum[-1] + right_tail)

    edges.setflags(write=False)
    cum.setflags(write=False)
    return TruncatedSpectrum(
        filter_index=f,
        m=m,
        beta=beta,
        x_lo=x_lo,
        x_hi=x_hi,
        accuracy=accuracy,
        span=float(edges[-1]),
        total_mass=float(total_exact),
        total_mass_numeric=total_numeric,
        _edges=edges,
        _cum=cum,
    )


def spectrum_bin_mass(spec: TruncatedSpectrum, w_lo: float, w_hi: float) -> float:
    """Spectral mass of ``spec`` on ``[w_lo, w_hi]`` (bounds may be infinite)."""
    return spec.bin_mass(w_lo, w_hi)


@lru_cache(maxsize=8192)
def cached_spectrum(f: int, m: int, beta: float, accuracy: float, span: float) -> TruncatedSpectrum:
    """Memoized :func:`build_spectrum`; spectra are immutable so sharing is safe."""
    return build_spectrum(f, m, beta, accuracy=accuracy, span=span)
