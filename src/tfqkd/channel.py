"""Bin geometry and conditional-probability matrices of the protocol.

Matrices are plain ``numpy`` arrays with the convention: entry ``(r, s)`` is
the probability that the receiver registers symbol ``r`` given that symbol
``s`` was sent, so every column sums to one.  Dual-basis matrices are
``2m x 2m`` with symbols ``1..m`` in the time basis and ``m+1..2m`` in the
frequency basis; the off-diagonal blocks are exactly zero because sifting
discards basis mismatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import pulse_math
from .errors import DomainError
from .pulse_math import DEFAULT_ACCURACY

__all__ = [
    "ProtocolParams",
    "BinLayout",
    "make_layout",
    "p_correct",
    "p_wrong",
    "p_second_correct",
    "bob_matrix",
    "eve_matrix",
    "attack_matrix",
    "mixed_bob_matrix",
    "is_column_stochastic",
]


@dataclass(frozen=True)
class ProtocolParams:
    """One operating point of the protocol.

    ``alpha`` is the normalized symbol-pulse width and ``beta`` the
    normalized conjugate-pulse width; both are in units of the bin pitch,
    so the symbol pulse density has 1/e half-width ``alpha/2`` and the
    conjugate pulse ``beta*m/2``.  ``epsilon`` is the fraction of photons
    the eavesdropper intercepts.
    """

    m: int
    alpha: float
    beta: float
    epsilon: float = 0.0

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise DomainError(f"m must be an integer >= 2, got {self.m}")
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.beta > 0.0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise DomainError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        object.__setattr__(self, "m", int(self.m))

    @property
    def symbol_sigma(self) -> float:
        """1/e half-width of the symbol-pulse energy density."""
        return 0.5 * self.alpha

    @property
    def conjugate_sigma(self) -> float:
        """1/e half-width of the conjugate-pulse energy density."""
        return 0.5 * self.beta * self.m

    @property
    def bits_per_symbol(self) -> float:
        return math.log2(self.m)


@dataclass(frozen=True, eq=False)
class BinLayout:
    """Symbol-pulse centers and detection-bin bounds for one basis.

    Bins partition the real line; the outer bins stretch to +-infinity so no
    photon is ever lost.  The layout is mirror symmetric.
    """

    m: int
    centers: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def make_layout(m: int) -> BinLayout:
    """Centers ``i - (m+1)/2`` and unit-pitch bins, outer bins unbounded."""
    if int(m) != m or m < 2:
        raise DomainError(f"m must be an integer >= 2, got {m}")
    m = int(m)
    idx = np.arange(1, m + 1, dtype=float)
    centers = idx - 0.5 * (m + 1)
    lower = idx - 0.5 * m - 1.0
    lower[0] = -np.inf
    upper = idx - 0.5 * m
    upper[-1] = np.inf
    for a in (centers, lower, upper):
        a.setflags(write=False)
    return BinLayout(m=m, centers=centers, lower=lower, upper=upper)


def is_column_stochastic(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """True when entries lie in [0, 1] and every column sums to 1 within tol."""
    matrix = np.asarray(matrix)
    if matrix.min() < -tol or matrix.max() > 1.0 + tol:
        return False
    return bool(np.allclose(matrix.sum(axis=0), 1.0, rtol=0.0, atol=tol))


# ---------------------------------------------------------------------------
# Single-basis matrices
# ---------------------------------------------------------------------------

def _bin_masses(lo: np.ndarray, hi: np.ndarray, width: float) -> np.ndarray:
    """Masses of a width-``width`` density centred at 0 on ``[lo, hi]``;
    erf is evaluated once per bound and infinite bounds become +-1."""
    e_lo = np.where(np.isneginf(lo), -1.0, erf(lo / width))
    e_hi = np.where(np.isposinf(hi), 1.0, erf(hi / width))
    return 0.5 * (e_hi - e_lo)


def p_correct(params: ProtocolParams) -> np.ndarray:
    """Receiver matched to the sender's basis: bin masses of the symbol pulse.

    Entry ``(r, a)`` is the mass of a width-``alpha/2`` pulse centered at
    ``c(a)`` inside bin ``r``; columns are exactly stochastic because the
    bins tile the whole axis.
    """
    layout = make_layout(params.m)
    return _bin_masses(layout.lower[:, None] - layout.centers[None, :],
                       layout.upper[:, None] - layout.centers[None, :], params.symbol_sigma)


def p_wrong(params: ProtocolParams) -> np.ndarray:
    """Receiver conjugate to the resent/sent pulse: centered wide pulse.

    The conjugate pulse is centered on the whole bin comb, so every column
    is the same vector of bin masses of a width-``beta*m/2`` pulse at 0.
    """
    layout = make_layout(params.m)
    col = _bin_masses(layout.lower, layout.upper, params.conjugate_sigma)
    return np.tile(col[:, None], (1, params.m))


def _spectra(params: ProtocolParams, accuracy: float):
    return [
        pulse_math.cached_spectrum(f, params.m, params.beta, accuracy)
        for f in range(1, params.m + 1)
    ]


def p_second_correct(params: ProtocolParams, accuracy: float = DEFAULT_ACCURACY) -> np.ndarray:
    """Conjugate-basis receiver behind the wrong-basis filter bank.

    The sent pulse is first truncated by each of the ``m`` wrong-basis
    filters; each truncated pulse re-spreads in the receiver's basis with
    the spectrum built in :mod:`tfqkd.pulse_math`, and the receiver's bin
    masses are summed over all filter outputs.  Bin bounds map to spectrum
    coordinates as ``w = 2*(b - c(a))/alpha``.
    """
    m = params.m
    layout = make_layout(m)
    spectra = _spectra(params, accuracy)

    scale = 2.0 / params.alpha
    lo_off = layout.lower[:, None] - layout.centers[None, :]
    hi_off = layout.upper[:, None] - layout.centers[None, :]
    finite_lo = np.isfinite(lo_off)
    finite_hi = np.isfinite(hi_off)
    # Distinct query points: bound minus center lands on a small lattice, so
    # each spectrum is evaluated once on the sorted offset set and entries
    # are assembled by exact lookup.
    offsets = np.unique(np.concatenate([lo_off[finite_lo], hi_off[finite_hi]]))
    queries = scale * offsets
    idx_lo = np.searchsorted(offsets, lo_off[finite_lo])
    idx_hi = np.searchsorted(offsets, hi_off[finite_hi])

    P = np.zeros((m, m))
    for spec in spectra:
        cums = np.asarray(spec.cumulative(queries))
        cum_lo = np.zeros((m, m))  # cumulative at -inf
        cum_lo[finite_lo] = cums[idx_lo]
        cum_hi = np.full((m, m), spec.total_mass)  # cumulative at +inf
        cum_hi[finite_hi] = cums[idx_hi]
        P += cum_hi - cum_lo
    return np.clip(P, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Dual-basis matrices
# ---------------------------------------------------------------------------

def _block_diag(top: np.ndarray, bottom: np.ndarray | None = None) -> np.ndarray:
    m = top.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = top
    out[m:, m:] = top if bottom is None else bottom
    return out


# Per-basis blocks of attack_matrix and mixed_bob_matrix, from an already
# computed pc = p_correct(params); both bases share the same block.

def _attack_block(params: ProtocolParams, pc: np.ndarray) -> np.ndarray:
    return 0.5 * (pc @ pc + p_wrong(params))


def _mixed_block(params: ProtocolParams, pc: np.ndarray) -> np.ndarray:
    eps = params.epsilon
    if eps == 0.0:
        return pc
    return (1.0 - eps) * pc + eps * _attack_block(params, pc)


def bob_matrix(params: ProtocolParams) -> np.ndarray:
    """Sifted channel to the legitimate receiver: both bases behave alike."""
    return _block_diag(p_correct(params))


def eve_matrix(params: ProtocolParams, accuracy: float = DEFAULT_ACCURACY) -> np.ndarray:
    """Eavesdropper's post-sifting channel.

    Her first (time-basis) filter matches the sender half the time, giving
    the matched-basis block; when the announced basis is the other one, her
    information comes from the second filter bank applied to the truncated
    pulse.  Independent of the intercepted fraction: this matrix is
    conditional on an interception happening.
    """
    return _block_diag(p_correct(params), p_second_correct(params, accuracy))


def attack_matrix(params: ProtocolParams) -> np.ndarray:
    """Receiver's channel on intercepted photons.

    The interceptor picks her measurement basis uniformly; on a match the
    receiver sees a measure-and-resend composition (matrix square of the
    matched-basis matrix), otherwise the resent pulse appears in the
    receiver's basis as the centered conjugate pulse.
    """
    return _block_diag(_attack_block(params, p_correct(params)))


def mixed_bob_matrix(params: ProtocolParams) -> np.ndarray:
    """Receiver's channel averaged over attacked and untouched photons."""
    return _block_diag(_mixed_block(params, p_correct(params)))
