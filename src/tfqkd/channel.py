"""Bin geometry and conditional-probability matrices of the protocol.

Matrices are plain ``numpy`` arrays with the convention: entry ``(r, s)`` is
the probability that the receiver registers symbol ``r`` given that symbol
``s`` was sent, so every column sums to one.  Dual-basis matrices are
``2m x 2m`` with symbols ``1..m`` in the time basis and ``m+1..2m`` in the
frequency basis; the off-diagonal blocks are exactly zero because sifting
discards basis mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import pulse_math
from .errors import _check_count, _check_epsilon, _check_scalar, _check_widths

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
    the eavesdropper intercepts.  All three are scalars, ``alpha`` and
    ``beta*m`` in [1e-12, 1e12] (else :class:`DomainError`).
    """

    m: int
    alpha: float
    beta: float
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "m", _check_count("m", self.m, 2))
        _check_widths(_check_scalar("alpha", self.alpha))
        _check_widths(_check_scalar("beta", self.beta), self.m)
        _check_epsilon(_check_scalar("epsilon", self.epsilon))

    @property
    def symbol_sigma(self) -> float:
        """1/e half-width of the symbol-pulse energy density."""
        return 0.5 * self.alpha

    @property
    def conjugate_sigma(self) -> float:
        """1/e half-width of the conjugate-pulse energy density."""
        return 0.5 * self.beta * self.m


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
    m = _check_count("m", m, 2)
    idx = np.arange(1, m + 1, dtype=float)
    centers = idx - 0.5 * (m + 1)
    lower = idx - 0.5 * m - 1.0
    lower[0] = -np.inf
    upper = idx - 0.5 * m
    upper[-1] = np.inf
    for a in (centers, lower, upper):
        a.setflags(write=False)
    return BinLayout(m=m, centers=centers, lower=lower, upper=upper)


def is_column_stochastic(matrix: np.ndarray) -> bool:
    """True when entries lie in [0, 1] and every column sums to 1, both within 1e-9."""
    matrix = np.asarray(matrix)
    if matrix.min() < -1e-9 or matrix.max() > 1.0 + 1e-9:
        return False
    return bool(np.allclose(matrix.sum(axis=0), 1.0, rtol=0.0, atol=1e-9))


# ---------------------------------------------------------------------------
# Single-basis matrices
# ---------------------------------------------------------------------------

def _lattice_entries(values: np.ndarray, rows, cols, at_neg_inf: float, at_pos_inf: float):
    """Entries ``P[..., r, a] = F(r - a + 1/2) - F(r - a - 1/2)`` of the m x m blocks of cumulatives
    F at broadcasting index arrays ``rows``, ``cols``: a bin bound minus a symbol center is one of
    the 2m half-integers ``k + 1/2``, k = -m..m-1, where ``values[..., :]`` holds F; the outer
    bins reach past the lattice, so row 0 subtracts F(-inf) and row m-1 takes F(+inf)."""
    m = values.shape[-1] // 2
    upper = np.where(rows == m - 1, at_pos_inf, np.take(values, rows - cols + m, axis=-1))
    return upper - np.where(rows == 0, at_neg_inf, np.take(values, rows - cols + m - 1, axis=-1))


def _lattice_block(values: np.ndarray, at_neg_inf: float, at_pos_inf: float) -> np.ndarray:
    rows = np.arange(values.shape[-1] // 2)
    return _lattice_entries(values, rows[:, None], rows, at_neg_inf, at_pos_inf)


def _window_widths(cdf: np.ndarray) -> np.ndarray:
    """``min(4b + 1, m)`` per :func:`p_correct` block of a (k, 2m) stack, b its farthest nonzero
    ``|r - a|``: an entry off the diagonal is nonzero only next to a value ``|F| < 1/2``."""
    m = cdf.shape[-1] // 2
    reach = np.minimum(np.abs(np.arange(-m, m) + 0.5) + 0.5, m - 1)  # farthest |r - a| it feeds
    return np.minimum(4 * (reach * (np.abs(cdf) < 0.5)).max(-1).astype(int) + 1, m)


def _correct_windows(cdf: np.ndarray, width: int):
    """Entries per column, diagonal's flat positions and windows of :func:`p_correct` and its
    square: per row ``width`` columns around the diagonal, shifted inside [0, m), then (if
    ``width < m``) zeros for the entries off them.  With ``width = 4b + 1 < m`` the first and
    last 2b + 1 rows read the corner blocks, which hold all their terms."""
    m, k, edge = cdf.shape[-1] // 2, len(cdf), (width + 1) // 2
    rows, corner, extra = np.arange(m), np.arange(width), int(width < m)
    shift = np.array([0, m - width])[:, None, None]  # the top and bottom corner blocks
    corners = _lattice_entries(cdf, corner[:, None] + shift, corner + shift, -0.5, 0.5)
    # row r's window: top row r, top row 2b (the Toeplitz rows) or bottom row r - m + width
    source = np.where(rows < m - edge, np.minimum(rows, edge - 1), rows - m + 2 * width)
    diagonal = rows * (width + extra) + source % width  # where the corner row has its diagonal
    pc, pc2 = (np.concatenate([np.take(x.reshape(k, -1, width), source, 1), np.zeros((k, m, extra))], -1)
               for x in (corners, corners @ corners))
    return np.array([1.0] * width + [m - width] * extra), diagonal, pc, pc2


def _correct_lattice(m: int, alphas) -> np.ndarray:
    """Symbol-pulse cumulative ``erf / 2`` on the lattice at each of ``alphas``: (k, 2m)."""
    return 0.5 * erf((np.arange(-m, m) + 0.5) / (0.5 * np.asarray(alphas, dtype=float)[:, None]))


def p_correct(params: ProtocolParams) -> np.ndarray:
    """Receiver matched to the sender's basis: bin masses of the symbol pulse.

    Entry ``(r, a)`` is the mass of a width-``alpha/2`` pulse centered at
    ``c(a)`` inside bin ``r``; columns are exactly stochastic because the
    bins tile the whole axis.
    """
    return _lattice_block(_correct_lattice(params.m, [params.alpha]), -0.5, 0.5)[0]


def p_wrong(params: ProtocolParams) -> np.ndarray:
    """Receiver conjugate to the resent/sent pulse: centered wide pulse.

    The conjugate pulse is centered on the whole bin comb, so every column
    is the same vector of bin masses of a width-``beta*m/2`` pulse at 0; the
    matrix is a read-only broadcast of that column.
    """
    col = _wrong_columns(params.m, [params.beta])[0]
    return np.broadcast_to(col[:, None], (params.m, params.m))


def _wrong_columns(m: int, betas) -> np.ndarray:
    """The one column of :func:`p_wrong` at each of ``betas``, one ``erf`` call: (nb, m)."""
    return 0.5 * np.diff(erf(pulse_math._filter_cuts(m, betas)), axis=-1)


def _second_lattice(m: int, alphas, tables) -> np.ndarray:
    """Second-stage cumulative H on the lattice at each of ``alphas`` per summed
    spectrum table, one stacked query: (nb, k, 2m).  The points pair up as +-w
    and H(-w) = total - H(w), so the m points w > 0 answer all 2m."""
    w = (2.0 / np.asarray(alphas, dtype=float))[:, None] * (np.arange(m) + 0.5)
    upper = pulse_math._stacked_cumulative(tables, np.broadcast_to(w, (len(tables),) + w.shape))
    total = np.array([table.total_mass for table in tables])[:, None, None]
    return np.concatenate([total - upper[..., ::-1], upper], axis=-1)


def p_second_correct(params: ProtocolParams) -> np.ndarray:
    """Conjugate-basis receiver behind the wrong-basis filter bank.

    The sent pulse is first truncated by each of the ``m`` wrong-basis
    filters; each truncated pulse re-spreads in the receiver's basis, and
    the receiver's bin masses are summed over all filter outputs.  So one
    cumulative H of the spectra summed over the filter bank, built in
    :mod:`tfqkd.pulse_math`, answers every entry.  Bin bounds map to
    spectrum coordinates as ``w = 2*(b - c(a))/alpha``.  The spectrum is
    built to ``DEFAULT_ACCURACY``, and entries are clipped to [0, 1] within it.
    """
    table = pulse_math.cached_spectrum(params.m, params.beta)
    values = _second_lattice(params.m, [params.alpha], [table])[0]
    return pulse_math._clip_within(_lattice_block(values, 0.0, 1.0)[0], 1.0)


# ---------------------------------------------------------------------------
# Dual-basis matrices
# ---------------------------------------------------------------------------

def _block_diag(top: np.ndarray, bottom: np.ndarray | None = None) -> np.ndarray:
    m = top.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = top
    out[m:, m:] = top if bottom is None else bottom
    return out


def _mixed_block(pc: np.ndarray, pc2: np.ndarray, pw: np.ndarray, eps: float) -> np.ndarray:
    """Per-basis receiver block(s) when a fraction ``eps`` of photons is
    intercepted and resent, from ``pc``, ``pc2 = pc @ pc`` and ``pw = p_wrong``."""
    return (1.0 - eps) * pc + eps * (0.5 * (pc2 + pw))


def bob_matrix(params: ProtocolParams) -> np.ndarray:
    """Sifted channel to the legitimate receiver: both bases behave alike."""
    return _block_diag(p_correct(params))


def eve_matrix(params: ProtocolParams) -> np.ndarray:
    """Eavesdropper's post-sifting channel.

    Her first (time-basis) filter matches the sender half the time, giving
    the matched-basis block; when the announced basis is the other one, her
    information comes from the second filter bank applied to the truncated
    pulse.  Independent of the intercepted fraction: this matrix is
    conditional on an interception happening.
    """
    return _block_diag(p_correct(params), p_second_correct(params))


def attack_matrix(params: ProtocolParams) -> np.ndarray:
    """Receiver's channel on intercepted photons.

    The interceptor picks her measurement basis uniformly; on a match the
    receiver sees a measure-and-resend composition (matrix square of the
    matched-basis matrix), otherwise the resent pulse appears in the
    receiver's basis as the centered conjugate pulse.
    """
    return mixed_bob_matrix(ProtocolParams(params.m, params.alpha, params.beta, 1.0))


def mixed_bob_matrix(params: ProtocolParams) -> np.ndarray:
    """Receiver's channel averaged over attacked and untouched photons."""
    pc = p_correct(params)
    return _block_diag(_mixed_block(pc, pc @ pc, p_wrong(params), params.epsilon))
