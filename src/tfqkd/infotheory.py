"""Mutual information, secret capacity, symbol error rate, and key rate.

All information quantities are in bits (base-2 logs) and use the convention
``0 * log(0/q) == 0``.  Matrix entries below 1e-300 are treated as exact
zeros so that structurally-zero blocks cannot produce spurious infinities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import channel, pulse_math
from .channel import ProtocolParams
from .errors import DomainError, _check_positive, _check_widths
from .pulse_math import DEFAULT_ACCURACY

_ZERO_CLAMP = 1e-300

__all__ = [
    "CapacityReport",
    "mutual_info_single",
    "mutual_info_dual",
    "capacity",
    "key_rate",
]


@dataclass(frozen=True)
class CapacityReport:
    """Information balance of one operating point, in bits per photon.

    ``i_ab`` is the sender-receiver information over the attack-averaged
    channel.  ``i_ae``, the sender-eavesdropper information, scales linearly
    with the intercepted fraction and is exactly zero when nothing is
    intercepted.  ``capacity`` is ``i_ab - i_ae`` clamped at zero.  ``qser``
    is the symbol error rate of the sifted key: one minus the mean diagonal
    of the attack-averaged receiver matrix.
    """

    i_ab: float
    i_ae: float
    capacity: float
    qser: float


def _checked(matrix, prior) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of a channel matrix of probabilities and a prior distribution."""
    matrix, prior = np.asarray(matrix, dtype=float), np.asarray(prior, dtype=float)
    if matrix.ndim != 2 or prior.ndim != 1 or matrix.shape[1] != prior.shape[0]:
        raise DomainError(f"dimension mismatch: matrix {matrix.shape} vs prior {prior.shape}")
    if not (np.all(prior >= 0.0) and abs(prior.sum() - 1.0) <= 1e-9):
        raise DomainError(f"prior must be finite, >= 0 and sum to 1 within 1e-9, got {prior}")
    if not np.all((matrix >= 0.0) & (matrix <= 1.0)):
        raise DomainError("matrix entries must be finite and lie in [0, 1]")
    return matrix, prior


def _mutual_info(matrix: np.ndarray, prior: np.ndarray, received: np.ndarray, counts=1.0):
    """Mutual information (bits) of each channel of a (..., r, s) stack, in which
    column s stands for ``counts[s]`` equal columns."""
    joint = matrix * prior
    mask = joint > _ZERO_CLAMP
    # marginals are positive wherever some joint entry in the row is; the
    # other entries stay 0
    terms = np.divide(matrix, received[..., None], out=np.zeros(joint.shape), where=mask)
    np.log2(terms, out=terms, where=mask)
    np.multiply(terms, np.multiply(joint, counts, out=joint), out=terms, where=mask)
    return terms.sum(axis=(-2, -1))


def mutual_info_single(matrix: np.ndarray, prior: np.ndarray) -> float:
    """Mutual information (bits) between sender and receiver of one channel.

    ``matrix[r, s]`` is P(receive r | sent s); ``prior[s]`` the sender's
    distribution.
    """
    matrix, prior = _checked(matrix, prior)
    return float(_mutual_info(matrix, prior, matrix @ prior))


def mutual_info_dual(matrix: np.ndarray) -> float:
    """Mutual information of the two-basis alphabet under a uniform prior,
    minus the one bit that only identifies the basis.

    For the block-diagonal matrices produced by :mod:`tfqkd.channel` this
    equals the mean of the two blocks' single-basis mutual informations.
    """
    n = np.shape(matrix)[0]
    if n % 2:
        raise DomainError(f"dual-basis matrix must have even size, got {n}")
    return mutual_info_single(matrix, np.full(n, 1.0 / n)) - 1.0


# Sifting makes every dual-basis matrix block-diagonal, so with a uniform
# prior its mutual_info_dual is the mean of its two m x m blocks' values, and
# the receiver's QSER comes from the one block both bases share.

def _block_stats(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Information and QSER of each block of a (k, m, m) stack."""
    m = blocks.shape[-1]
    prior = np.full(m, 1.0 / m)
    return _mutual_info(blocks, prior, blocks @ prior), 1.0 - np.trace(blocks, axis1=-2, axis2=-1) / m


@lru_cache(maxsize=64)
def _lattice_weights(m: int) -> np.ndarray:
    """Weights of the ``x log2 x`` terms of :func:`_lattice_stats`: an entry's cells over m
    (``m - 1 - |r - a|`` interior cells, ``m - 2`` on the diagonal); received ones -1."""
    s = np.arange(2 - m, m - 1)
    weights = np.concatenate([m - 1 - np.abs(s) - (s == 0), np.ones(2 * m), np.full(m, -m)]) / m
    weights.setflags(write=False)
    return weights


def _lattice_stats(values: np.ndarray, at_neg_inf: float, at_pos_inf: float,
                   accuracy: float) -> tuple[np.ndarray, np.ndarray]:
    """Information and QSER of each block ``channel._lattice_block(values, at_neg_inf,
    at_pos_inf)`` of a (k, 2m) stack, without forming it: rows 1..m-2 are Toeplitz in
    ``r - a`` and rows 0, m-1 take F(-inf), F(inf), so 4m - 3 distinct entries, clipped
    as the block would be, give H(Y|X), and windows of one running sum give H(Y)."""
    m = values.shape[-1] // 2
    entries = pulse_math._clip_within(np.concatenate([
        values[..., 2:-1] - values[..., 1:-2],          # interior, s = 2-m..m-2
        values[..., m:0:-1] - at_neg_inf,               # row 0, a = 0..m-1
        at_pos_inf - values[..., 2 * m - 2:m - 2:-1],   # row m-1, a = 0..m-1
    ], axis=-1), 1.0, accuracy)
    interior, row0, last = np.split(entries, [2 * m - 3, 3 * m - 3], axis=-1)
    running = np.concatenate([np.zeros(interior.shape[:-1] + (1,)), interior], axis=-1).cumsum(-1)
    received = np.concatenate([row0.sum(-1, keepdims=True), last.sum(-1, keepdims=True),
                               running[..., m:] - running[..., :m - 2]], axis=-1) / m
    terms = np.concatenate([entries, received], axis=-1)
    log_terms = np.log2(terms, out=np.zeros(terms.shape), where=terms > _ZERO_CLAMP)
    info = (log_terms * terms * _lattice_weights(m)).sum(-1)
    trace = (m - 2) * interior[..., m - 2] + row0[..., 0] + last[..., -1]
    return info, 1.0 - trace / m


def _window_stats(counts, diagonal, pc, pc2, pw, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(k, nb) information and QSER of ``channel._mixed_block(pc, pc @ pc, pw, eps)`` from
    :func:`channel._correct_windows`: off the window row r holds ``eps * (0.5 * pw[r])``."""
    m = pc.shape[-2]
    mixed = channel._mixed_block(pc[:, None], pc2[:, None], pw[..., None], eps)
    received = channel._mixed_block(pc.sum(-1)[:, None], pc2.sum(-1)[:, None], m * pw, eps) / m
    trace = np.take(mixed.reshape(mixed.shape[:2] + (-1,)), diagonal, axis=-1).sum(-1)
    return _mutual_info(mixed, 1.0 / m, received, counts), 1.0 - trace / m


# A tile of alphas x betas stacks at most this many entries: m * min(W + 1, m) per pair
# in the mixed blocks' windows, 4m per alpha in the lattice terms, about 8 per point
# of the second stage's query (m points per pair); so memory stays flat for any m.
_CHUNK_ENTRIES = 1 << 14


def _capacity_grid(m, epsilon, alphas, betas, accuracy: float):
    """``(capacity, i_ab, i_ae, qser)`` arrays over ``alphas x betas``, a tile at a time: per chunk
    of alphas the lattice terms; at ``epsilon > 0``, per tile of alphas of one window width and
    group of betas the mixed blocks' windows (:func:`_window_stats`; no m x m array unless the
    width is m) and, in tiles of its own, one stacked query of all the betas' spectrum tables."""
    m = ProtocolParams(m, alphas[0], betas[0], epsilon).m  # validates m and epsilon
    alphas, betas = _check_widths(alphas), _check_widths(betas, m)  # the whole axes
    _check_positive(("accuracy", accuracy))
    shape = (len(alphas), len(betas))
    ab, ae, qs, info_pc = np.empty(shape), np.zeros(shape), np.empty(shape), np.empty(len(alphas))

    def tile(n_alphas: int, per_pair: int) -> tuple[int, int]:  # (alphas, betas) per tile
        step = min(n_alphas, max(1, _CHUNK_ENTRIES // per_pair))
        return step, max(1, _CHUNK_ENTRIES // per_pair // step)

    cdf = channel._correct_lattice(m, alphas)
    step = tile(len(alphas), 4 * m)[0]
    for lo in range(0, len(alphas), step):
        rows = slice(lo, lo + step)
        info_pc[rows], qser_pc = _lattice_stats(cdf[rows], -0.5, 0.5, accuracy)
        ab[rows], qs[rows] = info_pc[rows, None], qser_pc[:, None]
    if epsilon:
        widths, pw = channel._window_widths(cdf), channel._wrong_columns(m, betas)
    for width in sorted(set(widths.tolist())) if epsilon else ():
        family = np.flatnonzero(widths == width)  # one width, so one sum order per pair
        step, group = tile(len(family), m * min(width + 1, m))
        for rows in (family[lo:lo + step] for lo in range(0, len(family), step)):
            windows = channel._correct_windows(cdf[rows], width)
            for j in range(0, len(betas), group):
                ab[rows, j:j + group], qs[rows, j:j + group] = _window_stats(
                    *windows, pw[j:j + group], epsilon)
    tables = pulse_math.summed_spectra(m, betas, accuracy) if epsilon else []
    step, group = tile(len(alphas), 8 * m)
    for lo in range(0, len(alphas), step) if tables else ():
        rows = slice(lo, lo + step)
        for j in range(0, len(betas), group):
            second = channel._second_lattice(m, alphas[rows], tables[j:j + group])
            info_second = _lattice_stats(second, 0.0, 1.0, accuracy)[0].T
            ae[rows, j:j + group] = epsilon * 0.5 * (info_pc[rows, None] + info_second)
    return np.maximum(ab - ae, 0.0), ab, ae, qs


def capacity(params: ProtocolParams, accuracy: float = DEFAULT_ACCURACY) -> CapacityReport:
    """Secret bits per photon, clamped at zero, with the full balance."""
    grid = _capacity_grid(params.m, params.epsilon, [params.alpha], [params.beta], accuracy)
    cap, ab, ae, qs = (float(a[0, 0]) for a in grid)
    return CapacityReport(i_ab=ab, i_ae=ae, capacity=cap, qser=qs)


def key_rate(sifted_rate: float, capacity_bits: float) -> float:
    """Secret key rate in bits/second from the sifted symbol rate."""
    if not 0.0 <= sifted_rate < np.inf:
        raise DomainError(f"sifted rate must be finite and >= 0, got {sifted_rate}")
    return sifted_rate * capacity_bits
