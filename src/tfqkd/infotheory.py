"""Mutual information, secret capacity, symbol error rate, and key rate.

All information quantities are in bits (base-2 logs) and use the convention
``0 * log(0/q) == 0``.  Matrix entries below 1e-300 are treated as exact
zeros so that structurally-zero blocks cannot produce spurious infinities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from .channel import ProtocolParams
from .errors import DomainError
from .pulse_math import DEFAULT_ACCURACY

_ZERO_CLAMP = 1e-300

__all__ = [
    "CapacityReport",
    "marginal",
    "mutual_info_single",
    "mutual_info_dual",
    "i_ab",
    "i_ae",
    "capacity",
    "qser",
    "key_rate",
]


@dataclass(frozen=True)
class CapacityReport:
    """Information balance of one operating point, in bits per photon."""

    i_ab: float
    i_ae: float
    capacity: float
    qser: float


def marginal(matrix: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Receiver distribution ``matrix @ prior`` for a column-stochastic matrix."""
    matrix = np.asarray(matrix, dtype=float)
    prior = np.asarray(prior, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != prior.shape[0]:
        raise DomainError(
            f"dimension mismatch: matrix {matrix.shape} vs prior {prior.shape}"
        )
    return matrix @ prior


def _mutual_info(matrix: np.ndarray, prior: np.ndarray, received: np.ndarray):
    """Mutual information (bits) of each channel of a (..., r, s) stack."""
    joint = matrix * prior
    mask = joint > _ZERO_CLAMP
    # marginals are positive wherever some joint entry in the row is; the
    # other entries keep log2(1) = 0
    terms = np.divide(matrix, received[..., None], out=np.ones_like(joint), where=mask)
    np.log2(terms, out=terms)
    np.multiply(terms, joint, out=terms, where=mask)
    return terms.sum(axis=(-2, -1))


def mutual_info_single(matrix: np.ndarray, prior: np.ndarray) -> float:
    """Mutual information (bits) between sender and receiver of one channel.

    ``matrix[r, s]`` is P(receive r | sent s); ``prior[s]`` the sender's
    distribution.
    """
    matrix = np.asarray(matrix, dtype=float)
    return float(_mutual_info(matrix, prior, marginal(matrix, prior)))


def mutual_info_dual(matrix: np.ndarray, prior: np.ndarray | None = None) -> float:
    """Mutual information of the two-basis alphabet, minus the one bit that
    only identifies the basis.

    For the block-diagonal matrices produced by :mod:`tfqkd.channel` with a
    uniform prior this equals the mean of the two blocks' single-basis
    mutual informations.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if n % 2:
        raise DomainError(f"dual-basis matrix must have even size, got {n}")
    if prior is None:
        prior = np.full(n, 1.0 / n)
    return mutual_info_single(matrix, prior) - 1.0


# Sifting makes every dual-basis matrix block-diagonal, so with a uniform
# prior its mutual_info_dual is the mean of its two m x m blocks' values, and
# the receiver's QSER comes from the one block both bases share.

def _block_stats(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Information and QSER of each block of a (k, m, m) stack."""
    m = blocks.shape[-1]
    prior = np.full(m, 1.0 / m)
    return _mutual_info(blocks, prior, blocks @ prior), 1.0 - np.trace(blocks, axis1=-2, axis2=-1) / m


# A chunk of alphas stacks at most this many matrix entries, so memory stays
# flat however large m is (one alpha per chunk from m = 128 on).
_CHUNK_ENTRIES = 1 << 14


def _capacity_grid(m, epsilon, alphas, betas, accuracy: float):
    """``(capacity, i_ab, i_ae, qser)`` arrays over ``alphas x betas``, one
    beta column of a chunk of alphas at a time: one wrong-basis column, one
    spectrum query and one stacked information pass per column, the
    alpha-only blocks once per chunk.  At ``epsilon == 0`` beta plays no part."""
    m = ProtocolParams(m, alphas[0], betas[0], epsilon).m  # validates m and epsilon
    shape = (len(alphas), len(betas))
    ab, ae, qs = np.empty(shape), np.zeros(shape), np.empty(shape)
    step = max(1, _CHUNK_ENTRIES // (m * m))
    for lo in range(0, len(alphas), step):
        rows, chunk = slice(lo, lo + step), alphas[lo:lo + step]
        pc = channel._correct_stack(m, chunk)
        info_pc, qser_pc = _block_stats(pc)
        if epsilon == 0.0:
            ab[rows], qs[rows] = info_pc[:, None], qser_pc[:, None]
            continue
        pc2 = pc @ pc
        for j, beta in enumerate(betas):
            # no per-column stack outlives its statement, which bounds peak memory
            pw = channel.p_wrong(ProtocolParams(m, alphas[0], beta))
            ab[rows, j], qs[rows, j] = _block_stats(channel._mixed_block(pc, pc2, pw, epsilon))
            info_second = _block_stats(channel._second_correct_stack(m, chunk, beta, accuracy))[0]
            ae[rows, j] = epsilon * 0.5 * (info_pc + info_second)
    return np.maximum(ab - ae, 0.0), ab, ae, qs


def i_ab(params: ProtocolParams) -> float:
    """Sender-receiver information over the attack-averaged channel."""
    return capacity(params).i_ab


def i_ae(params: ProtocolParams, accuracy: float = DEFAULT_ACCURACY) -> float:
    """Sender-eavesdropper information; scales linearly with the intercepted
    fraction and is exactly zero when nothing is intercepted."""
    return capacity(params, accuracy).i_ae


def qser(params: ProtocolParams) -> float:
    """Symbol error rate of the sifted key: one minus the mean diagonal of
    the attack-averaged receiver matrix."""
    return capacity(params).qser


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
