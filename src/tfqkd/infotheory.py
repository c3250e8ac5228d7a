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


def mutual_info_single(matrix: np.ndarray, prior: np.ndarray) -> float:
    """Mutual information (bits) between sender and receiver of one channel.

    ``matrix[r, s]`` is P(receive r | sent s); ``prior[s]`` the sender's
    distribution.
    """
    matrix = np.asarray(matrix, dtype=float)
    received = marginal(matrix, prior)
    joint = matrix * np.asarray(prior, dtype=float)[None, :]
    mask = joint > _ZERO_CLAMP
    # marginals are positive wherever some joint entry in the row is
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask, matrix / received[:, None], 1.0)
        terms = np.where(mask, joint * np.log2(ratio), 0.0)
    return float(terms.sum())


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

def _block_info(block: np.ndarray) -> float:
    m = block.shape[0]
    return mutual_info_single(block, np.full(m, 1.0 / m))


def _qser(block: np.ndarray) -> float:
    return float(1.0 - np.trace(block) / block.shape[0])


def _capacity_grid(m, epsilon, alphas, betas, accuracy: float):
    """``(capacity, i_ab, i_ae, qser)`` arrays over ``alphas x betas``; the
    alpha-only terms are computed once per row, and at ``epsilon == 0``
    beta plays no part."""
    shape = (len(alphas), len(betas))
    ab, ae, qs = np.empty(shape), np.zeros(shape), np.empty(shape)
    for i, alpha in enumerate(alphas):
        pc = channel.p_correct(ProtocolParams(m, alpha, betas[0], epsilon))
        info_pc = _block_info(pc)
        if epsilon == 0.0:
            ab[i], qs[i] = info_pc, _qser(pc)
            continue
        for j, beta in enumerate(betas):
            params = ProtocolParams(m, alpha, beta, epsilon)
            mixed = channel._mixed_block(params, pc)
            ab[i, j], qs[i, j] = _block_info(mixed), _qser(mixed)
            second = channel.p_second_correct(params, accuracy)
            ae[i, j] = epsilon * 0.5 * (info_pc + _block_info(second))
    return np.maximum(ab - ae, 0.0), ab, ae, qs


def i_ab(params: ProtocolParams) -> float:
    """Sender-receiver information over the attack-averaged channel."""
    return _block_info(channel._mixed_block(params, channel.p_correct(params)))


def i_ae(params: ProtocolParams, accuracy: float = DEFAULT_ACCURACY) -> float:
    """Sender-eavesdropper information; scales linearly with the intercepted
    fraction and is exactly zero when nothing is intercepted."""
    return capacity(params, accuracy).i_ae


def qser(params: ProtocolParams) -> float:
    """Symbol error rate of the sifted key: one minus the mean diagonal of
    the attack-averaged receiver matrix."""
    return _qser(channel._mixed_block(params, channel.p_correct(params)))


def capacity(params: ProtocolParams, accuracy: float = DEFAULT_ACCURACY) -> CapacityReport:
    """Secret bits per photon, clamped at zero, with the full balance."""
    grid = _capacity_grid(params.m, params.epsilon, [params.alpha], [params.beta], accuracy)
    cap, ab, ae, qs = (float(a[0, 0]) for a in grid)
    return CapacityReport(i_ab=ab, i_ae=ae, capacity=cap, qser=qs)


def key_rate(sifted_rate: float, capacity_bits: float) -> float:
    """Secret key rate in bits/second from the sifted symbol rate."""
    if sifted_rate < 0.0:
        raise DomainError(f"sifted rate must be >= 0, got {sifted_rate}")
    return sifted_rate * capacity_bits
