"""Independent verification paths for the analytic channel model.

Two oracles that deliberately avoid the closed forms used elsewhere:

* a photon-by-photon Monte Carlo of sender, interceptor, and receiver whose
  empirical matrix must agree statistically with the analytic one, and
* a dense discrete-Fourier tabulation of the truncated-pulse spectra whose
  bin masses must agree numerically with the panel-quadrature spectra.  It
  answers arrays of bins, integrating each distinct bin once by composite
  Simpson on its own sub-grid, all sub-grids in one transform.

The interceptor's second-stage frequency statistics are not sampled here
(their 1/w**2 spectral tails make naive sampling unreliable); they are
covered by the DFT oracle instead, while the Monte Carlo covers every
receiver-facing probability including attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .channel import ProtocolParams, make_layout
from .errors import DomainError, NumericFailure

__all__ = [
    "McConfig",
    "EmpiricalMatrix",
    "run_mc",
    "ComparisonVerdict",
    "compare_empirical",
    "DftSpectrum",
    "dft_spectrum_oracle",
]

_CHUNK = 1 << 20  # fixed chunking keeps the random stream layout reproducible
_SQRTPI = np.sqrt(np.pi)


@dataclass(frozen=True)
class McConfig:
    photons: int
    seed: int
    params: ProtocolParams

    def __post_init__(self):
        if self.photons < 1:
            raise DomainError(f"photons must be >= 1, got {self.photons}")


@dataclass(frozen=True, eq=False)
class EmpiricalMatrix:
    """Sifted counts: row = received symbol, column = sent symbol."""

    counts: np.ndarray
    column_totals: np.ndarray

    def probabilities(self) -> np.ndarray:
        totals = np.where(self.column_totals > 0, self.column_totals, 1)
        return self.counts / totals[None, :]


def run_mc(config: McConfig) -> EmpiricalMatrix:
    """Sample the generative model the conditional matrices integrate.

    Per photon: the sender draws basis and symbol uniformly; with
    probability ``epsilon`` the interceptor measures in a uniformly chosen
    basis, bins her Gaussian sample, and resends that symbol as a fresh
    symbol pulse in her basis; the receiver measures in the sender's basis
    (sifting keeps every record).  Deterministic for a fixed seed: all
    draws happen in a fixed order over fixed-size chunks.
    """
    p = config.params
    m = p.m
    layout = make_layout(m)
    interior = np.asarray(layout.upper[:-1])
    centers = np.asarray(layout.centers)
    # A width-sigma energy density is a normal with std sigma/sqrt(2), so
    # measured positions are sampled with that std.
    std_sym = p.symbol_sigma / np.sqrt(2.0)
    std_con = p.conjugate_sigma / np.sqrt(2.0)

    rng = np.random.default_rng(config.seed)
    counts = np.zeros((2 * m, 2 * m), dtype=np.int64)

    remaining = int(config.photons)
    while remaining > 0:
        n = min(remaining, _CHUNK)
        remaining -= n

        basis_a = rng.integers(0, 2, n)
        sym_a = rng.integers(0, m, n)
        u_attack = rng.random(n)
        basis_e = rng.integers(0, 2, n)
        z_eve = rng.standard_normal(n)
        z_bob = rng.standard_normal(n)

        attacked = u_attack < p.epsilon
        eve_matched = basis_e == basis_a

        # interceptor's measured position: symbol pulse when bases match,
        # the centered conjugate pulse otherwise
        val_e = np.where(eve_matched, centers[sym_a] + z_eve * std_sym, z_eve * std_con)
        sym_e = np.searchsorted(interior, val_e, side="right")

        val_b = np.where(
            attacked,
            np.where(
                eve_matched,
                centers[sym_e] + z_bob * std_sym,  # resent symbol, same basis
                z_bob * std_con,  # resent pulse seen in its conjugate basis
            ),
            centers[sym_a] + z_bob * std_sym,
        )
        sym_b = np.searchsorted(interior, val_b, side="right")

        rows = basis_a * m + sym_b
        cols = basis_a * m + sym_a
        flat = np.bincount(rows * (2 * m) + cols, minlength=4 * m * m)
        counts += flat.reshape(2 * m, 2 * m)

    totals = counts.sum(axis=0)
    counts.setflags(write=False)
    totals.setflags(write=False)
    return EmpiricalMatrix(counts=counts, column_totals=totals)


# ---------------------------------------------------------------------------
# Statistical comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ComparisonVerdict:
    passed: bool
    max_abs_z: float
    z_scores: np.ndarray
    chi2_pvalues: np.ndarray
    notes: tuple


def compare_empirical(
    emp: EmpiricalMatrix,
    analytic: np.ndarray,
    z_max: float = 4.0,
    p_min: float = 1e-3,
) -> ComparisonVerdict:
    """Per-entry binomial z-scores plus a per-column chi-square test.

    Cells with expected count below 5 are pooled before the chi-square;
    columns with no counts are flagged rather than tested.
    """
    analytic = np.asarray(analytic, dtype=float)
    if analytic.shape != emp.counts.shape:
        raise DomainError(
            f"shape mismatch: empirical {emp.counts.shape} vs analytic {analytic.shape}"
        )
    n_cols = analytic.shape[1]
    notes = []

    totals = emp.column_totals.astype(float)
    phat = emp.probabilities()
    z = np.zeros_like(analytic)
    interior_p = (analytic > 0.0) & (analytic < 1.0) & (totals[None, :] > 0)
    se = np.sqrt(np.where(interior_p, analytic * (1.0 - analytic), 1.0) / np.maximum(totals[None, :], 1.0))
    z[interior_p] = ((phat - analytic) / se)[interior_p]
    # structurally impossible events must never be observed
    impossible = (analytic == 0.0) & (emp.counts > 0)
    if impossible.any():
        z[impossible] = np.inf
        notes.append(f"{int(impossible.sum())} counts observed in zero-probability cells")
    certain = (analytic == 1.0) & (emp.counts < totals[None, :])
    if certain.any():
        z[certain] = -np.inf

    pvalues = np.full(n_cols, np.nan)
    low_power = 0
    for c in range(n_cols):
        n = totals[c]
        if n == 0:
            notes.append(f"column {c}: zero counts")
            continue
        expected = analytic[:, c] * n
        observed = emp.counts[:, c].astype(float)
        keep = expected >= 5.0
        exp_cells = list(expected[keep])
        obs_cells = list(observed[keep])
        if not keep.all():
            exp_cells.append(expected[~keep].sum())
            obs_cells.append(observed[~keep].sum())
        if len(exp_cells) < 2:
            low_power += 1
            continue
        exp_arr = np.asarray(exp_cells)
        obs_arr = np.asarray(obs_cells)
        if exp_arr[-1] < 1.0:  # merge a starving pooled cell into its neighbor
            exp_arr[-2] += exp_arr[-1]
            obs_arr[-2] += obs_arr[-1]
            exp_arr, obs_arr = exp_arr[:-1], obs_arr[:-1]
        dof = exp_arr.size - 1
        if dof < 1:
            low_power += 1
            continue
        stat = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
        pvalues[c] = chdtrc(dof, stat)  # chi-square survival function

    if low_power:
        notes.append(f"{low_power} columns too thin for a chi-square (low power)")

    max_abs_z = float(np.abs(z).max()) if z.size else 0.0
    tested = pvalues[np.isfinite(pvalues)]
    passed = bool(max_abs_z <= z_max and (tested.size == 0 or tested.min() >= p_min))
    z.setflags(write=False)
    pvalues.setflags(write=False)
    return ComparisonVerdict(
        passed=passed,
        max_abs_z=max_abs_z,
        z_scores=z,
        chi2_pvalues=pvalues,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Dense-DFT spectrum oracle
# ---------------------------------------------------------------------------

_X_SUPPORT = 8.75  # |phi(x)| < 1e-17 beyond this; truncation loss is negligible


def _simpson(lo: np.ndarray, hi: np.ndarray, step: float, min_panels: int):
    """Composite Simpson rules on the intervals ``[lo[k], hi[k]]``, each with
    an even number (at least ``min_panels``) of panels no wider than ``step``.
    Returns the nodes (per interval as ``np.linspace``), their weights and
    the panel counts."""
    n = np.maximum(np.ceil((hi - lo) / step), min_panels).astype(np.int64)
    n += n % 2
    k = np.repeat(np.arange(n.size), n + 1)
    j = np.arange(k.size) - np.repeat(np.cumsum(n + 1) - (n + 1), n + 1)
    h = ((hi - lo) / n)[k]
    last = j == n[k]
    nodes = np.where(last, hi[k], j * h + lo[k])
    coef = np.where((j == 0) | last, 1.0, np.where(j % 2, 4.0, 2.0))
    return nodes, coef * h / 3.0, n


@dataclass(frozen=True, eq=False)
class DftSpectrum:
    """Direct-summation tabulation of one truncated-pulse spectrum.

    ``total_mass`` comes from the discrete Parseval identity on the x-grid,
    a numerical route independent of any closed form.  ``bin_mass`` takes
    arrays of bins and integrates each distinct finite bin once, by
    composite Simpson on its own aligned sub-grid; bins with an unbounded
    side use the remainder against ``total_mass`` and inherit
    ``w_tail_estimate`` as extra uncertainty.
    """

    filter_index: int
    m: int
    beta: float
    grid_step: float
    grid_span: float
    x_grid: np.ndarray
    x_weights: np.ndarray
    total_mass: float
    w_tail_estimate: float

    def _transform(self, w_points: np.ndarray) -> np.ndarray:
        phi_w = np.exp(-0.5 * self.x_grid**2) / np.sqrt(2.0 * np.pi) * self.x_weights
        out = np.empty(w_points.size, dtype=complex)
        for start in range(0, w_points.size, 256):
            chunk = w_points[start:start + 256]
            out[start:start + 256] = np.exp(-1j * np.outer(chunk, self.x_grid)) @ phi_w
        return out

    def density(self, w) -> np.ndarray:
        w = np.atleast_1d(np.asarray(w, dtype=float))
        f = self._transform(w)
        return (f.real**2 + f.imag**2) / _SQRTPI

    def bin_mass(self, w_lo, w_hi):
        """Spectral mass on each ``[w_lo, w_hi]`` (arrays broadcast; a float
        for scalar bounds)."""
        lo, hi = np.broadcast_arrays(np.asarray(w_lo, dtype=float), np.asarray(w_hi, dtype=float))
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise DomainError("bin bound is NaN")
        if (lo > hi).any():
            k = np.argmax(lo > hi)
            raise DomainError(f"empty interval: {lo.flat[k]} > {hi.flat[k]}")
        bins, inverse = np.unique(np.stack([lo.ravel(), hi.ravel()], axis=1), axis=0,
                                  return_inverse=True)
        a, b = bins.T
        both = np.isneginf(a) & np.isposinf(b)
        mass = np.where(both, self.total_mass, 0.0)
        todo = (a < b) & ~both
        a, b = a[todo], b[todo]
        lo_inf, hi_inf = np.isneginf(a), np.isposinf(b)
        # an unbounded side is the remainder against the Parseval total; the
        # per-side tail estimate beyond the span is the accuracy floor there
        start = np.where(lo_inf | hi_inf, -self.grid_span, a)
        stop = np.where(hi_inf, a, b)
        outside = np.maximum(np.abs(start), np.abs(stop)) > self.grid_span
        if outside.any():
            k = np.argmax(outside)
            raise DomainError(
                f"bin [{start[k]}, {stop[k]}] outside tabulated span {self.grid_span}; "
                "increase grid_span"
            )
        nodes, weights, n = _simpson(start, stop, self.grid_step, 2)
        values = self.density(nodes)
        # one dot product per bin sums each bin as if it were queried alone
        part = np.array([values[e - k - 1:e] @ weights[e - k - 1:e]
                         for k, e in zip(n, np.cumsum(n + 1))], dtype=float)
        part = np.where(lo_inf | hi_inf, part + self.w_tail_estimate, part)
        mass[todo] = np.where(hi_inf, self.total_mass - part, part)
        out = mass[inverse.ravel()].reshape(lo.shape)
        return out if out.ndim else float(out)


def dft_spectrum_oracle(
    f: int,
    m: int,
    beta: float,
    grid_step: float = 0.005,
    grid_span: float = 16.0,
    tail_tol: float | None = None,
) -> DftSpectrum:
    """Tabulate the spectrum of the filter-``f`` truncated pulse by direct
    summation of the transform on a dense grid.

    ``grid_step`` is the step of the w sub-grids; the x-grid step is at most
    ``min(grid_step, 0.3 / grid_span)``.  Raises a refusal when the estimated
    spectral mass beyond ``grid_span`` exceeds ``tail_tol`` (so outer-bin
    remainders would be untrustworthy at that tolerance).
    """
    layout = make_layout(m)
    if f not in range(1, layout.m + 1):
        raise DomainError(f"filter index {f} outside 1..{m}")
    if not 0.0 < beta < np.inf:
        raise DomainError(f"beta must be finite and positive, got {beta}")
    if not 0.0 < grid_step < np.inf:
        raise DomainError(f"grid_step must be finite and positive, got {grid_step}")
    if not 0.0 < grid_span < np.inf:
        raise DomainError(f"grid_span must be finite and positive, got {grid_span}")
    scale = 0.5 * beta * m
    b_lo, b_up = layout.lower[int(f) - 1], layout.upper[int(f) - 1]
    x_lo = -_X_SUPPORT if np.isneginf(b_lo) else max(b_lo / scale, -_X_SUPPORT)
    x_hi = _X_SUPPORT if np.isposinf(b_up) else min(b_up / scale, _X_SUPPORT)
    if x_lo >= x_hi:
        # filter window entirely outside the pulse support: no grid points,
        # so the spectrum, its total and its tail are exactly 0
        x_grid = x_weights = np.empty(0)
    else:
        # the x-grid must resolve exp(-i w x) out to |w| = grid_span
        x_step = min(grid_step, 0.3 / grid_span)
        x_grid, x_weights, _ = _simpson(np.array([x_lo]), np.array([x_hi]), x_step, 8)

    phi_sq = np.exp(-x_grid**2) / (2.0 * np.pi)
    total_mass = float(2.0 * np.pi / _SQRTPI * (phi_sq @ x_weights))

    phi_lo = np.exp(-0.5 * x_lo**2) / np.sqrt(2.0 * np.pi)
    phi_hi = np.exp(-0.5 * x_hi**2) / np.sqrt(2.0 * np.pi)
    w_tail = float((phi_lo**2 + phi_hi**2) / (_SQRTPI * grid_span)) if x_grid.size else 0.0

    if tail_tol is not None and w_tail > tail_tol:
        raise NumericFailure(
            f"spectral mass ~{w_tail:.3e} beyond span {grid_span} exceeds {tail_tol:.1e}; "
            "increase grid_span",
            achieved=w_tail,
            target=tail_tol,
        )

    x_grid.setflags(write=False)
    x_weights.setflags(write=False)
    return DftSpectrum(
        filter_index=f,
        m=layout.m,
        beta=beta,
        grid_step=grid_step,
        grid_span=grid_span,
        x_grid=x_grid,
        x_weights=x_weights,
        total_mass=total_mass,
        w_tail_estimate=w_tail,
    )
