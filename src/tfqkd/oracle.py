"""Independent verification paths for the analytic channel model.

Two oracles that deliberately avoid the closed forms used elsewhere:

* a photon-by-photon Monte Carlo of sender, interceptor, and receiver whose
  empirical matrix must agree statistically with the analytic one, and
* a dense discrete-Fourier tabulation of the truncated-pulse spectra whose
  bin masses must agree numerically with the panel-quadrature spectra.

The interceptor's second-stage frequency statistics are not sampled here
(their 1/w**2 spectral tails make naive sampling unreliable); they are
covered by the DFT oracle instead, while the Monte Carlo covers every
receiver-facing probability including attacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def _composite_weights(n_points: int, step: float, rule: str) -> np.ndarray:
    if rule == "trapezoid":
        w = np.full(n_points, step)
        w[0] = w[-1] = 0.5 * step
        return w
    if rule == "simpson":
        if n_points % 2 == 0:
            raise DomainError("simpson rule needs an odd number of points")
        w = np.full(n_points, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * step / 3.0
    raise DomainError(f"unknown rule {rule!r}")


@dataclass(frozen=True, eq=False)
class DftSpectrum:
    """Direct-summation tabulation of one truncated-pulse spectrum.

    ``total_mass`` comes from the discrete Parseval identity on the x-grid,
    a numerical route independent of any closed form.  Finite bins are
    integrated on their own aligned sub-grids; bins with an unbounded side
    use the remainder against ``total_mass`` and inherit ``w_tail_estimate``
    as extra uncertainty.
    """

    filter_index: int
    m: int
    beta: float
    grid_step: float
    grid_span: float
    rule: str
    x_grid: np.ndarray
    x_weights: np.ndarray
    total_mass: float
    w_tail_estimate: float
    error_order: str

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

    @cached_property
    def w_grid(self) -> np.ndarray:
        n = int(np.ceil(2.0 * self.grid_span / self.grid_step))
        if n % 2:
            n += 1
        return np.linspace(-self.grid_span, self.grid_span, n + 1)

    @cached_property
    def g_values(self) -> np.ndarray:
        return self.density(self.w_grid)

    def bin_mass(self, w_lo: float, w_hi: float) -> float:
        if w_lo > w_hi:
            raise DomainError(f"empty interval: {w_lo} > {w_hi}")
        if w_lo == w_hi:
            return 0.0
        lo_inf = np.isneginf(w_lo)
        hi_inf = np.isposinf(w_hi)
        if lo_inf and hi_inf:
            return self.total_mass
        if hi_inf:
            return self.total_mass - self.bin_mass(-np.inf, w_lo)
        if lo_inf:
            # remainder against the Parseval total; the per-side tail estimate
            # beyond the span is the accuracy floor of unbounded bins
            return self._finite_mass(-self.grid_span, w_hi) + self.w_tail_estimate
        return self._finite_mass(w_lo, w_hi)

    def _finite_mass(self, w_lo: float, w_hi: float) -> float:
        if abs(w_lo) > self.grid_span or abs(w_hi) > self.grid_span:
            raise DomainError(
                f"bin [{w_lo}, {w_hi}] outside tabulated span {self.grid_span}; "
                "increase grid_span"
            )
        n = max(int(np.ceil((w_hi - w_lo) / self.grid_step)), 2)
        if self.rule == "simpson" and n % 2:
            n += 1
        pts = np.linspace(w_lo, w_hi, n + 1)
        weights = _composite_weights(n + 1, (w_hi - w_lo) / n, self.rule)
        return float(self.density(pts) @ weights)


def dft_spectrum_oracle(
    f: int,
    m: int,
    beta: float,
    grid_step: float = 0.005,
    grid_span: float = 16.0,
    rule: str = "simpson",
    tail_tol: float | None = None,
) -> DftSpectrum:
    """Tabulate the spectrum of the filter-``f`` truncated pulse by direct
    summation of the transform on a dense grid.

    ``grid_step`` is the step of the w sub-grids; the x-grid step is at most
    ``min(grid_step, 0.3 / grid_span)``.  Raises a refusal when the estimated
    spectral mass beyond ``grid_span`` exceeds ``tail_tol`` (so outer-bin
    remainders would be untrustworthy at that tolerance).
    """
    if grid_step <= 0.0:
        raise DomainError(f"grid_step must be positive, got {grid_step}")
    if grid_span <= 0.0:
        raise DomainError(f"grid_span must be positive, got {grid_span}")
    layout = make_layout(m)
    scale = 0.5 * beta * m
    b_lo, b_up = layout.lower[f - 1], layout.upper[f - 1]
    x_lo = -_X_SUPPORT if np.isneginf(b_lo) else max(b_lo / scale, -_X_SUPPORT)
    x_hi = _X_SUPPORT if np.isposinf(b_up) else min(b_up / scale, _X_SUPPORT)
    if x_lo >= x_hi:
        # filter window entirely outside the pulse support: no grid points,
        # so the spectrum, its total and its tail are exactly 0
        x_grid = x_weights = np.empty(0)
    else:
        # the x-grid must resolve exp(-i w x) out to |w| = grid_span
        x_step = min(grid_step, 0.3 / grid_span)
        n = max(int(np.ceil((x_hi - x_lo) / x_step)), 8)
        if rule == "simpson" and n % 2:
            n += 1
        x_grid = np.linspace(x_lo, x_hi, n + 1)
        x_weights = _composite_weights(n + 1, (x_hi - x_lo) / n, rule)

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
        m=m,
        beta=beta,
        grid_step=grid_step,
        grid_span=grid_span,
        rule=rule,
        x_grid=x_grid,
        x_weights=x_weights,
        total_mass=total_mass,
        w_tail_estimate=w_tail,
        error_order="O(h^4)" if rule == "simpson" else "O(h^2)",
    )
