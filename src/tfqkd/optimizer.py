"""Capacity surfaces, the pulse-overlap functional, and width optimization.

The optimization is two-staged by default: the symbol width is chosen to
maximize the secret capacity (whose dependence on the conjugate width is
weak near the optimum), then the conjugate width is chosen to minimize the
overlap deviation between the symbol-pulse comb and the conjugate pulse,
which hardens the protocol against basis-discrimination strategies the
capacity model does not see.  A nested scheme that keeps the
capacity-maximizing conjugate width instead is available for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import erf

from .channel import ProtocolParams, make_layout
from .errors import DomainError, NumericFailure, _check_count, _check_positive, _check_widths
from .infotheory import CapacityReport, _capacity_grid, capacity
from .pulse_math import DEFAULT_ACCURACY

__all__ = [
    "OptimizerConfig",
    "SurfaceGrid",
    "OptimizationResult",
    "SweepEntry",
    "c_surface",
    "u_functional",
    "minimize_beta",
    "optimize_point",
    "sweep",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of both optimization stages, read by :func:`optimize_point`
    and :func:`minimize_beta` alike.

    ``alpha_box`` (stage 1) is the alpha range, inside [1e-12, 1e12];
    ``beta_box`` (both stages) the beta range of the capacity rows and of
    the overlap scan, its ``beta*m`` checked against the same interval once
    m is known;
    ``coarse_step`` and ``tol`` (both stages) the grid step of every axis and
    the bracket width at which golden-section refinement stops; ``accuracy``
    (stage 1, the nested stage 2 and the final report) the spectrum
    tolerance of every capacity evaluation; ``u_variant`` (stage 2) the
    overlap functional the staged scheme minimizes and both report as
    ``u_min``; ``scheme`` (stage 2) picks beta by overlap (``staged``) or by
    capacity (``nested``).
    """

    alpha_box: tuple[float, float] = (0.05, 1.5)
    beta_box: tuple[float, float] = (0.05, 1.5)
    coarse_step: float = 0.05
    tol: float = 1e-3
    accuracy: float = DEFAULT_ACCURACY
    u_variant: str = "per-term"
    scheme: str = "staged"

    def __post_init__(self):
        if self.scheme not in ("staged", "nested"):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.u_variant not in ("per-term", "whole-sum"):
            raise DomainError(f"unknown u variant {self.u_variant!r}")
        _check_positive(("tol", self.tol), ("coarse_step", self.coarse_step), ("accuracy", self.accuracy))
        for name in ("alpha_box", "beta_box"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo < hi < math.inf:
                raise DomainError(f"{name} must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")
        _check_widths(self.alpha_box)


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Capacity (and companions) sampled on an (alpha, beta) grid."""

    alpha_axis: np.ndarray
    beta_axis: np.ndarray
    capacity: np.ndarray
    i_ab: np.ndarray
    i_ae: np.ndarray
    qser: np.ndarray


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal widths for one (m, epsilon) pair and the capacity report there.

    ``c_opt`` is the capacity at ``(alpha_opt, beta_opt)``.  It equals
    ``stage1_capacity`` in the nested scheme and may sit below it in the
    staged one, whose beta is chosen for overlap, not capacity.
    """

    m: int
    epsilon: float
    alpha_opt: float
    beta_opt: float
    c_opt: float
    u_min: float
    report: CapacityReport
    scheme: str
    u_variant: str
    stage1_capacity: float


@dataclass(frozen=True)
class SweepEntry:
    m: int
    epsilon: float
    status: str
    result: OptimizationResult | None = None
    error: str | None = None


# ---------------------------------------------------------------------------
# Capacity surface
# ---------------------------------------------------------------------------

def _check_axis(name: str, axis: np.ndarray):
    if axis.size == 0 or not np.all(np.diff(axis) > 0.0):  # NaN is not ordered
        raise DomainError(f"{name} must be non-empty and strictly increasing")


def c_surface(m, epsilon, alpha_axis, beta_axis, accuracy: float = DEFAULT_ACCURACY) -> SurfaceGrid:
    """Evaluate the capacity report on the outer product of the two axes."""
    alpha_axis = np.asarray(alpha_axis, dtype=float)
    beta_axis = np.asarray(beta_axis, dtype=float)
    _check_axis("alpha axis", alpha_axis)
    _check_axis("beta axis", beta_axis)
    grid = _capacity_grid(m, epsilon, alpha_axis, beta_axis, accuracy)
    return SurfaceGrid(alpha_axis, beta_axis, *grid)


# ---------------------------------------------------------------------------
# Overlap functional
# ---------------------------------------------------------------------------

def _term_overlaps(centers: np.ndarray, w_sym: float, w_con: np.ndarray) -> np.ndarray:
    """Per-term U at each conjugate width of ``w_con``.  Both densities have unit mass, so a term is twice the
    mass difference between its crossings: ``|(erf(d2) - erf(d1)) - (erf(e2) - erf(e1))|``, unsorted, ``erf`` +-1
    at a crossing at infinity.  With ``u = c/w_con``, ``r = w_sym/w_con`` and ``s = 1 + r``, the offsets
    ``d = (t - c)/w_sym`` from a center ``c`` (``e = u + r d`` in conjugate widths) are the roots ``q/A``, ``C/q``
    of ``A d**2 + 2B d + C``: ``A = 1 - r``, ``B = -u r/s``, ``C = (log r - u**2)/s``,
    ``q = -(B + sign(B) sqrt((u/s)**2 - (A/s) log r))``, the discriminant's terms never negative and ``A`` 0
    just where ``log r`` is (``q/A`` is then a crossing at infinity)."""
    u, r = centers / w_con[:, None], (w_sym / w_con)[:, None]
    a, s, log_r = 1.0 - r, 1.0 + r, np.log(r)
    half_b, const = -u * (r / s), (log_r - u * u) / s
    q = -(half_b + np.copysign(np.sqrt((u / s) ** 2 - a / s * log_r), half_b))
    q[(q == 0.0) & (const == 0.0)] = 1.0  # coinciding densities (c = 0, equal widths): cuts 0 and +inf
    with np.errstate(divide="ignore"):  # equal widths: q / 0 is the crossing at infinity
        d = np.stack([q / a, const / q])
    p = erf(np.stack([d, u + r * d]))
    return np.abs((p[0, 1] - p[0, 0]) - (p[1, 1] - p[1, 0])).sum(axis=-1)


def _piecewise_l1(sym: np.ndarray, con: np.ndarray) -> float:
    """Whole-sum U: sum of |comb mass - n * conjugate mass| over the pieces between sorted cuts,
    given as offsets from the ``n`` symbol centers in symbol widths (``sym``, a row per cut) and
    from the conjugate center in conjugate widths (``con``).  The difference keeps one sign per
    piece, so each is an exact difference of cumulative masses: one erf per (cut, center) and per cut."""
    n = sym.shape[-1]
    edge = np.ones((1, n + 1))
    mass = 0.5 * np.diff(np.concatenate([-edge, erf(np.column_stack([sym, con])), edge]), axis=0)
    total = np.abs(mass[:, :n].sum(axis=1) - n * mass[:, n]).sum()
    if not np.isfinite(total):
        raise NumericFailure("overlap functional produced a non-finite value")
    return float(total)


def _whole_sum(m: int, centers: np.ndarray, w_sym: float, w_con: float) -> float:
    """Whole-sum U at one conjugate width, as :func:`u_functional` describes."""
    sqrt_pi, reach = math.sqrt(math.pi), math.sqrt(746.0)
    k = int(min(m, 2 * np.ceil(reach * w_sym) + 1))  # the k nearest centers hold all within reach widths of a point

    def diff(t):
        # comb minus m times the conjugate density at each point of t, the comb summed over the k nearest
        # centers; exp is slow where it underflows to 0 (below about -745.1), so terms below -746 are skipped
        first = np.clip(np.rint(t - centers[0]) - k // 2, 0, m - k).astype(int)
        z = -(((t[:, None] - centers[first[:, None] + np.arange(k)]) / w_sym) ** 2)
        comb = np.exp(z, out=np.zeros_like(z), where=z > -746.0).sum(axis=1)
        return comb / (w_sym * sqrt_pi) - m * np.exp(-((t / w_con) ** 2)) / (w_con * sqrt_pi)

    # every sign change lies within reach widths of a center or, in conjugate widths, of 0, where one density is
    # representable: local grids of 20 points per width there find them all (one grid where symbol windows overlap)
    steps = np.arange(-math.ceil(20.0 * reach), math.ceil(20.0 * reach) + 1)
    if 2.0 * reach * w_sym >= 1.0:
        sym = centers[0] + w_sym / 20.0 * np.arange(steps[0], 20.0 * (m - 1) / w_sym + steps[-1] + 1)
    else:
        sym = np.add.outer(centers, w_sym / 20.0 * steps).ravel()
    grid = np.unique(np.concatenate([sym, centers, w_con / 20.0 * steps]))
    negative = np.signbit(diff(grid))
    flips = np.nonzero(np.diff(negative))[0]

    lo, hi = grid[flips], grid[flips + 1]
    tol = min(1e-10, 1e-8 * min(w_sym, w_con))  # below 1e-8 of a width, where 1e-10 is coarser than that
    for _ in range(math.ceil(math.log2(np.max(hi - lo, initial=tol) / tol))):
        mid = 0.5 * (lo + hi)
        left = np.signbit(diff(mid)) == negative[flips]
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    cuts = 0.5 * (lo + hi)
    return _piecewise_l1(np.subtract.outer(cuts, centers) / w_sym, cuts / w_con)


def _overlap(m: int, alpha: float, variant: str):
    """The ``variant`` overlap functional at ``(m, alpha)`` as a function of an array of betas, one
    value each; ``m``, ``alpha`` and ``variant`` are checked once, each array of betas when passed."""
    m = _check_count("m", m, 2)
    _check_widths(alpha)
    if variant not in ("per-term", "whole-sum"):
        raise DomainError(f"unknown u variant {variant!r}")
    centers = make_layout(m).centers
    w_sym = 0.5 * alpha
    k = max(1, 2 ** 14 // (4 * m))  # betas per per-term call: at most 2**14 erf values keep peak memory flat

    def overlap(betas) -> np.ndarray:
        w_con = 0.5 * _check_widths(betas, m).reshape(-1) * m
        if variant == "whole-sum":
            return np.array([_whole_sum(m, centers, w_sym, w) for w in w_con])
        return np.concatenate([_term_overlaps(centers, w_sym, w_con[i:i + k]) for i in range(0, w_con.size, k)])

    return overlap


def u_functional(m: int, alpha: float, beta: float, variant: str = "per-term") -> float:
    """Overlap deviation between the symbol-pulse comb and the conjugate pulse.

    ``per-term`` (default) sums the L1 distance of each shifted symbol pulse
    to the centered conjugate pulse, each in closed form as ``2 |dP - dQ|``
    between its two crossings; ``whole-sum`` takes the absolute value outside
    the sum and is bounded above by the per-term value, its crossings bisected
    to min(1e-10, 1e-8 of the narrower width) from a scan of 20 points per
    width within sqrt(746) widths of each center and, in conjugate widths, of
    0.  This is the one-beta case of the evaluator that scans rows for
    :func:`minimize_beta`.  Both variants take ``alpha`` and ``beta*m`` in
    [1e-12, 1e12] and raise :class:`DomainError` outside it.
    """
    ProtocolParams(m, alpha, beta)  # validates the inputs
    return float(_overlap(m, alpha, variant)(beta)[0])


# ---------------------------------------------------------------------------
# Grid search refined by golden section (deterministic, ties toward smaller argument)
# ---------------------------------------------------------------------------

def _refine_min(fn, axis: np.ndarray, values: np.ndarray, tol: float):
    """Grid minimum of ``values`` (``fn`` on ``axis``) refined by golden section to
    ``tol``, or float spacing, between its grid neighbours; returns ``(argument,
    value)`` of the least evaluation, preferring the smaller argument on
    exact ties.  The grid point and its neighbours seed the evaluations, so
    a one-point axis never calls ``fn``."""
    evals: dict[float, float] = {}

    def f(x: float, known: float | None = None) -> float:
        if x not in evals:
            v = fn(x) if known is None else known
            if not np.isfinite(v):
                raise NumericFailure(f"non-finite objective value at {x}")
            evals[x] = v
        return evals[x]

    k = int(np.argmin(values))  # first minimum = smallest argument on ties
    i_lo, i_hi = max(k - 1, 0), min(k + 1, axis.size - 1)
    for i in range(i_lo, i_hi + 1):
        f(axis[i], values[i])
    a, b = axis[i_lo], axis[i_hi]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    while (b - a) > tol and a < c < d < b:  # a few ulps wide, the bracket stops shrinking
        if f(c) <= f(d):
            b, d = d, c
            c = b - _INVPHI * (b - a)
        else:
            a, c = c, d
            d = a + _INVPHI * (b - a)
    best = min(evals, key=lambda x: (evals[x], x))
    return float(best), evals[best]


def _axis(box: tuple[float, float], step: float, slack: float = 1e-12) -> np.ndarray:
    """Points ``lo + step * k`` of ``box`` up to ``hi + slack``; :class:`DomainError` if too many."""
    (lo, hi), step = map(float, box), float(step)
    try:
        axis = lo + step * np.arange(math.floor((hi - lo) / step + 0.5) + 1)
    except (OverflowError, ValueError, MemoryError):  # a count that is infinite or can't be allocated
        raise DomainError(f"grid {lo}:{hi} at step {step} has too many points") from None
    return axis[axis <= hi + slack]


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def minimize_beta(m: int, alpha: float,
                  config: OptimizerConfig = OptimizerConfig()) -> tuple[float, float]:
    """Conjugate width minimizing the overlap deviation at fixed ``alpha``.

    The ``config.u_variant`` functional is scanned over ``config.beta_box``
    at ``config.coarse_step`` in one evaluation of the whole row and refined
    by golden section to ``config.tol``, one beta per step, the same search
    as stage 1's; exact ties break toward the smaller width.
    """
    axis = _axis(config.beta_box, config.coarse_step)
    u = _overlap(m, alpha, config.u_variant)
    beta_opt, u_min = _refine_min(lambda b: float(u(b)[0]), axis, u(axis), config.tol)
    return beta_opt, float(u_min)


def optimize_point(
    m: int,
    epsilon: float,
    config: OptimizerConfig = OptimizerConfig(),
) -> OptimizationResult:
    """Optimal (alpha, beta) for one (m, epsilon) pair.

    Stage 1 maximizes the capacity over alpha (objective: best capacity over
    the beta grid), coarse grid plus golden-section refinement, ties toward
    smaller alpha.  Stage 2 picks beta: from the overlap functional in the
    ``staged`` scheme, from the capacity itself in the ``nested`` scheme.
    So the staged ``c_opt`` may sit below ``stage1_capacity`` (e.g. 0.3794
    vs 0.3896 at m = 4, epsilon = 0.5); the nested one equals it.
    A capacity that is zero over the whole grid short-circuits to the
    smallest alpha of the plateau.
    """
    alpha_axis = _axis(config.alpha_box, config.coarse_step)
    beta_axis = _axis(config.beta_box, config.coarse_step)
    coarse = dict(zip(alpha_axis, c_surface(m, epsilon, alpha_axis, beta_axis, config.accuracy).capacity))

    def row(alpha: float) -> np.ndarray:
        # capacity over the beta grid at this alpha, off the coarse grid if it is on it
        if alpha in coarse:
            return coarse[alpha]
        return c_surface(m, epsilon, [alpha], beta_axis, config.accuracy).capacity[0]

    @cache
    def best_beta(alpha: float) -> tuple[float, float]:
        # capacity-maximizing beta at this alpha, and its capacity
        beta, neg_best = _refine_min(
            lambda b: -capacity(ProtocolParams(m, alpha, b, epsilon), config.accuracy).capacity,
            beta_axis, -row(alpha), config.tol)
        return beta, -neg_best

    def row_max(alpha: float) -> float:
        if config.scheme == "nested":
            return best_beta(alpha)[1]
        return float(row(alpha).max())

    grid_best = np.array([row_max(a) for a in alpha_axis])
    grid_max = float(grid_best.max())

    if grid_max <= 0.0:
        # zero-capacity plateau: report its smallest alpha
        alpha_opt = float(alpha_axis[0])
        stage1_c = 0.0
    else:
        alpha_opt, neg_c = _refine_min(lambda a: -row_max(a), alpha_axis, -grid_best, config.tol)
        stage1_c = -neg_c

    if config.scheme == "staged":
        beta_opt, u_min = minimize_beta(m, alpha_opt, config)
    else:
        beta_opt = best_beta(alpha_opt)[0]
        u_min = u_functional(m, alpha_opt, beta_opt, config.u_variant)

    report = capacity(ProtocolParams(m, alpha_opt, beta_opt, epsilon), config.accuracy)
    return OptimizationResult(
        m=int(m),
        epsilon=float(epsilon),
        alpha_opt=alpha_opt,
        beta_opt=float(beta_opt),
        c_opt=report.capacity,
        u_min=float(u_min),
        report=report,
        scheme=config.scheme,
        u_variant=config.u_variant,
        stage1_capacity=float(stage1_c),
    )


def sweep(ms, epsilons, config: OptimizerConfig = OptimizerConfig()) -> list[SweepEntry]:
    """One optimization per (m, epsilon) pair, m outer, epsilon inner.

    Failures are recorded per point and do not stop the sweep.
    """
    ms = list(ms)
    epsilons = list(epsilons)
    if not ms or not epsilons:
        raise DomainError("sweep needs at least one m and one epsilon")

    def run(m, eps):
        try:
            result = optimize_point(m, eps, config)
        except (DomainError, NumericFailure) as exc:
            return SweepEntry(m, eps, "failed", error=str(exc))
        return SweepEntry(result.m, result.epsilon, "ok", result=result)

    return [run(m, e) for m in ms for e in epsilons]
