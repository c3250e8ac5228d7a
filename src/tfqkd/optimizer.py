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
from .errors import DomainError, NumericFailure, _check_positive
from .infotheory import CapacityReport, _capacity_grid, capacity
from .pulse_math import DEFAULT_ACCURACY, _check_beta_m

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

    ``alpha_box`` (stage 1) is the alpha range; ``beta_box`` (both stages)
    the beta range of the capacity rows and of the overlap scan;
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
    if (axis.size == 0 or not np.all(np.isfinite(axis)) or axis[0] <= 0.0
            or np.any(np.diff(axis) <= 0.0)):
        raise DomainError(f"{name} must be finite, strictly increasing and positive")


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

def _term_crossings(centers: np.ndarray, w_sym: float, w_con: float) -> tuple[np.ndarray, np.ndarray]:
    """Crossings of each shifted symbol density with the centered conjugate one, as :func:`_piecewise_l1`
    cuts (a row per center ``c``).  With ``u = c/w_con``, ``r = w_sym/w_con`` and ``s = 1 + r``, the offsets
    ``d = (t - c)/w_sym`` are the roots ``q/A``, ``C/q`` of ``A d**2 + 2B d + C``: ``A = 1 - r``, ``B = -u r/s``,
    ``C = (log r - u**2)/s``, ``q = -(B + sign(B) sqrt((u/s)**2 - (A/s) log r))``, the discriminant's terms
    never negative and ``A`` 0 just where ``log r`` is (``q/A`` is then a crossing at infinity)."""
    u, r = centers / w_con, w_sym / w_con
    a, s, log_r = 1.0 - r, 1.0 + r, np.log(r)
    half_b, const = -u * (r / s), (log_r - u * u) / s
    q = -(half_b + np.copysign(np.sqrt((u / s) ** 2 - a / s * log_r), half_b))
    q[(q == 0.0) & (const == 0.0)] = 1.0  # coinciding densities (c = 0, equal widths): cuts 0 and +inf
    d = np.sort(np.column_stack([q / a, const / q]), axis=1)
    if np.isnan(d).any() or not np.isfinite(1.0 / (w_sym * w_sym)):  # as documented, also below 7.5e-155
        raise DomainError(f"overlap crossings leave the float range at widths {w_sym} and {w_con}")
    return d[..., None], u[:, None] + r * d


def _piecewise_l1(sym: np.ndarray, con: np.ndarray) -> float:
    """Sum of |comb mass - n * conjugate mass| over the pieces between sorted
    cuts, given as offsets from the ``n`` symbol centers in symbol widths (``sym``,
    last axis) and from the conjugate center 0 in conjugate widths (``con``).  The
    difference keeps one sign per piece, so each is an exact difference of cumulative
    masses: one erf per (cut, center) and per cut of the conjugate, +-1 at infinite cuts."""
    n = sym.shape[-1]
    scaled = np.concatenate([sym, con[..., None]], axis=-1)
    edge = np.ones(scaled.shape[:-2] + (1, n + 1))
    mass = 0.5 * np.diff(np.concatenate([-edge, erf(scaled), edge], axis=-2), axis=-2)
    total = np.abs(mass[..., :n].sum(axis=-1) - n * mass[..., n]).sum()
    if not np.isfinite(total):
        raise NumericFailure("overlap functional produced a non-finite value")
    return float(total)


@np.errstate(all="ignore")  # at extreme widths the arithmetic gives inf or NaN, refused as such
def u_functional(
    m: int,
    alpha: float,
    beta: float,
    variant: str = "per-term",
) -> float:
    """Overlap deviation between the symbol-pulse comb and the conjugate pulse.

    ``per-term`` (default) sums the L1 distance of each shifted symbol pulse
    to the centered conjugate pulse; ``whole-sum`` takes the absolute value
    outside the sum and is bounded above by the per-term value.  Both reduce
    to error-function expressions between sign changes of the density
    difference, summed by one shared evaluator: closed-form ``per-term`` crossings, ``whole-sum``
    ones bisected to 1e-10 from a scan that raises :class:`NumericFailure` if its capped step can
    miss them.  Widths whose arithmetic leaves the float range raise :class:`DomainError`.
    """
    params = ProtocolParams(m, alpha, beta)  # validates the inputs
    _check_beta_m(m, beta)  # the filter bank's bounds on beta * m
    centers = make_layout(m).centers
    w_sym, w_con = np.float64(params.symbol_sigma), np.float64(params.conjugate_sigma)  # so x / 0 is inf
    if variant == "per-term":
        return _piecewise_l1(*_term_crossings(centers, w_sym, w_con))
    if variant != "whole-sum":
        raise DomainError(f"unknown u variant {variant!r}")

    sqrt_pi = math.sqrt(math.pi)

    def diff(t):
        # comb minus m times the conjugate density at each point of t; exp is
        # slow where it underflows to 0 (below about -745.1), so terms below
        # -746 are skipped, as are points beyond sqrt(746) widths of all centers
        near = np.abs(t) < centers[-1] + math.sqrt(746.0) * w_sym
        z = -((np.subtract.outer(t[near], centers) / w_sym) ** 2)
        comb = np.zeros_like(t)
        comb[near] = np.exp(z, out=np.zeros_like(z), where=z > -746.0).sum(axis=1)
        return comb / (w_sym * sqrt_pi) - m * np.exp(-((t / w_con) ** 2)) / (w_con * sqrt_pi)

    # locate every sign change of the difference on a grid whose step resolves the narrower width; a capped
    # step wider than both the narrower density's width 2 w_n and the region where it tops the wider one's
    # peak (one symbol against m conjugates, or m conjugates against at most m symbols) is refused
    w_n, w_w = sorted((w_sym, w_con))
    reach = 0.5 * m + 5.4 * w_w
    n_pts = int(min(max(4001, 40.0 * reach / w_n), 400_001))
    grid = np.linspace(-reach, reach, n_pts)
    if not np.isfinite((grid[1] - grid[0]) / 1e-10):  # the bisection below counts its halvings
        raise DomainError(f"overlap scan over +-{reach} leaves the float range")
    region = 2.0 * w_n * np.sqrt(np.fmax(1.0, np.log(w_w) - np.log(w_n * (m if w_sym < w_con else 1))))
    if n_pts == 400_001 and not grid[1] - grid[0] <= region:
        raise NumericFailure(f"overlap scan step {grid[1] - grid[0]:.3g} can step over the narrower density")
    negative = np.signbit(diff(grid))
    flips = np.nonzero(np.diff(negative))[0]

    # bisect every bracket at once until it is narrower than 1e-10
    lo, hi = grid[flips], grid[flips + 1]
    for _ in range(math.ceil(math.log2((grid[1] - grid[0]) / 1e-10))):
        mid = 0.5 * (lo + hi)
        left = np.signbit(diff(mid)) == negative[flips]
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    cuts = 0.5 * (lo + hi)
    return _piecewise_l1(np.subtract.outer(cuts, centers) / w_sym, cuts / w_con)


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
    at ``config.coarse_step`` and refined by golden section to
    ``config.tol``, the same search as stage 1's; exact ties break toward
    the smaller width.
    """
    def u(beta: float) -> float:
        return u_functional(m, alpha, beta, config.u_variant)

    axis = _axis(config.beta_box, config.coarse_step)
    beta_opt, u_min = _refine_min(u, axis, np.array([u(b) for b in axis]), config.tol)
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
