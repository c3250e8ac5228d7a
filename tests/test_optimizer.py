import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf

import tfqkd.channel as channel_module
import tfqkd.optimizer as optimizer_module
from tfqkd.channel import ProtocolParams, make_layout, p_wrong
from tfqkd.cli import parse_range
from tfqkd.errors import DomainError, NumericFailure
from tfqkd.infotheory import capacity, mutual_info_single
from tfqkd.optimizer import (
    _INVPHI,
    OptimizerConfig,
    _axis,
    c_surface,
    minimize_beta,
    optimize_point,
    sweep,
    u_functional,
    _refine_min,
)
from tfqkd.pulse_math import density_bin_mass

ROOT = Path(__file__).resolve().parent.parent


def _interval_ends(m):
    """``(inside, outside)``: per end of [1e-12, 1e12], the width ``w`` nearest it whose ``w * m``
    (in floats) lies inside, and the next float past it, whose product lies outside."""
    inside, outside = [], []
    for end, out in ((1e-12, 0.0), (1e12, math.inf)):
        w = end / m
        while not 1e-12 <= w * m <= 1e12:
            w = np.nextafter(w, 1.0)
        while 1e-12 <= np.nextafter(w, out) * m <= 1e12:
            w = np.nextafter(w, out)
        inside.append(float(w))
        outside.append(float(np.nextafter(w, out)))
    return inside, outside


def _u_per_term_quadrature(m, alpha, beta):
    """Independent oracle: piecewise quadrature of each L1 term."""
    w_sym = 0.5 * alpha
    w_con = 0.5 * beta * m
    centers = np.arange(1, m + 1) - 0.5 * (m + 1)
    reach = 0.5 * m + 6.0 * max(w_sym, w_con)
    total = 0.0
    for c in centers:
        f = lambda t: abs(
            math.exp(-(((t - c) / w_sym) ** 2)) / (w_sym * math.sqrt(math.pi))
            - math.exp(-((t / w_con) ** 2)) / (w_con * math.sqrt(math.pi))
        )
        edges = np.linspace(-reach, reach, 40)
        total += sum(
            quad(f, lo, hi, limit=100)[0] for lo, hi in zip(edges[:-1], edges[1:])
        )
    return total


def _u_per_term_scalar(m, alpha, beta):
    """Reference per-term algorithm: one scalar two-crossing L1 distance per
    center, the textbook quadratic roots and four CDF values each.  The
    textbook roots cancel as the widths approach each other, so the
    reference holds only away from near-equal widths."""
    w_sym, w_con = 0.5 * alpha, 0.5 * beta * m

    def cdf(t, mu, width):
        return 0.5 * (1.0 + math.erf((t - mu) / width))

    def l1(mu1, w1, mu2, w2):
        if w1 == w2:
            if mu1 == mu2:
                return 0.0
            tc = 0.5 * (mu1 + mu2)
            return 2.0 * abs(cdf(tc, mu1, w1) - cdf(tc, mu2, w2))
        a = 1.0 / (w2 * w2) - 1.0 / (w1 * w1)
        b = 2.0 * (mu1 / (w1 * w1) - mu2 / (w2 * w2))
        c = mu2 * mu2 / (w2 * w2) - mu1 * mu1 / (w1 * w1) - math.log(w1 / w2)
        r = math.sqrt(b * b - 4.0 * a * c)
        t1, t2 = sorted(((-b - r) / (2.0 * a), (-b + r) / (2.0 * a)))
        d = (cdf(t2, mu1, w1) - cdf(t1, mu1, w1)) - (cdf(t2, mu2, w2) - cdf(t1, mu2, w2))
        return 2.0 * abs(d)

    return sum(l1(c, w_sym, 0.0, w_con) for c in make_layout(m).centers)


@np.errstate(all="ignore")  # a center at 0 with equal widths divides 0 by 0, as the evaluator does
def _u_per_term_three_pieces(m, alpha, beta):
    """The former per-term evaluator: sorted closed-form crossings, three pieces
    per center, |symbol mass - conjugate mass| summed over all of them."""
    centers = make_layout(m).centers
    w_sym, w_con = np.float64(0.5 * alpha), np.float64(0.5 * beta * m)
    u, r = centers / w_con, w_sym / w_con
    a, s, log_r = 1.0 - r, 1.0 + r, np.log(r)
    half_b, const = -u * (r / s), (log_r - u * u) / s
    q = -(half_b + np.copysign(np.sqrt((u / s) ** 2 - a / s * log_r), half_b))
    q[(q == 0.0) & (const == 0.0)] = 1.0
    d = np.sort(np.column_stack([q / a, const / q]), axis=1)
    scaled = np.concatenate([d[..., None], (u[:, None] + r * d)[..., None]], axis=-1)
    edge = np.ones((m, 1, 2))
    mass = 0.5 * np.diff(np.concatenate([-edge, erf(scaled), edge], axis=-2), axis=-2)
    return float(np.abs(mass[..., 0] - mass[..., 1]).sum())


def _u_whole_sum_scalar(m, alpha, beta, accuracy=1e-10):
    """Reference whole-sum algorithm: grid scan, one brentq per sign change,
    then a scalar sum of bin masses per piece between crossings."""
    params = ProtocolParams(m, alpha, beta)
    w_sym, w_con = params.symbol_sigma, params.conjugate_sigma
    centers = make_layout(m).centers
    sqrt_pi = math.sqrt(math.pi)

    def diff(t):
        comb = np.exp(-(((t - centers) / w_sym) ** 2)).sum() / (w_sym * sqrt_pi)
        return comb - m * math.exp(-((t / w_con) ** 2)) / (w_con * sqrt_pi)

    reach = 0.5 * m + 5.4 * max(w_sym, w_con)
    n_pts = int(min(max(4001, 40.0 * reach / min(w_sym, w_con)), 400_001))
    grid = np.linspace(-reach, reach, n_pts)
    comb = np.exp(-(((grid[:, None] - centers[None, :]) / w_sym) ** 2)).sum(axis=1) / (
        w_sym * sqrt_pi
    )
    values = comb - m * np.exp(-((grid / w_con) ** 2)) / (w_con * sqrt_pi)
    flips = np.nonzero(np.diff(np.signbit(values)))[0]
    roots = [brentq(diff, grid[i], grid[i + 1], xtol=min(accuracy, 1e-10)) for i in flips]
    cuts = [-np.inf] + roots + [np.inf]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        signed = sum(density_bin_mass(w_sym, c, lo, hi) for c in centers)
        signed -= m * density_bin_mass(w_con, 0.0, lo, hi)
        total += abs(signed)
    return total


def _u_whole_sum_fine(m, alpha, beta, per_width):
    """Reference whole-sum on grids of ``per_width`` points per width over 28 widths: around each
    center in symbol widths (across the comb where those windows overlap) and around 0 in conjugate
    widths.  The comb is summed in chunks of the grid over the centers in reach of the chunk, each
    sign change refined by brentq to 1e-12 of the narrower width (or absolute, if wider than 1), and U summed
    from the cumulative mass difference at the crossings."""
    w_sym, w_con = 0.5 * alpha, 0.5 * beta * m
    centers = make_layout(m).centers
    sqrt_pi, reach = math.sqrt(math.pi), 28.0
    steps = np.arange(-reach * per_width, reach * per_width + 1) / per_width
    if 2.0 * reach * w_sym >= 1.0:
        sym = np.arange(centers[0] - reach * w_sym, centers[-1] + reach * w_sym, w_sym / per_width)
    else:
        sym = np.add.outer(centers, w_sym * steps).ravel()
    grid = np.unique(np.concatenate([sym, centers, w_con * steps]))

    def diff(t):
        near = centers[(centers > t[0] - reach * w_sym) & (centers < t[-1] + reach * w_sym)]
        comb = np.exp(-((np.subtract.outer(t, near) / w_sym) ** 2)).sum(axis=1) / (w_sym * sqrt_pi)
        return comb - m * np.exp(-((t / w_con) ** 2)) / (w_con * sqrt_pi)

    values = np.concatenate([diff(grid[i:i + 4096]) for i in range(0, grid.size, 4096)])
    flips = np.nonzero(np.diff(np.signbit(values)))[0]
    xtol = 1e-12 * min(1.0, w_sym, w_con)
    cuts = np.array([brentq(lambda x: diff(np.array([x]))[0], grid[i], grid[i + 1], xtol=xtol) for i in flips])
    excess = 0.5 * (erf(np.subtract.outer(cuts, centers) / w_sym).sum(axis=1) - m * erf(cuts / w_con))
    return float(np.abs(np.diff(np.concatenate([[0.0], excess, [0.0]]))).sum())


class TestUFunctional:
    # (4, 0.5, 0.125) has equal widths; at (2, 0.3, 0.05 + 0.1) the widths
    # differ by one rounding, where textbook roots lose the near crossing
    @pytest.mark.parametrize("m,alpha,beta", [(2, 0.5, 1.1), (4, 0.5, 0.7), (8, 0.3, 0.9),
                                              (4, 0.5, 0.125), (2, 0.3, 0.05 + 0.1)])
    def test_per_term_matches_quadrature(self, m, alpha, beta):
        assert u_functional(m, alpha, beta) == pytest.approx(
            _u_per_term_quadrature(m, alpha, beta), abs=1e-7
        )

    @pytest.mark.parametrize("m", [2, 3, 4, 16, 32, 256])
    def test_per_term_matches_scalar_reference(self, m):
        # beta = alpha / m gives equal widths; odd m puts a center at 0
        for alpha in (0.05, 0.5, 1.5):
            for beta in (0.05, 0.7, 1.4, alpha / m):
                assert u_functional(m, alpha, beta) == pytest.approx(
                    _u_per_term_scalar(m, alpha, beta), rel=0.0, abs=1e-12
                )

    @pytest.mark.parametrize("m", [2, 3, 5, 16, 256])
    def test_per_term_row_matches_the_three_piece_sum(self, m):
        # 2 |dP - dQ| per center against the pieces' sum it replaces, over the default beta axis
        axis = _axis(OptimizerConfig.beta_box, OptimizerConfig.coarse_step)
        for alpha in np.linspace(0.05, 1.5, 10):
            row = optimizer_module._overlap(m, alpha, "per-term")(axis)
            reference = np.array([_u_per_term_three_pieces(m, alpha, b) for b in axis])
            assert np.all(np.abs(row - reference) <= 1e-15 * reference)
            assert np.array_equal(row, [u_functional(m, alpha, b) for b in axis])

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_per_term_continuous_across_equal_widths(self, m):
        # conjugate widths an ulp or two from the symbol width, where the
        # quadratic's leading coefficient is tiny or rounds to 0
        for alpha in np.linspace(0.05, 1.5, 300):
            equal = u_functional(m, alpha, alpha / m)
            for beta in (np.nextafter(alpha / m, 0.0), np.nextafter(alpha / m, 1.0)):
                assert u_functional(m, alpha, beta) == pytest.approx(equal, rel=0.0, abs=1e-9)

    def test_non_finite_crossing_raises(self):
        # the whole-sum shapes: two cuts, as offsets from four centers and from the conjugate center
        with pytest.raises(NumericFailure):
            optimizer_module._piecewise_l1(np.full((2, 4), np.nan), np.full(2, np.nan))

    @pytest.mark.parametrize("m,alpha,beta", [(4, 1e-12, 0.5), (4, 1e-12, 2.5e11), (3, 1e-12, 1e12 / 3),
                                              (2, 1e12, 5e-13), (4, 1e12, 2.5e-13)])
    def test_per_term_widths_far_apart_reach_the_limit(self, m, alpha, beta):
        # one density lies inside the much wider other, so the overlap tends to 2m; the
        # discriminant cancels nowhere, so the corners of the width interval give it too
        # (the naive quadratic gave 5.04 at (4, 1e-12, 0.5))
        assert u_functional(m, alpha, beta) == pytest.approx(2.0 * m, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("m,alpha,beta", [(4, 1e-20, 0.5), (4, 1e160, 2.5e299), (4, 2e160, 5e9),
                                              (3, 1e-149, 1e-12 / 3), (2, 1e-71, 2.5e11)])
    def test_per_term_widths_outside_the_interval_are_refused(self, m, alpha, beta):
        # widths far apart and past the ends of [1e-12, 1e12] in alpha or beta * m
        with pytest.raises(DomainError, match=r"must lie in \[1e-12, 1e12\]"):
            u_functional(m, alpha, beta)

    @pytest.mark.parametrize("scale", [1e8, 1e10, 1e11])
    @pytest.mark.parametrize("m", [2, 3, 16])
    def test_per_term_depends_on_the_width_ratio_once_both_dwarf_the_centers(self, m, scale):
        # symbol width 20 times the conjugate one, both far wider than the layout; the
        # expected value is at the interval's upper end, alpha = 1e12
        expected = u_functional(m, 1e12, 5e11 / (10 * m))
        assert u_functional(m, 2.0 * scale, scale / (10 * m)) == pytest.approx(expected, rel=0.0,
                                                                                 abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-4, 1e-7, 1e-10])
    def test_whole_sum_depends_on_the_width_ratio_once_the_center_at_0_stands_alone(self, scale):
        # at m = 3 a symbol sits on the conjugate center; once the widths are far below the pitch
        # U depends on their ratio only, so the crossings' bisection must stop at a fraction of
        # a width: an absolute 1e-10 is coarser than these widths
        expected = u_functional(3, 1e-2, 1e-4 / 3, "whole-sum")
        assert u_functional(3, scale, scale / 300, "whole-sum") == pytest.approx(expected, rel=1e-14,
                                                                                  abs=0.0)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-5])
    def test_whole_sum_at_narrow_symbols_matches_a_fine_grid(self, alpha):
        # symbols a millionth of the conjugate's width, where a uniform scan at a twentieth
        # of the symbol width would need over 1e8 points; the overlap is just below 2m = 8
        whole = u_functional(4, alpha, 0.5, "whole-sum")
        assert whole == pytest.approx(_u_whole_sum_fine(4, alpha, 0.5, 320), rel=1e-12, abs=0.0)
        assert whole <= u_functional(4, alpha, 0.5, "per-term")

    def test_whole_sum_finds_the_thin_crossing_pairs_at_large_m(self):
        # near the middle of the layout a symbol barely tops 1024 conjugates: a thin
        # crossing pair, which a capped uniform scan steps over (reading 2.24e-5 low)
        whole = u_functional(1024, 0.05, 0.05, "whole-sum")
        assert whole == pytest.approx(_u_whole_sum_fine(1024, 0.05, 0.05, 80), rel=1e-12, abs=0.0)

    def test_whole_sum_memory_does_not_grow_with_points_times_m(self):
        # the comb is a banded sum over the nearest centers, not a (points x m) array
        tracemalloc.start()
        try:
            u_functional(1024, 0.05, 0.05, "whole-sum")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6

    def test_whole_sum_scan_finer_than_the_narrower_width_gives_a_value(self):
        # no symbol tops 16 conjugates (beta < alpha), but the capped step is a
        # fifth of the symbol width; all densities lie apart, so U is 2m
        assert u_functional(16, 4e-4, 2e-4, "whole-sum") == pytest.approx(32.0, rel=0.0, abs=1e-9)

    def test_bounds(self):
        for m, alpha, beta in [(2, 0.1, 0.1), (4, 1.5, 1.5), (8, 0.7, 0.05)]:
            u = u_functional(m, alpha, beta)
            assert 0.0 <= u <= 2.0 * m

    def test_wide_conjugate_limit(self):
        assert u_functional(4, 0.5, 1e6) == pytest.approx(8.0, abs=1e-3)

    def test_whole_sum_below_per_term(self):
        for alpha in (0.3, 0.6, 1.0):
            for beta in (0.4, 0.7, 1.2):
                per = u_functional(4, alpha, beta, "per-term")
                whole = u_functional(4, alpha, beta, "whole-sum")
                assert whole <= per + 1e-7

    @pytest.mark.parametrize("m", [2, 3, 4, 16, 32])
    def test_whole_sum_matches_scalar_reference(self, m):
        for alpha in (0.05, 0.5, 1.5):
            for beta in (0.1, 0.7, 1.4):
                assert u_functional(m, alpha, beta, "whole-sum") == pytest.approx(
                    _u_whole_sum_scalar(m, alpha, beta), rel=0.0, abs=1e-12
                )

    def test_unique_interior_minimum_m2(self):
        # dense scan: the difference changes sign exactly once
        betas = np.arange(0.3, 1.5001, 0.01)
        us = np.array([u_functional(2, 0.5, b) for b in betas])
        k = int(np.argmin(us))
        assert 0 < k < betas.size - 1
        diffs = np.sign(np.diff(us))
        flips = np.nonzero(np.diff(diffs) != 0)[0]
        assert flips.size == 1

    def test_rejects_unknown_variant(self):
        with pytest.raises(DomainError):
            u_functional(4, 0.5, 0.7, "median")

    @pytest.mark.parametrize("variant", ["per-term", "whole-sum"])
    @pytest.mark.parametrize("m,beta", [(4, 1e308), (4, 1e-310), (16, 4e307)])
    def test_beta_m_outside_the_filter_bank_bounds(self, m, beta, variant):
        # the overlap shares the capacity path's interval for beta * m
        with pytest.raises(DomainError, match=r"beta \* m must lie in \[1e-12, 1e12\]"):
            u_functional(m, 0.5, beta, variant)

    @pytest.mark.parametrize("variant,alpha", [("per-term", 1e-200), ("per-term", 5e-324),
                                               ("whole-sum", 1e308), ("whole-sum", 1.7e308)])
    def test_width_past_float_range_is_a_domain_error(self, variant, alpha):
        with pytest.raises(DomainError, match=r"alpha must lie in \[1e-12, 1e12\]"):
            u_functional(4, alpha, 0.5, variant)

    @pytest.mark.parametrize("variant", ["per-term", "whole-sum"])
    @pytest.mark.parametrize("m", [2, 3, 4, 16])
    def test_every_accepted_width_gives_a_value_or_domain_error(self, m, variant):
        # warnings are errors in this suite, so no call may warn either: the corners of the
        # interval in alpha and beta * m and the equal-width diagonal give values in range, and
        # the next float past each end raises
        alphas, alphas_out = _interval_ends(1)
        betas, betas_out = _interval_ends(m)
        diagonal = [(w, w / m) for w in np.logspace(-8, 8, 5)]  # alpha = beta * m (to an ulp)
        for alpha, beta in [(a, b) for a in alphas for b in betas] + diagonal:
            assert 0.0 <= u_functional(m, alpha, beta, variant) <= 2.0 * m + 1e-9
            for eps in (0.0, 0.5):
                assert 0.0 <= capacity(ProtocolParams(m, alpha, beta, eps)).capacity <= math.log2(m)
        for eps in (0.0, 0.5):
            assert np.all(np.isfinite(c_surface(m, eps, alphas, betas).capacity))
        outside = [(a, b) for a in alphas_out for b in betas] + [(a, b) for a in alphas for b in betas_out]
        for alpha, beta in outside:
            for call in (lambda: u_functional(m, alpha, beta, variant),
                         lambda: capacity(ProtocolParams(m, alpha, beta, 0.5)),
                         lambda: c_surface(m, 0.5, [alpha], [beta])):
                with pytest.raises(DomainError, match=r"must lie in \[1e-12, 1e12\]"):
                    call()


class TestMinimizeBeta:
    def test_matches_dense_grid(self):
        betas = np.arange(0.05, 1.5001, 1e-3)
        us = np.array([u_functional(16, 0.5, b) for b in betas])
        brute = betas[int(np.argmin(us))]
        beta_opt, u_min = minimize_beta(16, 0.5)
        assert beta_opt == pytest.approx(brute, abs=2e-3)
        assert u_min <= us.min() + 1e-9

    def test_one_row_then_one_beta_per_golden_step(self, monkeypatch):
        # the coarse row is one 30-beta call of the per-term kernel; each golden-section step one more
        sizes = []
        kernel = optimizer_module._term_overlaps

        def spy(centers, w_sym, w_con):
            sizes.append(w_con.size)
            return kernel(centers, w_sym, w_con)
        monkeypatch.setattr(optimizer_module, "_term_overlaps", spy)
        minimize_beta(16, 0.5)
        assert sizes[0] == 30 and set(sizes[1:]) == {1} and len(sizes) <= 13

    def test_beta_m_below_the_bound_names_the_first_beta(self):
        with pytest.raises(DomainError) as info:
            minimize_beta(4, 0.5, OptimizerConfig(beta_box=(1e-310, 0.05)))
        assert str(info.value) == "beta * m must lie in [1e-12, 1e12], got beta = 1e-310 at m = 4"

    @pytest.mark.parametrize("m", [16, 32])
    def test_large_m_lands_near_typical_width(self, m):
        beta_opt, _ = minimize_beta(m, 0.5)
        assert 0.5 <= beta_opt <= 0.9

    @pytest.mark.parametrize("m,alpha", [(m, a) for m in (2, 3, 4, 16) for a in (0.05, 0.5, 1.5)]
                             + [(32, 0.5)])
    def test_whole_sum_same_beta_as_scalar_reference(self, m, alpha, monkeypatch):
        config = OptimizerConfig(u_variant="whole-sum")
        beta_opt, _ = minimize_beta(m, alpha, config)
        monkeypatch.setattr(optimizer_module, "_overlap", lambda m, alpha, variant: lambda betas: np.array(
            [_u_whole_sum_scalar(m, alpha, b) for b in np.atleast_1d(betas)]))
        assert minimize_beta(m, alpha, config)[0] == beta_opt

    def test_deterministic(self):
        a = minimize_beta(8, 0.4)
        b = minimize_beta(8, 0.4)
        assert a == b

    def test_argmin_invariant_under_rescaling(self):
        # positive rescaling of the objective must not move the minimizer
        axis = np.array([0.4, 0.8, 1.2])

        def argmin(scale):
            def fn(b):
                return scale * u_functional(4, 0.5, b)
            return _refine_min(fn, axis, np.array([fn(b) for b in axis]), 1e-4)[0]
        assert argmin(7.3) == pytest.approx(argmin(1.0), abs=1e-4)


class TestRefineMin:
    axis = np.array([0.0, 1.0, 2.0])

    def test_one_point_axis_never_calls_fn(self):
        def fn(x):
            raise AssertionError("fn called")
        assert _refine_min(fn, np.array([0.3]), np.array([1.5]), 1e-3) == (0.3, 1.5)

    def test_grid_point_beats_every_golden_point(self):
        calls = []

        def fn(x):
            calls.append(x)
            return 1.0
        assert _refine_min(fn, self.axis, np.array([2.0, 0.5, 2.0]), 1e-3) == (1.0, 0.5)
        assert calls  # the golden points were evaluated, and lost

    def test_tie_goes_to_the_smaller_argument(self):
        # a golden point below the grid point ties with it and wins ...
        x, v = _refine_min(lambda x: 0.0, self.axis, np.array([1.0, 0.0, 1.0]), 1e-3)
        assert v == 0.0 and 0.0 < x < 1.0
        # ... while golden points above it tie and lose
        def fn(x):
            return 0.0 if x > 1.0 else 5.0
        assert _refine_min(fn, self.axis, np.array([1.0, 0.0, 1.0]), 1e-3) == (1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_seed_raises(self, bad):
        def fn(x):
            raise AssertionError("fn called")
        with pytest.raises(NumericFailure):
            _refine_min(fn, self.axis, np.array([2.0, 0.5, bad]), 1e-3)

    def test_non_finite_fn_value_raises(self):
        with pytest.raises(NumericFailure):
            _refine_min(lambda x: math.nan, self.axis, np.array([1.0, 0.0, 1.0]), 1e-3)

    def test_tol_below_float_spacing_ends(self):
        # a bracket a few ulps wide stops shrinking; the search must stop with it.
        # A subprocess with a timeout, so that a regression fails instead of hanging
        code = (
            "import numpy as np\n"
            "from tfqkd.optimizer import OptimizerConfig, _refine_min, minimize_beta, optimize_point\n"
            "x, v = _refine_min(lambda x: (x - 0.3) ** 2, np.array([0.0, 0.5, 1.0]),\n"
            "                   np.array([0.09, 0.04, 0.49]), 1e-300)\n"
            "assert abs(x - 0.3) < 1e-7, x\n"
            "for tol in (1e-17, 1e-300):\n"
            "    minimize_beta(4, 0.5, OptimizerConfig(tol=tol))\n"
            "    optimize_point(4, 0.0, OptimizerConfig(tol=tol))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_normal_tol_takes_the_same_steps(self):
        # the strict-inside test never stops a search whose bracket is wider than tol
        calls = []

        def fn(x):
            calls.append(x)
            return (x - 0.37) ** 2
        axis = np.linspace(0.0, 1.0, 11)
        x, _ = _refine_min(fn, axis, (axis - 0.37) ** 2, 1e-6)
        width = 0.2 * _INVPHI ** (len(calls) - 1)
        assert abs(x - 0.37) < 1e-6 and 1e-6 * _INVPHI < width <= 1e-6


class TestAxis:
    def test_cli_range_is_the_same_builder(self):
        assert np.array_equal(parse_range("0.05:1.5:0.05"), _axis((0.05, 1.5), 0.05, 0.025))
        assert np.array_equal(_axis((0.05, 1.5), 0.05), _axis((0.05, 1.5), 0.05, 0.025))
        assert _axis((0.1, 0.33), 0.1).size == 3 and _axis((0.1, 0.36), 0.1, 0.05).size == 4

    @pytest.mark.parametrize("box,step", [
        ((0.0, 1e308), 1e-300), ((0.0, 1.0), 1e-15), ((0.05, 1.5), 1e-300), ((0.05, 1e308), 0.05),
    ], ids=["overflow", "too-large-to-allocate", "beyond-numpy-size", "huge-box"])
    def test_too_many_points_is_a_domain_error(self, box, step):
        with pytest.raises(DomainError, match="too many points"):
            _axis(box, step)

    @pytest.mark.parametrize("config", [
        OptimizerConfig(coarse_step=1e-300), OptimizerConfig(alpha_box=(1e-12, 1e12)),
        OptimizerConfig(beta_box=(0.05, 1e308)),
    ], ids=["step", "alpha-box", "beta-box"])
    def test_optimizer_grid_with_too_many_points(self, config):
        with pytest.raises(DomainError, match="too many points"):
            optimize_point(4, 0.5, config)
        entry, = sweep([4], [0.5], config)
        assert entry.status == "failed" and "too many points" in entry.error


class TestCSurface:
    def test_values_within_bounds(self):
        grid = c_surface(4, 0.5, np.arange(0.2, 1.01, 0.2), np.arange(0.3, 1.01, 0.35))
        assert np.all(grid.capacity >= 0.0)
        assert np.all(grid.capacity <= 2.0)
        assert np.all(np.isfinite(grid.capacity))

    def test_no_attack_rows_decrease_with_alpha(self):
        grid = c_surface(4, 0.0, np.arange(0.1, 1.51, 0.1), np.array([0.7]))
        assert np.all(np.diff(grid.capacity[:, 0]) <= 1e-12)

    def test_deterministic(self):
        a = c_surface(4, 0.5, np.array([0.4, 0.8]), np.array([0.6, 0.9]))
        b = c_surface(4, 0.5, np.array([0.4, 0.8]), np.array([0.6, 0.9]))
        assert np.array_equal(a.capacity, b.capacity)

    def test_rejects_bad_axes(self):
        with pytest.raises(DomainError):
            c_surface(4, 0.5, np.array([0.8, 0.4]), np.array([0.6]))
        with pytest.raises(DomainError):
            c_surface(4, 0.5, np.array([-0.1, 0.4]), np.array([0.6]))
        with pytest.raises(DomainError, match="alpha axis"):
            c_surface(4, 0.0, [0.1, math.nan, 0.5], [0.7])
        with pytest.raises(DomainError, match=r"alpha must lie in \[1e-12, 1e12\], got inf"):
            c_surface(4, 0.0, [0.1, math.inf], [0.7])

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(2, 12),
        eps=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        alphas=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=4, unique=True).map(sorted),
        betas=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=4, unique=True).map(sorted),
    )
    def test_batched_equals_pointwise(self, m, eps, alphas, betas):
        grid = c_surface(m, eps, alphas, betas)
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                params = ProtocolParams(m, a, b, eps)
                rep = capacity(params)
                for name in ("capacity", "i_ab", "i_ae", "qser"):
                    assert getattr(grid, name)[i, j] == pytest.approx(getattr(rep, name), abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_alpha_near_zero_gives_the_limit(self, eps):
        # as alpha -> 0 both of the eavesdropper's blocks tend to the identity, so the capacity
        # tends to I(mixed) - eps log2 m, mixed = (1 - eps) I + eps (I + p_wrong) / 2; the
        # interval's lower end is within 1e-10 of it, and narrower symbols are refused
        mixed = (1.0 - eps) * np.eye(4) + eps * 0.5 * (np.eye(4) + p_wrong(ProtocolParams(4, 1.0, 0.5)))
        limit = max(mutual_info_single(mixed, np.full(4, 0.25)) - 2.0 * eps, 0.0)
        assert capacity(ProtocolParams(4, 1e-12, 0.5, eps)).capacity == pytest.approx(limit, rel=0.0,
                                                                                      abs=1e-10)
        assert np.all(np.abs(c_surface(4, eps, [1e-12, 1e-11], [0.5]).capacity - limit) <= 1e-10)
        for alpha in (1e-310, 5e-324):
            with pytest.raises(DomainError, match=r"alpha must lie in \[1e-12, 1e12\]"):
                capacity(ProtocolParams(4, alpha, 0.5, eps))
            with pytest.raises(DomainError, match=r"alpha must lie in \[1e-12, 1e12\]"):
                c_surface(4, eps, [alpha, 1e-12], [0.5, 0.7])

    def test_alpha_dependence_dwarfs_beta_dependence(self):
        grid = c_surface(4, 0.5, np.arange(0.1, 1.5001, 0.1), np.arange(0.5, 1.0001, 0.1))
        i, j = np.unravel_index(np.argmax(grid.capacity), grid.capacity.shape)
        var_alpha = grid.capacity[:, j].max() - grid.capacity[:, j].min()
        var_beta = grid.capacity[i, :].max() - grid.capacity[i, :].min()
        assert var_alpha > 0.5 * grid.capacity.max()
        assert var_beta < 0.05 * var_alpha


class TestOptimizePoint:
    def test_no_attack_pins_smallest_alpha(self):
        res = optimize_point(4, 0.0)
        assert res.alpha_opt == pytest.approx(0.05)
        assert res.c_opt >= 0.99 * 2.0

    def test_heavy_attack_plateau(self):
        res = optimize_point(4, 0.9)
        assert res.c_opt == 0.0
        assert res.alpha_opt == pytest.approx(0.05)  # smallest point of the plateau
        assert res.report.capacity == 0.0

    def test_refinement_never_below_grid(self):
        config = OptimizerConfig(coarse_step=0.1)
        res = optimize_point(4, 0.5, config)
        axis = 0.05 + 0.1 * np.arange(15)  # both boxes at step 0.1
        assert res.stage1_capacity >= c_surface(4, 0.5, axis, axis).capacity.max() - 1e-12

    def test_result_recomputes_consistently(self):
        from tfqkd.channel import ProtocolParams
        from tfqkd.infotheory import capacity as cap_fn

        res = optimize_point(4, 0.5)
        rep = cap_fn(ProtocolParams(4, res.alpha_opt, res.beta_opt, 0.5))
        assert res.c_opt == pytest.approx(rep.capacity, abs=1e-9)
        # the overlap-chosen beta may lose capacity, never gain it
        assert res.c_opt <= res.stage1_capacity + 1e-12

    def test_optimum_inside_box(self):
        config = OptimizerConfig(alpha_box=(0.2, 1.0), beta_box=(0.3, 1.2), coarse_step=0.1)
        res = optimize_point(4, 0.5, config)
        assert 0.2 <= res.alpha_opt <= 1.0
        assert 0.3 <= res.beta_opt <= 1.2

    def test_deterministic(self):
        a = optimize_point(4, 0.25)
        b = optimize_point(4, 0.25)
        # every field, the capacity report's too
        assert [getattr(a, f.name) for f in fields(a)] == [getattr(b, f.name) for f in fields(b)]

    def test_nested_scheme_keeps_capacity_optimum(self, monkeypatch):
        # every capacity the search evaluates, on grids and at single points
        seen = []
        real_surface, real_capacity = optimizer_module.c_surface, optimizer_module.capacity

        def surface(*args, **kwargs):
            grid = real_surface(*args, **kwargs)
            seen.extend(grid.capacity.ravel())
            return grid

        def point(*args, **kwargs):
            report = real_capacity(*args, **kwargs)
            seen.append(report.capacity)
            return report

        monkeypatch.setattr(optimizer_module, "c_surface", surface)
        monkeypatch.setattr(optimizer_module, "capacity", point)
        config = OptimizerConfig(scheme="nested", coarse_step=0.1)
        res = optimize_point(4, 0.5, config)
        assert len(seen) > 15 * 15
        assert res.c_opt >= max(seen) - 1e-12
        assert res.c_opt == pytest.approx(res.stage1_capacity, abs=1e-12)
        assert res.scheme == "nested"

    @pytest.mark.parametrize("m,eps,config", [
        (8, 0.0, OptimizerConfig()),
        (4, 0.5, OptimizerConfig(coarse_step=0.1)),
    ])
    def test_alpha_only_terms_once_per_row(self, monkeypatch, m, eps, config):
        # the lattice builders behind p_correct and the second stage
        calls = {"_correct_lattice": 0, "_second_lattice": 0, "_lattice_block": 0}

        def counting(name):
            real = getattr(channel_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        alphas = set()  # every alpha of a capacity row
        real_surface = optimizer_module.c_surface

        def surface(m, eps, alpha_axis, *args):
            alphas.update(np.atleast_1d(alpha_axis))
            return real_surface(m, eps, alpha_axis, *args)

        for name in calls:
            monkeypatch.setattr(channel_module, name, counting(name))
        monkeypatch.setattr(optimizer_module, "c_surface", surface)
        optimize_point(m, eps, config)
        assert 0 < calls["_correct_lattice"] <= len(alphas) + 1
        # dense blocks only for the attack-averaged channel, one per chunk of alphas
        assert calls["_lattice_block"] <= (calls["_correct_lattice"] if eps else 0)
        if eps == 0.0:
            assert calls["_second_lattice"] == 0

    def test_coarse_grid_queries_spectrum_once_per_beta_column(self, monkeypatch):
        # every beta column's table is queried once, at all 30 alphas, in one
        # stacked query per group of betas (4 at m = 16), not once per point
        from tfqkd import pulse_math

        queries, surfaces = [], []
        real_query, real_surface = pulse_math._stacked_cumulative, optimizer_module.c_surface

        def stacked(tables, w):
            queries.append((tuple(t.beta for t in tables), w.shape))
            return real_query(tables, w)

        def surface(*args, **kwargs):
            before = len(queries)
            grid = real_surface(*args, **kwargs)
            surfaces.append((grid.alpha_axis.size, grid.beta_axis, queries[before:]))
            return grid

        monkeypatch.setattr(pulse_math, "_stacked_cumulative", stacked)
        monkeypatch.setattr(optimizer_module, "c_surface", surface)
        optimize_point(16, 0.5)
        n_alphas, beta_axis, coarse = surfaces[0]
        assert (n_alphas, beta_axis.size) == (30, 30)
        assert len(coarse) == 8
        assert [b for betas, _ in coarse for b in betas] == list(beta_axis)
        assert all(shape == (len(betas), 30, 16) for betas, shape in coarse)

    def test_cold_run_builds_two_groups_and_indexes_each_group_once(self, monkeypatch):
        # cold tables: the coarse grid builds the 30 tables of its beta axis
        # in one call, the report its one table in another; the memoised
        # stacked index misses once per group of tables (8 coarse-grid
        # tiles, the refined rows' 30 tables, the report's table), so every
        # refined row after the first reuses it
        from collections import OrderedDict
        from functools import lru_cache

        from tfqkd import pulse_math

        builds, rows = [], []
        real_build, real_surface = pulse_math._build_tables, optimizer_module.c_surface

        def build(cuts, *args):
            builds.append(len(cuts))
            return real_build(cuts, *args)

        def surface(m, eps, alphas, betas, *args):
            rows.append(len(alphas))
            return real_surface(m, eps, alphas, betas, *args)

        index = lru_cache(maxsize=64)(pulse_math._stacked_index.__wrapped__)
        monkeypatch.setattr(pulse_math, "_TABLES", OrderedDict())
        monkeypatch.setattr(pulse_math, "_build_tables", build)
        monkeypatch.setattr(pulse_math, "_stacked_index", index)
        monkeypatch.setattr(optimizer_module, "c_surface", surface)
        optimize_point(16, 0.5)
        assert builds == [30, 1]
        assert rows[0] == 30 and rows.count(1) == len(rows) - 1 >= 5
        assert (index.cache_info().misses, index.cache_info().hits) == (10, len(rows) - 2)

    def test_rejects_bad_config(self):
        with pytest.raises(DomainError):
            OptimizerConfig(scheme="random")
        with pytest.raises(DomainError, match="u variant"):
            OptimizerConfig(u_variant="bogus")
        with pytest.raises(DomainError):
            OptimizerConfig(alpha_box=(1.0, 0.5))

    def test_rejects_non_positive_accuracy(self):
        for accuracy in (0.0, -1e-8, float("nan")):
            with pytest.raises(DomainError):
                OptimizerConfig(accuracy=accuracy)

    def test_rejects_infinite_accuracy(self):
        # an infinite tolerance would let every clip pass silently
        with pytest.raises(DomainError, match="finite"):
            OptimizerConfig(accuracy=math.inf)

    @pytest.mark.parametrize("kwargs", [
        dict(tol=0.0), dict(tol=-1.0), dict(tol=math.nan), dict(tol=math.inf),
        dict(coarse_step=0.0), dict(coarse_step=-0.1), dict(coarse_step=math.nan),
        dict(coarse_step=math.inf), dict(alpha_box=(0.05, math.inf)),
        dict(beta_box=(0.05, math.nan)), dict(beta_box=(0.05, math.inf)),
        dict(beta_box=(0.9, 0.2)),
    ])
    def test_rejects_bad_numeric_settings(self, kwargs):
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            OptimizerConfig(**kwargs)


class TestSweep:
    def test_ordering(self):
        config = OptimizerConfig(coarse_step=0.25)
        entries = sweep([2, 4], [0.0, 0.9], config)
        assert [(e.m, e.epsilon) for e in entries] == [(2, 0.0), (2, 0.9), (4, 0.0), (4, 0.9)]
        assert all(e.status == "ok" for e in entries)

    def test_failures_recorded_but_sweep_continues(self, monkeypatch):
        real = optimizer_module.optimize_point

        def flaky(m, epsilon, config=OptimizerConfig()):
            if m == 4:
                raise NumericFailure("forced failure")
            return real(m, epsilon, config)

        monkeypatch.setattr(optimizer_module, "optimize_point", flaky)
        entries = sweep([2, 4], [0.0], OptimizerConfig(coarse_step=0.25))
        assert entries[0].status == "ok"
        assert entries[1].status == "failed"
        assert "forced failure" in entries[1].error

    def test_impossible_m_is_a_failed_entry(self):
        # m reaches ProtocolParams unchanged: a fraction is not truncated to
        # an int and None is not a bare TypeError
        entries = sweep([2.5, None, 1], [0.0], OptimizerConfig(coarse_step=0.25))
        assert [(e.m, e.epsilon, e.status) for e in entries] == [
            (2.5, 0.0, "failed"), (None, 0.0, "failed"), (1, 0.0, "failed")]
        assert all("m must be an integer" in e.error for e in entries)

    def test_rejects_empty_lists(self):
        with pytest.raises(DomainError):
            sweep([], [0.1])
