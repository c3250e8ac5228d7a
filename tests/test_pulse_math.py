import sys
import time
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf, factorial

from tfqkd import pulse_math
from tfqkd.channel import ProtocolParams, p_second_correct
from tfqkd.errors import DomainError, NumericFailure
from tfqkd.pulse_math import (
    DEFAULT_ACCURACY,
    TruncatedSpectrum,
    build_spectrum,
    cached_spectrum,
    density_bin_mass,
    truncated_pulse_fourier,
    _filter_cuts,
    _integrate_adaptive,
    _summed_density,
    _phi_derivatives,
    _tail_coefficients,
    _tail_mass,
)

ERF1 = 0.8427007929497148


def _untruncated_spectrum():
    """The table of one window over the whole line: the spectrum ``exp(-w**2)/sqrt(pi)``."""
    return pulse_math._build_tables(np.array([[-np.inf, np.inf]]), 2, [0.7], DEFAULT_ACCURACY)[0]


def _spectral_density(x_lo, x_hi, w):
    """Reference spectral density of one window, ``|F(w)|**2 / sqrt(pi)``."""
    f = np.asarray(truncated_pulse_fourier(x_lo, x_hi, w))
    return (f.real * f.real + f.imag * f.imag) / np.sqrt(np.pi)


def _gaussian_density(z, width, center=0.0):
    """Reference unit-mass Gaussian density with 1/e half-width ``width``."""
    u = (z - center) / width
    return np.exp(-u * u) / (width * np.sqrt(np.pi))


class TestDensityBinMass:
    def test_against_quadrature(self):
        # independent oracle: adaptive quadrature of the density itself
        expected, _ = quad(_gaussian_density, -1.0, 0.0, args=(0.5, -0.5))
        assert density_bin_mass(0.5, -0.5, -1.0, 0.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(ERF1, abs=1e-12)

    def test_half_line_by_symmetry(self):
        assert density_bin_mass(1.0, 0.0, -np.inf, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_total_mass(self):
        assert density_bin_mass(1.0, 0.0, -np.inf, np.inf) == pytest.approx(1.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            density_bin_mass(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            density_bin_mass(-0.3, 0.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            density_bin_mass(1.0, 0.0, 1.0, -1.0)

    @pytest.mark.parametrize("width,center,lo,hi", [
        (1.0, 0.0, np.nan, 1.0), (1.0, 0.0, 0.0, np.nan), (np.inf, 0.0, 0.0, 1.0),
        (1.0, np.nan, 0.0, 1.0), (1.0, np.inf, -np.inf, np.inf),
    ], ids=["nan-lo", "nan-hi", "inf-width", "nan-center", "inf-center"])
    def test_rejects_nan_bounds_and_infinite_width_or_center(self, width, center, lo, hi):
        # NaN fails every comparison, and an infinite width or center leaves no density
        with pytest.raises(DomainError):
            density_bin_mass(width, center, lo, hi)

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.floats(0.05, 20.0),
        center=st.floats(-5.0, 5.0),
        m=st.integers(2, 12),
    )
    def test_partition_sums_to_one(self, width, center, m):
        # bins tile the whole axis, so masses must sum to unity exactly
        idx = np.arange(1, m + 1)
        lower = idx - 0.5 * m - 1.0
        lower[0] = -np.inf
        upper = idx - 0.5 * m
        upper[-1] = np.inf
        total = sum(density_bin_mass(width, center, lo, hi) for lo, hi in zip(lower, upper))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_variance_is_half_width_squared(self):
        # the density is normal with std width/sqrt(2); the Monte Carlo
        # sampler relies on this moment
        second, _ = quad(lambda z: z * z * _gaussian_density(z, 1.7), -20.0, 20.0)
        assert second == pytest.approx(1.7**2 / 2.0, rel=1e-10)


class TestTruncatedPulseFourier:
    def test_total_mass_at_zero(self):
        assert truncated_pulse_fourier(-np.inf, np.inf, 0.0) == pytest.approx(1.0 + 0.0j)

    def test_characteristic_function(self):
        # oracle: quadrature of phi(x) * cos(wx)
        re, _ = quad(lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi) * np.cos(x), -10, 10)
        got = truncated_pulse_fourier(-np.inf, np.inf, 1.0)
        assert got == pytest.approx(re + 0.0j, abs=1e-12)
        assert got == pytest.approx(np.exp(-0.5) + 0.0j, abs=1e-12)

    def test_half_mass(self):
        assert truncated_pulse_fourier(0.0, np.inf, 0.0) == pytest.approx(0.5 + 0.0j)

    def test_against_quadrature_finite_window(self):
        for w in (0.3, 2.0, 7.7):
            re, _ = quad(lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi) * np.cos(w * x), -0.4, 1.1)
            im, _ = quad(lambda x: -np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi) * np.sin(w * x), -0.4, 1.1)
            assert truncated_pulse_fourier(-0.4, 1.1, w) == pytest.approx(re + 1j * im, abs=1e-12)

    def test_conjugate_symmetry(self):
        ws = np.array([0.1, 1.0, 11.0, 123.0, 1280.0])
        f_pos = truncated_pulse_fourier(-0.5, 0.8, ws)
        f_neg = truncated_pulse_fourier(-0.5, 0.8, -ws)
        assert np.allclose(f_neg, np.conj(f_pos), rtol=0.0, atol=1e-12)

    def test_bounded_and_finite_at_large_w(self):
        f = truncated_pulse_fourier(-0.5, 0.8, np.array([50.0, 500.0, 5000.0]))
        assert np.all(np.isfinite(f.real)) and np.all(np.isfinite(f.imag))
        assert np.all(np.abs(f) <= 1.0)

    def test_rejects_inverted_window(self):
        with pytest.raises(DomainError):
            truncated_pulse_fourier(1.0, -1.0, 0.0)

    @pytest.mark.parametrize("x_lo,x_hi", [(np.nan, 1.0), (-1.0, np.nan)], ids=["lo", "hi"])
    def test_rejects_nan_bound(self, x_lo, x_hi):
        with pytest.raises(DomainError):
            truncated_pulse_fourier(x_lo, x_hi, 0.0)


class TestBuildSpectrum:
    def test_half_line_windows_carry_half_mass(self):
        for f in (1, 2):
            spec = build_spectrum(f, 2, 0.9)
            assert spec.total_mass == pytest.approx(0.5, abs=1e-12)
            assert spec.total_mass_numeric == pytest.approx(0.5, abs=1e-8)

    def test_interior_filter_total_mass(self):
        # time-filter pass probability of filter 2 for m=4, beta=0.7
        spec = build_spectrum(2, 4, 0.7)
        expected = density_bin_mass(0.7 * 4 / 2.0, 0.0, -1.0, 0.0)
        assert expected == pytest.approx(0.34378889437865334, abs=1e-12)
        assert spec.total_mass == pytest.approx(expected, abs=1e-12)
        assert spec.total_mass_numeric == pytest.approx(expected, abs=1e-8)

    def test_untruncated_window_hook(self):
        spec = _untruncated_spectrum()
        assert spec.total_mass == pytest.approx(1.0, abs=1e-14)
        w = np.linspace(-4.0, 4.0, 41)
        assert np.allclose(spec.density(w), np.exp(-w * w) / np.sqrt(np.pi), atol=1e-12)
        assert spec.bin_mass(-1.0, 1.0) == pytest.approx(ERF1, abs=1e-9)

    def test_cumulative_is_nondecreasing(self):
        spec = build_spectrum(2, 4, 0.7)
        w = np.linspace(-40.0, 40.0, 400)
        g = spec.cumulative(w)
        assert np.all(np.diff(g) >= -1e-12)
        assert spec.cumulative(-np.inf) == 0.0
        assert spec.cumulative(np.inf) == pytest.approx(spec.total_mass)

    def test_cumulative_against_quadrature(self):
        spec = build_spectrum(2, 4, 0.7)
        for w_lo, w_hi in [(-2.0, 1.0), (0.25, 7.5), (-18.0, -3.0)]:
            val = 0.0
            for seg_lo, seg_hi in zip(np.linspace(w_lo, w_hi, 30)[:-1], np.linspace(w_lo, w_hi, 30)[1:]):
                val += quad(lambda w: spec.density(w), seg_lo, seg_hi, limit=200)[0]
            assert spec.bin_mass(w_lo, w_hi) == pytest.approx(val, abs=1e-8)

    def test_beyond_span_queries_stay_accurate(self):
        # the table ends at |w| = 30; past it the tail series must agree with
        # the table value at the edge plus quadrature out to w
        spec = build_spectrum(2, 4, 0.7)
        for w in (35.0, 49.5, 66.0, -41.0):
            edge = np.copysign(30.0, w)
            lo, hi = sorted((edge, w))
            pieces = np.linspace(lo, hi, 20)
            mass = sum(quad(spec.density, a, b, epsabs=1e-15, limit=200)[0]
                       for a, b in zip(pieces[:-1], pieces[1:]))
            expected = spec.cumulative(edge) + np.sign(w) * mass
            assert spec.cumulative(w) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    @pytest.mark.parametrize("beta", [0.3, 0.7, 1.2])
    def test_mass_conservation(self, m, beta):
        # total spectral mass must reproduce the time-filter pass probability
        for f in range(1, m + 1):
            spec = build_spectrum(f, m, beta)
            lo = -np.inf if f == 1 else f - 0.5 * m - 1.0
            hi = np.inf if f == m else f - 0.5 * m
            expected = density_bin_mass(0.5 * beta * m, 0.0, lo, hi)
            assert spec.total_mass_numeric == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("m,beta", [(4, 0.7), (8, 0.3), (5, 1.2)])
    def test_mirror_filters_have_mirrored_spectra(self, m, beta):
        w = np.linspace(-12.0, 12.0, 241)
        for f in range(1, m + 1):
            g_f = _spectral_density(*_window(f, m, beta), w)
            g_mirror = _spectral_density(*_window(m + 1 - f, m, beta), -w)
            assert np.allclose(g_f, g_mirror, rtol=0.0, atol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_spectrum(0, 4, 0.7)
        with pytest.raises(DomainError):
            build_spectrum(5, 4, 0.7)
        with pytest.raises(DomainError):
            build_spectrum(1, 4, -0.1)

    @pytest.mark.parametrize("f,m,beta", [
        (None, 2.5, 0.7), (None, np.nan, 0.7), (None, 1, 0.7), (1.5, 4, 0.7),
        (1, 4, np.inf), (1, 4, np.nan),
    ], ids=["m-fraction", "m-nan", "m-1", "f-fraction", "beta-inf", "beta-nan"])
    def test_rejects_impossible_arguments(self, f, m, beta):
        with pytest.raises(DomainError):
            build_spectrum(f, m, beta)

    @pytest.mark.parametrize("beta", [1e-310, 1e-300])
    def test_beta_too_small_for_the_cuts_raises(self, beta):
        # below the interval: 1e-310 overflowed the cuts, 1e-300 the Gaussian derivatives at them
        start = time.perf_counter()
        with pytest.raises(DomainError, match="beta \\* m"):
            build_spectrum(None, 4, beta)
        with pytest.raises(DomainError, match="beta \\* m"):
            pulse_math.summed_spectra(4, [beta], DEFAULT_ACCURACY)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m,beta", [
        (4, np.nan), (4, -0.7), (4, 0.0), (4, np.inf), (4, 1e308), (16, 4e307),
        (3, sys.float_info.max / 3),
    ], ids=["nan", "negative", "zero", "inf", "overflow-m4", "overflow-m16", "overflow-by-rounding"])
    def test_filter_bank_rejects_every_impossible_beta(self, m, beta):
        # summed_spectra checks no beta of its own: the filter bank rejects a NaN,
        # non-positive, infinite or overflowing beta * m (max / 3 rounds up, so 3
        # times it overflows) as outside the interval, with no overflow warning
        with pytest.raises(DomainError):
            build_spectrum(None, m, beta)
        with pytest.raises(DomainError, match=r"beta \* m must lie in \[1e-12, 1e12\]"):
            pulse_math.summed_spectra(m, [0.7, beta], DEFAULT_ACCURACY)

    def test_long_windows_are_seeded_as_untruncated(self):
        # at m = 16, beta = 1e-6 the interior windows are 1.25e5 long; seeded at
        # a quarter of their ripple period the table needed ~1e6 panels
        start = time.perf_counter()
        spec = build_spectrum(None, 16, 1e-6)
        assert time.perf_counter() - start < 1.0
        assert spec.n_panels == build_spectrum(1, 2, 0.7).n_panels  # the untruncated seeds
        assert np.isfinite(spec._coef).all() and np.isfinite(spec.cumulative([0.5, 45.0])).all()
        assert spec.total_mass_numeric == pytest.approx(spec.total_mass, abs=1e-8)


class TestPolynomialQueries:
    """The table answers queries by panel lookup plus a polynomial."""

    @staticmethod
    def _quad_cumulative(spec, cuts, w):
        # independent reference: adaptive quadrature of g from w = -30, plus
        # the tail series below it (itself checked against quadrature in
        # TestTailSeries); the mass below -w equals the mass above w
        below, left = _tail_mass(_tail_coefficients(cuts), np.array([abs(w), 30.0]))
        if w <= -30.0:
            return below
        pieces = np.linspace(-30.0, w, int(np.ceil((w + 30.0) / 0.5)) + 1)
        return left + sum(
            quad(spec.density, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
            for a, b in zip(pieces[:-1], pieces[1:])
        )

    @pytest.mark.parametrize("m", [4, 16, 32])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.2])
    def test_cumulative_against_quadrature(self, m, beta):
        rng = np.random.default_rng(m * 100 + int(beta * 10))
        ws = np.concatenate([rng.uniform(-30.0, 30.0, 3), [-31.5, -29.5, 29.5, 31.5, 40.0]])
        for f in (1, m // 2, m):
            spec = build_spectrum(f, m, beta)
            got = spec.cumulative(ws)
            for w, g in zip(ws, got):
                assert g == pytest.approx(
                    self._quad_cumulative(spec, _filter_cuts(m, beta)[f - 1:f + 1], w), abs=1e-9)

    @pytest.mark.parametrize("f", [None, 2, 3])
    def test_windows_longer_than_17_5_against_quadrature(self, f):
        # beta * m = 0.08: the interior windows are 25 long, seeded as untruncated
        m, beta = 4, 0.02
        spec = build_spectrum(f, m, beta)
        cuts = _filter_cuts(m, beta) if f is None else _filter_cuts(m, beta)[f - 1:f + 1]
        for w in (-12.0, -0.3, 0.7, 4.5, 29.5, 31.5):
            assert spec.cumulative(w) == pytest.approx(self._quad_cumulative(spec, cuts, w), abs=1e-9)

    @pytest.mark.parametrize("m,beta", [(4, 0.7), (5, 1.2), (16, 0.3), (32, 0.5)])
    def test_mirrored_filter_matches_independent_build(self, m, beta):
        # filters f and m+1-f have mirrored windows, so their independently
        # built tables satisfy G_{m+1-f}(w) = total - G_f(-w); this is the
        # evenness H(w) + H(-w) = 1 of the filter-summed table.  At w = 0 both
        # sides read a panel polynomial at its left end, whose rounding (up to
        # ~1e-14) adds up there instead of cancelling, so w = 0 keeps 1e-12
        w = np.concatenate([np.linspace(-45.0, 45.0, 181), [-30.0, 30.0]])
        off_zero = w != 0.0
        for f in range(1, (m + 1) // 2 + 1):
            spec = build_spectrum(f, m, beta)
            mirror = build_spectrum(m + 1 - f, m, beta)
            lo, hi = _filter_cuts(m, beta)[f - 1:f + 1]
            assert tuple(_filter_cuts(m, beta)[m - f:m + 2 - f]) == (-hi, -lo)
            assert mirror.total_mass == pytest.approx(spec.total_mass, abs=1e-15)
            got, want = mirror.cumulative(w), spec.total_mass - spec.cumulative(-w)
            assert np.allclose(got[off_zero], want[off_zero], rtol=0.0, atol=1e-15)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5, 16, 32])
    @pytest.mark.parametrize("beta", [0.1, 0.7, 1.2])
    def test_table_is_even(self, m, beta):
        # the table covers w >= 0 and reads G(-w) as total - G(w), so the
        # evenness holds to rounding, in the panels and in the tails
        spec = cached_spectrum(m, beta, 1e-8)
        w = np.concatenate([np.geomspace(0.01, 150.0, 301), [29.999, 30.0, 30.001]])
        assert np.abs(spec.cumulative(w) + spec.cumulative(-w) - spec.total_mass).max() <= 1e-15

    @pytest.mark.parametrize("m", [2, 3, 5, 16, 32])
    @pytest.mark.parametrize("beta", [0.1, 0.7, 1.2])
    def test_summed_matches_sum_of_filters(self, m, beta):
        w = np.concatenate([np.linspace(-29.0, 29.0, 59), [-30.5, -30.0, 30.0, 30.5, -75.0, 120.0]])
        summed = cached_spectrum(m, beta, 1e-8)
        assert np.array_equal(summed.cuts, _filter_cuts(m, beta))
        per_filter = [build_spectrum(f, m, beta) for f in range(1, m + 1)]
        assert all(np.array_equal(s.cuts, summed.cuts[f - 1:f + 1]) for f, s in enumerate(per_filter, 1))
        assert summed.total_mass == pytest.approx(1.0, abs=1e-15)
        assert summed.total_mass == pytest.approx(sum(s.total_mass for s in per_filter), abs=1e-15)
        expected = sum(s.cumulative(w) for s in per_filter)
        assert np.allclose(summed.cumulative(w), expected, rtol=0.0, atol=1e-9)
        assert np.allclose(summed.density(w), sum(s.density(w) for s in per_filter),
                           rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("beta,m", [(beta, m) for beta in (0.1, 0.3, 0.7, 1.2)
                                        for m in (2, 3, 4, 5, 8, 16, 32)] + [(0.7, 256)])
    def test_shared_edges_leave_table_bitwise_unchanged(self, m, beta, monkeypatch):
        # neighbouring filters share a cut, and one kernel call evaluates all
        # m + 1 cuts; the density and the table built from it equal the
        # per-window sum bit for bit (at m = 256 the kernel's arrays are large
        # enough for numpy to reuse temporaries)
        cuts = _filter_cuts(m, beta)
        w = np.linspace(-40.0, 40.0, 801)
        per_window = lambda cuts, w: sum(_spectral_density(lo, hi, w)
                                         for lo, hi in zip(cuts[:-1], cuts[1:]))
        reference_density = per_window(cuts, w)
        calls = []
        evaluate = pulse_math._erf_exp_half

        def counting(cuts, w):
            calls.append(cuts)
            return evaluate(cuts, w)

        with monkeypatch.context() as patch:
            patch.setattr(pulse_math, "_erf_exp_half", counting)
            density = _summed_density(cuts, w)
        assert np.array_equal(density, reference_density)
        assert len(calls) == 1 and np.array_equal(calls[0], cuts)
        shared = build_spectrum(None, m, beta)
        monkeypatch.setattr(pulse_math, "_summed_density", per_window)
        reference = build_spectrum(None, m, beta)
        assert np.array_equal(shared._edges, reference._edges)
        assert np.array_equal(shared._coef, reference._coef)
        assert all(np.array_equal(a, b) for a, b in zip(shared._tail, reference._tail))
        assert (shared.total_mass, shared.total_mass_numeric, shared.error_bound) == (
            reference.total_mass, reference.total_mass_numeric, reference.error_bound)

    def test_excursion_beyond_accuracy_raises(self):
        # the untruncated spectrum has G = 1 far above the core, and G(-w) is
        # read as 1 - G(w); a table raised by a shift puts G(20) above 1 and
        # G(-20) below 0 by the shift
        spec = _untruncated_spectrum()
        w = np.array([-20.0, 20.0])
        assert np.allclose(spec.cumulative(w), [0.0, 1.0], rtol=0.0, atol=1e-15)
        coef = spec._coef.copy()
        coef[:, 0] += 1e-6
        for side in (-20.0, 20.0):
            with pytest.raises(NumericFailure) as info:
                replace(spec, _coef=coef).cumulative(side)
            assert info.value.achieved == pytest.approx(1e-6, rel=1e-6)
            assert info.value.target == spec.accuracy
        coef = spec._coef.copy()
        coef[:, 0] += 1e-10  # within accuracy: clipped on both sides, not raised
        shifted = replace(spec, _coef=coef)
        assert spec.cumulative(20.0) + 1e-10 > 1.0
        assert np.array_equal(shifted.cumulative(w), [0.0, 1.0])

    def test_error_fields(self):
        # the build refines the w >= 0 half until the summed K15-G7 gauge
        # meets accuracy / 4
        spec = build_spectrum(2, 4, 0.7)
        assert spec.n_panels >= 1
        assert 0.0 <= spec.error_bound <= 0.25 * spec.accuracy
        assert abs(spec.total_mass_numeric - spec.total_mass) <= spec.accuracy

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(2, 24),
        alpha=st.floats(0.1, 2.0),
        beta=st.floats(0.1, 2.0),
        data=st.data(),
    )
    def test_cumulative_monotone_and_columns_conserve_mass(self, m, alpha, beta, data):
        # the filter-summed table: monotone, even (H(w) + H(-w) = 1) and its
        # lattice block column stochastic
        spec = cached_spectrum(m, beta, 1e-8)
        w = np.sort(data.draw(st.lists(st.floats(-80.0, 80.0), min_size=2, max_size=40)))
        assert np.all(np.diff(spec.cumulative(w)) >= -1e-12)
        assert np.all(np.abs(spec.cumulative(w) + spec.cumulative(-w) - 1.0) <= spec.accuracy)
        sums = p_second_correct(ProtocolParams(m, alpha, beta)).sum(axis=0)
        assert np.allclose(sums, 1.0, rtol=0.0, atol=1e-8)


class TestStackedQuery:
    """One query of several tables equals one query per table."""

    POINTS = np.array([-np.inf, -120.0, -44.0, -30.5, -30.0, -29.999, -12.5, -1e-3, 0.0, 1e-3,
                       7.25, 29.999, 30.0, 30.5, 44.0, 120.0, np.inf])

    @pytest.mark.parametrize("m", [2, 3, 16, 256])
    def test_matches_per_table_cumulative(self, m):
        # m = 2 has a one-column tail series (no cross lag); each table gets
        # its own order of the points: negative, 0, inside 30, tail, +-inf
        tables = [cached_spectrum(m, beta, 1e-8) for beta in (0.3, 0.7, 1.2)]
        rng = np.random.default_rng(m)
        w = np.stack([rng.permutation(self.POINTS) for _ in tables])
        got = pulse_math._stacked_cumulative(tables, w)
        expected = np.stack([table.cumulative(row) for table, row in zip(tables, w)])
        assert np.abs(got - expected).max() <= 1e-15
        assert np.array_equal(got[w == -np.inf], np.zeros(len(tables)))
        assert np.array_equal(got[w == np.inf], [table.total_mass for table in tables])

    def test_each_table_keeps_its_own_total(self):
        # single filters of one bank carry different masses; each is clipped
        # to its own [0, total_mass]
        tables = [build_spectrum(f, 5, 0.7) for f in (2, 3)]
        assert tables[0].total_mass < tables[1].total_mass
        w = np.broadcast_to(self.POINTS, (2, self.POINTS.size))
        got = pulse_math._stacked_cumulative(tables, w)
        assert np.abs(got - [table.cumulative(self.POINTS) for table in tables]).max() <= 1e-15
        assert list(got[:, -1]) == [table.total_mass for table in tables]

    def test_values_do_not_depend_on_the_batch(self):
        # the tail series is summed point by point, so a point's value is the
        # same alone, in a batch and beside other tables
        spec = cached_spectrum(16, 0.7, 1e-8)
        w = np.concatenate([np.linspace(31.0, 300.0, 8), -np.geomspace(30.5, 500.0, 13)])
        alone = np.array([spec.cumulative(x) for x in w])
        assert np.array_equal(spec.cumulative(w), alone)
        other = cached_spectrum(16, 1.1, 1e-8)
        stacked = pulse_math._stacked_cumulative([other, spec], np.stack([w[::-1], w]))
        assert np.array_equal(stacked[1], alone)

    def test_density_does_not_depend_on_the_batch(self):
        # the windows are added in one order for a single point as for many
        spec = cached_spectrum(32, 0.7, 1e-8)
        w = np.linspace(-20.0, 20.0, 401)
        batch = spec.density(w)
        assert np.array_equal([spec.density(x) for x in w], batch)
        assert np.array_equal([spec.density(w[i:i + 1])[0] for i in range(w.size)], batch)
        assert np.array_equal(spec.density(w[::2]), batch[::2])


class TestSpectrumBinMass:
    def test_full_line_gives_total(self):
        spec = build_spectrum(3, 4, 0.7)
        assert spec.bin_mass(-np.inf, np.inf) == pytest.approx(spec.total_mass)

    def test_empty_interval(self):
        spec = build_spectrum(3, 4, 0.7)
        assert spec.bin_mass(1.25, 1.25) == 0.0

    def test_remainder_trick_consistency(self):
        # the two unbounded halves must complement each other through the total
        spec = build_spectrum(2, 4, 0.7)
        for w in (-3.0, 0.0, 2.5, 40.0):
            low = spec.bin_mass(-np.inf, w)
            high = spec.bin_mass(w, np.inf)
            assert low + high == pytest.approx(spec.total_mass, abs=1e-9)

    def test_rejects_inverted_interval(self):
        spec = build_spectrum(2, 4, 0.7)
        with pytest.raises(DomainError):
            spec.bin_mass(2.0, 1.0)

    def test_nan_bound_is_domain_error(self):
        spec = cached_spectrum(4, 0.7, 1e-8)
        with pytest.raises(DomainError):
            spec.cumulative(np.nan)
        with pytest.raises(DomainError):
            spec.cumulative(np.array([0.0, np.nan]))
        with pytest.raises(DomainError):
            spec.bin_mass(np.nan, 1.0)

    def test_array_call_equals_scalar_calls(self):
        spec = cached_spectrum(4, 0.7, 1e-8)
        # repeated bins, lo == hi and unbounded sides, all inside the table
        w_lo = np.array([-1.0, -1.0, 0.5, -np.inf, 2.0, -np.inf, 3.0, np.inf, -np.inf])
        w_hi = np.array([2.0, 2.0, 0.5, -3.0, np.inf, np.inf, 3.0, np.inf, -np.inf])
        masses = spec.bin_mass(w_lo, w_hi)
        assert masses.shape == w_lo.shape
        expected = [spec.bin_mass(lo, hi) for lo, hi in zip(w_lo, w_hi)]
        assert all(isinstance(x, float) for x in expected)
        assert np.array_equal(masses, expected)
        assert np.array_equal(spec.bin_mass(w_lo.reshape(3, 3), w_hi.reshape(3, 3)),
                              masses.reshape(3, 3))

    def test_array_call_in_the_tails(self):
        # beyond |w| = 30 the tail series is summed point by point, so the
        # batch and the scalar calls agree bit for bit there too
        spec = cached_spectrum(16, 0.7, 1e-8)
        w_lo = np.array([-58.0, -50.0, -38.0, 34.0, 40.0, 40.0])
        w_hi = np.array([-54.0, -42.0, -34.0, 38.0, 50.0, np.inf])
        expected = [spec.bin_mass(lo, hi) for lo, hi in zip(w_lo, w_hi)]
        assert np.array_equal(spec.bin_mass(w_lo, w_hi), expected)

    def test_array_call_window_outside_support(self):
        spec = build_spectrum(4, 4, 1e-4)
        masses = spec.bin_mass(np.array([-np.inf, -1.0, 3.0]), np.array([-1.0, 2.5, np.inf]))
        assert np.array_equal(masses, np.zeros(3))

    def test_array_call_rejects_one_inverted_pair(self):
        spec = build_spectrum(2, 4, 0.7)
        with pytest.raises(DomainError):
            spec.bin_mass(np.array([0.0, 2.0, -1.0]), np.array([1.0, 1.0, 0.0]))

    def test_non_monotone_cumulative_raises(self, monkeypatch):
        spec = build_spectrum(2, 4, 0.7)
        # G falling by half the tolerance is clipped to 0, by twice it raises
        monkeypatch.setattr(TruncatedSpectrum, "cumulative", lambda self, w: -0.5 * spec.accuracy * w)
        assert spec.bin_mass(1.0, 2.0) == 0.0
        monkeypatch.setattr(TruncatedSpectrum, "cumulative", lambda self, w: -2.0 * spec.accuracy * w)
        with pytest.raises(NumericFailure):
            spec.bin_mass(1.0, 2.0)


class TestWorkBudget:
    def test_exhausted_budget_reports_achieved_error(self):
        ripple = lambda w: 1.0 + np.sin(400.0 * np.asarray(w)) ** 2
        with pytest.raises(NumericFailure) as info:
            _integrate_adaptive(ripple, np.array([0.0, 50.0]), tol_total=1e-13, max_rounds=2)
        assert info.value.achieved is not None
        assert info.value.achieved > info.value.target

    def test_non_finite_integrand_raises(self):
        # NaN never compares above the error target, so it must stop the
        # refinement by itself
        with pytest.raises(NumericFailure):
            _integrate_adaptive(lambda w: np.full(np.shape(w), np.nan), np.array([0.0, 1.0]),
                                1e-10, max_rounds=3)


class TestTailSeries:
    def test_tail_matches_quadrature(self):
        for (x_lo, x_hi) in [(-0.5, 0.8), (-np.inf, 0.0), (-0.714, 0.0)]:
            for w_from in (30.0, 60.0):
                mid = 0.0
                edges = np.linspace(w_from, 2 * w_from, 40)
                for lo, hi in zip(edges[:-1], edges[1:]):
                    mid += quad(lambda w: _spectral_density(x_lo, x_hi, w), lo, hi,
                                limit=200, epsabs=1e-14)[0]
                series = _tail_coefficients(np.array([x_lo, x_hi]))
                near, far = _tail_mass(series, np.array([w_from, 2 * w_from]))
                assert near == pytest.approx(mid + far, abs=5e-9)

    @staticmethod
    def _per_cut_series(cuts):
        # reference: one convolution per repeated cut and per pair of cuts
        c = _phi_derivatives(cuts[np.isfinite(cuts)], 10) * (-1j) ** np.arange(1, 11)
        bounded = np.convolve(np.ones(cuts.size - 1, dtype=int), [1, 1])[np.isfinite(cuts)]
        lag0 = sum(np.convolve(ck, np.conj(ck)).real for ck in np.repeat(c, bounded, axis=0))
        cross = sum(2.0 * np.convolve(lo, np.conj(hi)) for lo, hi in zip(c[:-1], -c[1:]))
        return lag0, cross

    @pytest.mark.parametrize("m", [2, 3, 16, 17, 256])
    @pytest.mark.parametrize("beta", [0.1, 0.7, 1.2])
    def test_matrix_products_match_per_cut_convolutions(self, m, beta):
        cuts = _filter_cuts(m, beta)
        lag0, cross = self._per_cut_series(cuts)
        series = _tail_coefficients(cuts)
        n = np.arange(2, 21)
        assert np.allclose(series[0][:, 0], lag0 / (n - 1) / np.sqrt(np.pi), rtol=1e-14, atol=0.0)
        if m > 2:
            lag = cuts[2] - cuts[1]
            scaled = cross / np.sqrt(np.pi) / factorial(n - 1)
            assert series[1] == pytest.approx(np.sum(scaled * (1j * lag) ** (n - 1)), rel=1e-13)
            # the recurrence unrolled term by term: (j-2)! * sum_{n >= j} scaled_n * (i lag)**(n-j)
            unrolled = np.array([factorial(j - 2) * np.sum(scaled[k:] * (1j * lag) ** (n[k:] - j))
                                 for k, j in enumerate(n)])
            assert np.allclose(series[0][:, 1] + 1j * series[0][:, 2], unrolled,
                               rtol=1e-13, atol=0.0)

    def test_cross_terms_need_one_lag(self):
        # summed cross terms share one I_1, so windows of different lengths
        # cannot be summed; half-line windows have no cross terms, so their
        # series has the same three columns with the cross ones zero
        with pytest.raises(DomainError):
            _tail_coefficients(np.array([-1.0, 0.0, 2.0]))
        for cuts in ([-np.inf, 0.0, np.inf], [-np.inf, 0.7], [-0.7, np.inf]):
            coef, first, lag = _tail_coefficients(np.array(cuts))
            assert coef.shape == (19, 3) and np.any(coef[:, 0] != 0.0)
            assert np.all(coef[:, 1:] == 0.0) and first == 0.0 and np.isfinite(lag)

    def test_rows_of_a_group_need_one_lag_each(self):
        # each row is one table: rows may differ in lag, but a row whose
        # windows disagree raises, wherever it sits in the group
        rows = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.5, 0.0, 1.5]])
        coef, first, lag = _tail_coefficients(rows)
        assert coef.shape == (3, 19, 3) and list(lag) == [1.0, 2.0, 1.5]
        for i, row in enumerate(rows):
            one = _tail_coefficients(row)
            assert np.array_equal(coef[i], one[0]) and first[i] == one[1] and lag[i] == one[2]
        for position in range(3):
            bad = rows.copy()
            bad[position, 2] = 2.5
            with pytest.raises(DomainError, match="share no tail series"):
                _tail_coefficients(bad)


class TestGroupBuild:
    """summed_spectra builds every missing table of a group of betas in one
    pass; each table equals the one built for its beta alone."""

    POINTS = np.concatenate([np.linspace(-80.0, 80.0, 641), [-np.inf, np.inf]])

    @staticmethod
    def _counting_builds(monkeypatch):
        # an empty table cache, and the row count of every group build
        monkeypatch.setattr(pulse_math, "_TABLES", OrderedDict())
        builds, real = [], pulse_math._build_tables

        def counting(cuts, *args):
            builds.append(len(cuts))
            return real(cuts, *args)

        monkeypatch.setattr(pulse_math, "_build_tables", counting)
        return builds

    @pytest.mark.parametrize("m", [2, 3, 16, 32, 256, 1024])
    def test_group_equals_one_build_per_beta(self, m, monkeypatch):
        builds = self._counting_builds(monkeypatch)
        cached = pulse_math.summed_spectra(m, [0.7], 1e-8)[0]
        betas = [0.3, 0.7, 1.2, 0.3, 0.05, 1.2]  # cached, missing and repeated betas
        group = pulse_math.summed_spectra(m, betas, 1e-8)
        assert builds == [1, 3]
        assert group[1] is cached and group[3] is group[0] and group[5] is group[2]
        for beta, table in zip(betas, group):
            alone = build_spectrum(None, m, beta)
            assert table.beta == beta and np.array_equal(table.cuts, alone.cuts)
            assert np.array_equal(table._edges, alone._edges)
            assert np.array_equal(table._coef, alone._coef)
            difference = table.cumulative(self.POINTS) - alone.cumulative(self.POINTS)
            assert np.abs(difference).max() <= 1e-13
            # the group's one erf call adds each row's windows in order, as sum() does
            assert table.total_mass == alone.total_mass == sum(0.5 * np.diff(erf(table.cuts)))
            assert table.total_mass_numeric == pytest.approx(alone.total_mass_numeric,
                                                             rel=0.0, abs=1e-15)
            assert table.error_bound == alone.error_bound

    def test_tail_series_run_in_capped_passes(self, monkeypatch):
        # a pass stacks at most _TAIL_PASS_ENTRIES (table, cut, order)
        # entries, so one table a pass at m = 1024, and the passes leave
        # every table bitwise unchanged
        passes, real = [], pulse_math._tail_coefficients
        monkeypatch.setattr(pulse_math, "_tail_coefficients",
                            lambda cuts: passes.append(cuts.shape) or real(cuts))
        betas = np.linspace(0.05, 1.5, 7)
        whole = pulse_math._build_tables(_filter_cuts(32, betas), 32, betas, 1e-8)
        pulse_math._build_tables(_filter_cuts(1024, betas[:3]), 1024, betas[:3], 1e-8)
        assert passes == [(7, 33)] + [(1, 1025)] * 3
        monkeypatch.setattr(pulse_math, "_TAIL_PASS_ENTRIES", 1)
        one_per_pass = pulse_math._build_tables(_filter_cuts(32, betas), 32, betas, 1e-8)
        assert passes[4:] == [(1, 33)] * 7
        for a, b in zip(whole, one_per_pass):
            assert all(np.array_equal(x, y) for x, y in zip(a._tail, b._tail))
            assert np.array_equal(a._coef, b._coef)
            assert a.total_mass_numeric == b.total_mass_numeric

    @pytest.mark.parametrize("bad", [np.nan, 0.0, np.inf])
    def test_bad_beta_anywhere_raises_before_building(self, bad, monkeypatch):
        builds = self._counting_builds(monkeypatch)
        for position in range(3):
            betas = [0.4, 0.8, 1.3]
            betas[position] = bad
            with pytest.raises(DomainError):
                pulse_math.summed_spectra(16, betas, 1e-8)
        assert builds == [] and not pulse_math._TABLES

    def test_cache_keeps_the_last_1024_tables(self, monkeypatch):
        # stand-in tables: the cache only stores and returns them
        builds = []
        monkeypatch.setattr(pulse_math, "_TABLES", OrderedDict())
        monkeypatch.setattr(pulse_math, "_build_tables", lambda cuts, m, betas, accuracy: (
            builds.append(len(cuts)) or [object() for _ in betas]))
        first = pulse_math.summed_spectra(2, [0.5], 1e-8)[0]
        pulse_math.summed_spectra(2, np.linspace(1.0, 2.0, 1023), 1e-8)
        assert pulse_math.summed_spectra(2, [0.5], 1e-8)[0] is first  # refreshed as the latest
        pulse_math.summed_spectra(2, [3.0], 1e-8)  # evicts the least recent: beta = 1.0
        assert len(pulse_math._TABLES) == 1024 and (2, 1.0, 1e-8) not in pulse_math._TABLES
        assert cached_spectrum(2, 0.5, 1e-8) is first
        assert builds == [1, 1023, 1]


def _window(f, m, beta):
    scale = 0.5 * beta * m
    lo = -np.inf if f == 1 else (f - 0.5 * m - 1.0) / scale
    hi = np.inf if f == m else (f - 0.5 * m) / scale
    return lo, hi
