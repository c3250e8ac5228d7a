import math

import numpy as np
import pytest
from scipy.special import erf

import tfqkd.channel as channel_module
from tfqkd import pulse_math
from tfqkd.channel import (
    ProtocolParams,
    attack_matrix,
    bob_matrix,
    eve_matrix,
    is_column_stochastic,
    make_layout,
    mixed_bob_matrix,
    p_correct,
    p_second_correct,
    p_wrong,
)
from tfqkd.errors import DomainError, NumericFailure
from tfqkd.oracle import dft_spectrum_oracle
from tfqkd.pulse_math import build_spectrum

# closed-form references computed once from the error function
P2_DIAG = 0.9213503964748574   # 0.5*(1 + erf(1))
P2_OFF = 0.07864960352514261
ERF2 = 0.9953222650189527
PW4_OUTER = 0.15621110562134666  # m=4, beta=0.7 outer bin
PW4_INNER = 0.34378889437865334
ATTACK2_11 = 0.6775361566095195  # 0.5*((p^2 + q^2) + 0.5) at m=2, alpha=1


class TestProtocolParams:
    def test_derived_widths(self):
        p = ProtocolParams(8, 0.6, 0.9, 0.25)
        assert p.symbol_sigma == pytest.approx(0.3)
        assert p.conjugate_sigma == pytest.approx(3.6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=1, alpha=0.5, beta=0.7),
            dict(m=4, alpha=0.0, beta=0.7),
            dict(m=4, alpha=0.5, beta=-0.7),
            dict(m=4, alpha=math.inf, beta=0.7),
            dict(m=4, alpha=0.5, beta=math.inf),
            dict(m=4, alpha=0.5, beta=0.7, epsilon=1.5),
            dict(m=4, alpha=0.5, beta=0.7, epsilon=-0.1),
            dict(m=4, alpha=np.array([0.5, 0.6]), beta=0.7),
            dict(m=4, alpha=0.5, beta=[0.7], epsilon=0.5),
            dict(m=4, alpha=0.5, beta=0.7, epsilon=np.array([0.5])),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            ProtocolParams(**kwargs)


# every entry point that takes m shares one check, so each raises DomainError
@pytest.mark.parametrize("build", [
    lambda m: ProtocolParams(m, 0.5, 0.7), make_layout, lambda m: build_spectrum(None, m, 0.7),
    lambda m: dft_spectrum_oracle(1, m, 0.7),
], ids=["ProtocolParams", "make_layout", "build_spectrum", "dft_spectrum_oracle"])
@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, None, 2.5, 1, "4", True],
                         ids=["nan", "inf", "-inf", "None", "2.5", "1", "str", "True"])
def test_impossible_m_is_domain_error(build, m):
    with pytest.raises(DomainError, match="m must be an integer >= 2"):
        build(m)


def test_integral_float_m_counts_as_int():
    for m in (ProtocolParams(2.0, 0.5, 0.7).m, make_layout(np.float64(2.0)).m,
              build_spectrum(None, 2.0, 0.7).m, dft_spectrum_oracle(1, 2.0, 0.7).m):
        assert m == 2 and type(m) is int
    # and a filter index, read by the same check
    assert np.array_equal(build_spectrum(1.0, 2, 0.7).cuts, build_spectrum(1, 2, 0.7).cuts)
    f = dft_spectrum_oracle(1.0, 2, 0.7).filter_index
    assert f == 1 and type(f) is int


@pytest.mark.parametrize("entry", [-1e-6, 1.0 + 1e-6])
def test_column_stochastic_needs_entries_in_unit_interval(entry):
    # both columns sum to 1; only the entry range fails, beyond the fixed 1e-9
    assert not is_column_stochastic(np.array([[entry, 0.5], [1.0 - entry, 0.5]]))
    assert is_column_stochastic(np.array([[entry * 1e-4, 0.5], [1.0 - entry * 1e-4, 0.5]]))


class TestMakeLayout:
    def test_m4(self):
        lay = make_layout(4)
        assert np.allclose(lay.centers, [-1.5, -0.5, 0.5, 1.5])
        assert np.isneginf(lay.lower[0])
        assert np.allclose(lay.lower[1:], [-1.0, 0.0, 1.0])
        assert np.allclose(lay.upper[:-1], [-1.0, 0.0, 1.0])
        assert np.isposinf(lay.upper[-1])

    def test_m2(self):
        lay = make_layout(2)
        assert np.allclose(lay.centers, [-0.5, 0.5])
        assert lay.upper[0] == 0.0 and lay.lower[1] == 0.0

    def test_m3(self):
        lay = make_layout(3)
        assert np.allclose(lay.centers, [-1.0, 0.0, 1.0])
        assert np.allclose(lay.lower[1:], [-0.5, 0.5])

    def test_rejects_small_m(self):
        with pytest.raises(DomainError):
            make_layout(1)

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 16])
    def test_partition_and_mirror(self, m):
        lay = make_layout(m)
        assert np.allclose(lay.upper[:-1], lay.lower[1:])  # bins tile the axis
        assert np.allclose(lay.centers, -lay.centers[::-1])
        inner = (lay.centers > np.where(np.isneginf(lay.lower), -np.inf, lay.lower)) & (
            lay.centers < np.where(np.isposinf(lay.upper), np.inf, lay.upper)
        )
        assert inner.all()


class TestPCorrect:
    def test_m2_alpha1(self):
        P = p_correct(ProtocolParams(2, 1.0, 0.7))
        assert np.allclose(P, [[P2_DIAG, P2_OFF], [P2_OFF, P2_DIAG]], atol=1e-12)

    def test_m4_center_entry(self):
        P = p_correct(ProtocolParams(4, 0.5, 0.7))
        assert P[1, 1] == pytest.approx(ERF2, abs=1e-12)

    def test_narrow_pulse_limit(self):
        P = p_correct(ProtocolParams(4, 1e-4, 0.7))
        assert np.allclose(P, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("m,alpha", [(2, 0.3), (4, 1.0), (8, 1.5), (16, 0.05)])
    def test_column_stochastic(self, m, alpha):
        assert is_column_stochastic(p_correct(ProtocolParams(m, alpha, 0.7)))

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_mirror_symmetry(self, m):
        P = p_correct(ProtocolParams(m, 0.8, 0.7))
        assert np.allclose(P, P[::-1, ::-1], atol=1e-12)

    def test_diagonal_decreases_with_alpha(self):
        diags = [
            p_correct(ProtocolParams(4, a, 0.7))[1, 1]
            for a in np.arange(0.1, 1.51, 0.1)
        ]
        assert np.all(np.diff(diags) <= 1e-15)

    def test_lattice_equals_per_entry_erf(self):
        # bound minus center is an exact half-integer, so the 2m erf values
        # on the lattice reproduce the per-entry erf expression bit for bit
        for m in range(2, 65):
            layout = make_layout(m)
            lo = layout.lower[:, None] - layout.centers[None, :]
            hi = layout.upper[:, None] - layout.centers[None, :]
            for alpha in (0.01, 0.05, 0.3, 0.8, 1.5, 3.0):
                e_lo = np.where(np.isneginf(lo), -1.0, erf(lo / (0.5 * alpha)))
                e_hi = np.where(np.isposinf(hi), 1.0, erf(hi / (0.5 * alpha)))
                expected = 0.5 * (e_hi - e_lo)
                assert np.array_equal(p_correct(ProtocolParams(m, alpha, 0.7)), expected)

    @pytest.mark.parametrize("m", [2, 3, 5, 16, 37, 256])
    def test_window_width_covers_farthest_nonzero_entry(self, m):
        # b, read from the lattice values, is the dense block's farthest
        # nonzero |r - a|, from a lone diagonal to alphas where none saturate
        alphas = np.concatenate([np.linspace(0.001, 3.0, 120), [10.0, 200.0, 1e4]])
        cdf = channel_module._correct_lattice(m, alphas)
        offsets = np.abs(np.arange(m)[:, None] - np.arange(m))
        band = np.array([(offsets * (block != 0.0)).max()
                         for block in channel_module._lattice_block(cdf, -0.5, 0.5)])
        assert np.array_equal(channel_module._window_widths(cdf), np.minimum(4 * band + 1, m))

    @pytest.mark.parametrize("m,alpha,width", [(2, 0.05, 1), (2, 0.5, 2), (3, 0.5, 3), (16, 0.05, 1),
                                               (16, 0.5, 5), (16, 2.95, 16), (64, 1.5, 17)])
    def test_windows_hold_every_nonzero_entry(self, m, alpha, width):
        # each row's window of p_correct and of its square, scattered back to
        # its columns, gives the dense matrices: no nonzero entry lies outside
        cdf = channel_module._correct_lattice(m, [alpha, alpha])
        assert np.all(channel_module._window_widths(cdf) == width)
        counts, diagonal, pc, pc2 = channel_module._correct_windows(cdf, width)
        # one more column, of zeros, stands for the m - width entries off each window
        extra = int(width < m)
        assert pc.shape == pc2.shape == (2, m, width + extra)
        assert np.array_equal(counts, [1.0] * width + [m - width] * extra)
        assert np.all(pc[..., width:] == 0.0) and np.all(pc2[..., width:] == 0.0)
        rows = np.arange(m)[:, None]
        cols = np.clip(rows - (width - 1) // 2, 0, m - width) + np.arange(width)
        dense = p_correct(ProtocolParams(m, alpha, 0.7))
        for window, full in ((pc, dense), (pc2, dense @ dense)):
            scattered = np.zeros((m, m))
            np.put_along_axis(scattered, cols, window[0, :, :width], axis=-1)
            assert np.array_equal(scattered == 0.0, full == 0.0)
            assert scattered == pytest.approx(full, rel=0.0, abs=1e-15)
            assert np.array_equal(window[0].ravel()[diagonal], np.diag(scattered))


class TestPWrong:
    def test_m2_is_half(self):
        for beta in (0.2, 0.7, 1.4):
            assert np.allclose(p_wrong(ProtocolParams(2, 0.5, beta)), 0.5, atol=1e-15)

    def test_m4_beta07_column(self):
        P = p_wrong(ProtocolParams(4, 0.5, 0.7))
        assert np.allclose(P[:, 0], [PW4_OUTER, PW4_INNER, PW4_INNER, PW4_OUTER], atol=1e-12)

    def test_columns_identical(self):
        P = p_wrong(ProtocolParams(8, 0.5, 0.9))
        assert np.all(P == P[:, :1])

    def test_wide_pulse_limit(self):
        P = p_wrong(ProtocolParams(4, 0.5, 1e4))
        assert np.all(P[1:3, 0] < 1e-3)
        assert P[0, 0] == pytest.approx(0.5, abs=1e-3)
        assert P[3, 0] == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("m,beta", [(2, 0.3), (4, 0.7), (8, 1.2)])
    def test_column_stochastic_and_mirror(self, m, beta):
        P = p_wrong(ProtocolParams(m, 0.5, beta))
        assert is_column_stochastic(P)
        assert np.allclose(P, P[::-1, ::-1], atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 16])
    @pytest.mark.parametrize("beta", [0.3, 1.2])
    def test_column_is_filter_pass_probabilities(self, m, beta):
        # one owner of the filter geometry: the bin masses of the conjugate
        # pulse are the exact totals of the single-filter spectra
        column = p_wrong(ProtocolParams(m, 0.5, beta))[:, 0]
        assert np.array_equal(column, [build_spectrum(f, m, beta).total_mass for f in range(1, m + 1)])

    @pytest.mark.parametrize("m", [2, 3, 16, 256])
    def test_group_of_betas_is_one_broadcast_each(self, m):
        # the capacity grid reads a group of betas in one erf call; each row is
        # bitwise the column p_wrong broadcasts
        betas = np.linspace(0.05, 1.5, 30)
        columns = channel_module._wrong_columns(m, betas)
        assert columns.shape == (30, m)
        for beta, column in zip(betas, columns):
            expected = np.broadcast_to(column[:, None], (m, m))
            assert np.array_equal(p_wrong(ProtocolParams(m, 0.5, beta)), expected)


class TestPSecondCorrect:
    @pytest.mark.parametrize("m,alpha,beta", [(2, 0.5, 0.7), (4, 0.5, 0.7), (8, 0.9, 0.4)])
    def test_column_stochastic(self, m, alpha, beta):
        P = p_second_correct(ProtocolParams(m, alpha, beta))
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-6)
        assert P.min() >= 0.0

    def test_mirror_symmetry(self):
        P = p_second_correct(ProtocolParams(4, 0.5, 0.7))
        assert np.allclose(P, P[::-1, ::-1], atol=1e-8)

    def test_deterministic(self):
        params = ProtocolParams(4, 0.6, 0.8)
        assert np.array_equal(p_second_correct(params), p_second_correct(params))

    @pytest.mark.parametrize("m,alpha,beta", [(2, 0.5, 0.7), (3, 1.5, 0.1), (5, 0.05, 1.2),
                                              (8, 0.9, 0.4)])
    def test_matches_per_filter_bin_masses(self, m, alpha, beta):
        # reference: receiver bin masses of every single-filter spectrum, summed
        layout = make_layout(m)
        scale = 2.0 / alpha
        spectra = [build_spectrum(f, m, beta) for f in range(1, m + 1)]
        expected = np.array([[sum(s.bin_mass(scale * (layout.lower[r] - layout.centers[a]),
                                             scale * (layout.upper[r] - layout.centers[a]))
                                  for s in spectra)
                              for a in range(m)] for r in range(m)])
        P = p_second_correct(ProtocolParams(m, alpha, beta))
        assert np.allclose(P, expected, rtol=0.0, atol=1e-9)

    def test_excursion_beyond_accuracy_raises(self, monkeypatch):
        # a cumulative that falls by 1e-6 between w = 6 and w = 10 gives a
        # negative entry beyond the 1e-8 accuracy; one that falls by 1e-10 is
        # clipped to zero.  The stacked query reads the table at w > 0, and
        # the points w < 0 follow from its total mass.
        class Falling:
            total_mass = 1.0

            def __init__(self, drop):
                self.drop = drop

            def cumulative(self, w):
                return 0.5 + 0.1 * np.clip(w, -5.0, 5.0) - self.drop * (w > 8.0)

        params = ProtocolParams(4, 0.5, 0.7)
        monkeypatch.setattr(pulse_math, "_stacked_cumulative",
                            lambda tables, w: tables[0].cumulative(w))
        monkeypatch.setattr(pulse_math, "cached_spectrum", lambda *args: Falling(1e-6))
        with pytest.raises(NumericFailure) as info:
            p_second_correct(params)
        assert info.value.achieved == pytest.approx(1e-6, rel=1e-9)
        monkeypatch.setattr(pulse_math, "cached_spectrum", lambda *args: Falling(1e-10))
        assert p_second_correct(params).min() == 0.0


class TestDualBasisMatrices:
    def test_bob_blocks(self):
        params = ProtocolParams(4, 0.5, 0.7)
        B = bob_matrix(params)
        pc = p_correct(params)
        assert np.array_equal(B[:4, :4], pc)
        assert np.array_equal(B[4:, 4:], pc)
        assert np.all(B[:4, 4:] == 0.0)
        assert np.all(B[4:, :4] == 0.0)
        assert is_column_stochastic(B)

    def test_bob_narrow_limit_is_identity(self):
        B = bob_matrix(ProtocolParams(4, 1e-4, 0.7))
        assert np.allclose(B, np.eye(8), atol=1e-12)

    def test_eve_blocks(self):
        params = ProtocolParams(4, 0.5, 0.7)
        E = eve_matrix(params)
        assert np.array_equal(E[:4, :4], p_correct(params))
        assert np.allclose(E[4:, 4:], p_second_correct(params), atol=1e-12)
        assert np.all(E[:4, 4:] == 0.0)
        assert np.allclose(E.sum(axis=0), 1.0, atol=1e-6)

    def test_eve_ignores_epsilon(self):
        a = eve_matrix(ProtocolParams(4, 0.5, 0.7, 0.0))
        b = eve_matrix(ProtocolParams(4, 0.5, 0.7, 1.0))
        assert np.array_equal(a, b)

    def test_eve_top_block_identity_when_narrow(self):
        E = eve_matrix(ProtocolParams(4, 1e-4, 0.7))
        assert np.allclose(E[:4, :4], np.eye(4), atol=1e-12)

    def test_attack_frozen_entry(self):
        A = attack_matrix(ProtocolParams(2, 1.0, 0.7))
        assert A[0, 0] == pytest.approx(ATTACK2_11, abs=1e-12)

    def test_attack_column_sums(self):
        A = attack_matrix(ProtocolParams(4, 0.7, 0.9))
        assert is_column_stochastic(A)

    def test_attack_narrow_limit(self):
        params = ProtocolParams(4, 1e-4, 0.7)
        A = attack_matrix(params)
        expected = 0.5 * (np.eye(4) + p_wrong(params))
        assert np.allclose(A[:4, :4], expected, atol=1e-8)

    def test_mixed_endpoints_and_convexity(self):
        p0 = ProtocolParams(4, 0.5, 0.7, 0.0)
        p1 = ProtocolParams(4, 0.5, 0.7, 1.0)
        ph = ProtocolParams(4, 0.5, 0.7, 0.5)
        assert np.array_equal(mixed_bob_matrix(p0), bob_matrix(p0))
        assert np.array_equal(mixed_bob_matrix(p1), attack_matrix(p1))
        mean = 0.5 * (bob_matrix(ph) + attack_matrix(ph))
        assert np.allclose(mixed_bob_matrix(ph), mean, atol=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.9, 1.0])
    def test_mixed_column_stochastic(self, eps):
        M = mixed_bob_matrix(ProtocolParams(4, 0.5, 0.7, eps))
        assert is_column_stochastic(M)
        assert np.all(M[:4, 4:] == 0.0)
        assert np.all(M[4:, :4] == 0.0)
