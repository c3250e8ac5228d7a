import math
import tracemalloc
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

import tfqkd.channel as channel_module
import tfqkd.infotheory as infotheory_module
from tfqkd import pulse_math
from tfqkd.channel import (
    ProtocolParams,
    attack_matrix,
    bob_matrix,
    eve_matrix,
    mixed_bob_matrix,
    p_correct,
    p_second_correct,
)
from tfqkd.errors import DomainError, NumericFailure
from tfqkd.infotheory import (
    capacity,
    key_rate,
    mutual_info_dual,
    mutual_info_single,
)
from tfqkd.optimizer import c_surface

MI_BSC = 0.6025969807153304  # 1 - H2(q) at q = 0.5*(1 - erf(1))
Q2 = 0.07864960352514261


def _random_stochastic(m, rng):
    cols = rng.random((m, m)) + 0.05
    return cols / cols.sum(axis=0)


def _block_diag(a, b):
    m = a.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = a
    out[m:, m:] = b
    return out


class TestMarginal:
    """The receiver's distribution ``matrix @ prior``."""

    def test_bob_m2_uniform_stays_uniform(self):
        B = bob_matrix(ProtocolParams(2, 1.0, 0.7))
        u = np.full(4, 0.25)
        assert np.allclose(B @ u, u, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            mutual_info_single(np.eye(4), np.full(3, 1 / 3))


class TestInputChecks:
    """The public information functions take only a distribution as prior
    and only probabilities as matrix entries."""

    @pytest.mark.parametrize("fn", [mutual_info_single], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("prior", [[2.0, -1.0], [0.3, 0.3], [math.nan, 1.0], [math.inf, 0.0]],
                             ids=["negative", "sum-0.6", "nan", "inf"])
    def test_rejects_non_distribution_prior(self, fn, prior):
        with pytest.raises(DomainError, match="prior"):
            fn(np.eye(2), np.array(prior))

    @pytest.mark.parametrize("fn", [  # mutual_info_dual takes no prior: it is uniform
        pytest.param(lambda matrix: mutual_info_single(matrix, np.full(2, 0.5)), id="mutual_info_single"),
        pytest.param(mutual_info_dual, id="mutual_info_dual"),
    ])
    @pytest.mark.parametrize("entry", [-1.0, 1.5, math.nan, math.inf],
                             ids=["negative", "above-one", "nan", "inf"])
    def test_rejects_non_probability_entry(self, fn, entry):
        matrix = np.eye(2)
        matrix[1, 0] = entry
        with pytest.raises(DomainError, match="matrix entries"):
            fn(matrix)

    def test_accepts_prior_within_tolerance(self):
        prior = np.array([0.5, 0.5 + 5e-10])
        assert mutual_info_single(np.eye(2), prior) == pytest.approx(1.0, abs=1e-8)


class TestMutualInfoSingle:
    def test_noiseless_channel(self):
        assert mutual_info_single(np.eye(4), np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-12)

    def test_useless_channel(self):
        P = np.full((4, 4), 0.25)
        assert mutual_info_single(P, np.full(4, 0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_value(self):
        P = p_correct(ProtocolParams(2, 1.0, 0.7))
        got = mutual_info_single(P, np.full(2, 0.5))
        assert got == pytest.approx(MI_BSC, abs=1e-12)
        # same number through the explicit double sum
        pr = P @ np.full(2, 0.5)
        direct = sum(
            P[r, s] * 0.5 * math.log2(P[r, s] / pr[r]) for r in range(2) for s in range(2)
        )
        assert got == pytest.approx(direct, abs=1e-14)

    def test_handles_exact_zeros(self):
        P = np.array([[1.0, 0.5], [0.0, 0.5]])
        v = mutual_info_single(P, np.array([0.5, 0.5]))
        assert np.isfinite(v) and v >= 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_data_processing_inequality(self, seed):
        rng = np.random.default_rng(seed)
        P = _random_stochastic(6, rng)
        u = np.full(6, 1 / 6)
        assert mutual_info_single(P @ P, u) <= mutual_info_single(P, u) + 1e-12

    def test_composition_of_spill_channel(self):
        P = p_correct(ProtocolParams(4, 0.9, 0.7))
        u = np.full(4, 0.25)
        assert mutual_info_single(P @ P, u) <= mutual_info_single(P, u)

    def test_stack_matches_ones_buffer_reference(self):
        # masked cells start at 0 instead of log2(1); every value stays bitwise
        rng = np.random.default_rng(3)
        blocks = rng.random((5, 3, 16, 16)) * (rng.random((5, 3, 16, 16)) < 0.3)
        blocks[0, 0] = np.eye(16)
        blocks /= np.maximum(blocks.sum(axis=-2, keepdims=True), 1e-300)
        prior = np.full(16, 1 / 16)
        received = blocks @ prior
        joint = blocks * prior
        mask = joint > 1e-300
        terms = np.divide(blocks, received[..., None], out=np.ones_like(joint), where=mask)
        np.log2(terms, out=terms)
        np.multiply(terms, joint, out=terms, where=mask)
        got = infotheory_module._mutual_info(blocks, prior, received)
        assert np.array_equal(got, terms.sum(axis=(-2, -1)))


class TestMutualInfoDual:
    def test_noiseless_two_basis_alphabet(self):
        B = _block_diag(np.eye(4), np.eye(4))
        assert mutual_info_dual(B) == pytest.approx(2.0, abs=1e-12)

    def test_equals_mean_of_blocks(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = _random_stochastic(4, rng)
            b = _random_stochastic(4, rng)
            dual = mutual_info_dual(_block_diag(a, b))
            u = np.full(4, 0.25)
            mean = 0.5 * (mutual_info_single(a, u) + mutual_info_single(b, u))
            assert dual == pytest.approx(mean, abs=1e-12)

    def test_identical_blocks_reduce_to_single(self):
        rng = np.random.default_rng(9)
        a = _random_stochastic(5, rng)
        dual = mutual_info_dual(_block_diag(a, a))
        single = mutual_info_single(a, np.full(5, 0.2))
        assert dual == pytest.approx(single, abs=1e-12)

    def test_uniform_blocks_carry_nothing(self):
        blk = np.full((4, 4), 0.25)
        assert mutual_info_dual(_block_diag(blk, blk)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        M = _block_diag(_random_stochastic(8, rng), _random_stochastic(8, rng))
        v = mutual_info_dual(M)
        assert -1e-12 <= v <= 3.0 + 1e-12

    def test_rejects_odd_size(self):
        with pytest.raises(DomainError):
            mutual_info_dual(np.eye(5))


class TestChannelInformation:
    def test_iab_no_attack_narrow(self):
        assert capacity(ProtocolParams(4, 1e-4, 0.7, 0.0)).i_ab == pytest.approx(2.0, abs=1e-9)

    def test_iab_no_attack_equals_bob(self):
        params = ProtocolParams(4, 0.6, 0.7, 0.0)
        assert capacity(params).i_ab == pytest.approx(mutual_info_dual(bob_matrix(params)), abs=1e-14)

    def test_iab_full_attack_equals_attack_matrix(self):
        params = ProtocolParams(2, 1.0, 0.7, 1.0)
        assert capacity(params).i_ab == pytest.approx(mutual_info_dual(attack_matrix(params)),
                                                      abs=1e-14)

    def test_iae_zero_without_interception(self):
        assert capacity(ProtocolParams(4, 0.5, 0.7, 0.0)).i_ae == 0.0

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 0.75, 1.0])
    def test_iae_linear_in_epsilon(self, eps):
        full = capacity(ProtocolParams(4, 0.5, 0.7, 1.0)).i_ae
        part = capacity(ProtocolParams(4, 0.5, 0.7, eps)).i_ae
        assert part == pytest.approx(eps * full, abs=1e-12)

    def test_iae_narrow_limit_block_decomposition(self):
        # perfect time information makes the dual value the mean of log2(m)
        # and the frequency-block information
        params = ProtocolParams(4, 1e-4, 0.7, 1.0)
        from tfqkd.channel import p_second_correct

        freq_mi = mutual_info_single(p_second_correct(params), np.full(4, 0.25))
        dual = mutual_info_dual(eve_matrix(params))
        assert dual == pytest.approx(0.5 * (2.0 + freq_mi), abs=1e-8)
        assert capacity(params).i_ae == pytest.approx(dual, abs=1e-12)


class TestCapacity:
    def test_report_consistency(self):
        for m in (2, 5, 16, 32):
            for eps in (0.0, 0.5, 1.0):
                params = ProtocolParams(m, 0.5, 0.7, eps)
                rep = capacity(params)
                assert rep.capacity == pytest.approx(max(rep.i_ab - rep.i_ae, 0.0), abs=1e-15)
                # the block path against the 2m x 2m path it replaced
                mixed = mixed_bob_matrix(params)
                ae_dual = eps * mutual_info_dual(eve_matrix(params))
                assert rep.i_ab == pytest.approx(mutual_info_dual(mixed), abs=1e-12)
                assert rep.i_ae == pytest.approx(ae_dual, abs=1e-12)
                assert rep.qser == pytest.approx(1.0 - np.trace(mixed) / (2 * m), abs=1e-12)

    def test_no_attack_narrow_pulse_reaches_log2m(self):
        rep = capacity(ProtocolParams(4, 0.05, 0.7, 0.0))
        assert rep.capacity >= 0.99 * 2.0

    def test_clamped_at_zero(self):
        rep = capacity(ProtocolParams(2, 1.0, 0.7, 0.9))
        assert rep.i_ab < rep.i_ae
        assert rep.capacity == 0.0

    def test_beta_m_near_the_largest_float(self):
        # at the interval's upper end, beta * m = 1e12, the value is stable; far past it,
        # near the largest float, DomainError
        assert capacity(ProtocolParams(4, 0.5, 2.5e11, 0.5)).capacity == pytest.approx(
            capacity(ProtocolParams(4, 0.5, 2.5e10, 0.5)).capacity, abs=1e-10)
        for m, beta in ((4, 4e307), (4, 1e300), (16, 4e307)):
            with pytest.raises(DomainError, match=r"beta \* m must lie in \[1e-12, 1e12\]"):
                capacity(ProtocolParams(m, 0.5, beta, 0.5))

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.75])
    def test_bounds(self, eps):
        rep = capacity(ProtocolParams(8, 0.4, 0.8, eps))
        assert 0.0 <= rep.capacity <= 3.0
        assert 0.0 <= rep.i_ae <= eps * 3.0 + 1e-12


class TestCapacityGrid:
    """The column-batched grid against per-point evaluation."""

    @staticmethod
    def _per_point(m, eps, alpha, beta):
        params = ProtocolParams(m, alpha, beta, eps)
        mixed = mixed_bob_matrix(params)
        ab = mutual_info_dual(mixed)
        ae = eps * mutual_info_dual(_block_diag(p_correct(params), p_second_correct(params)))
        return max(ab - ae, 0.0), ab, ae, 1.0 - np.trace(mixed) / (2 * m)

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("m", [2, 3, 4, 16, 32])
    def test_matches_per_point_reference(self, monkeypatch, m, eps):
        # 3 m^2 entries: a tile of mixed-block windows of width W holds
        # 3m / (W + 1) pairs (two at W = m), a chunk of lattice terms 3m / 4
        # alphas and a second-stage query 3m / 8 pairs, so the 7 x 3 grid
        # spans several tiles of each kind, some of them partial
        monkeypatch.setattr(pulse_math, "_STACK_ENTRIES", 3 * m * m)
        alphas, betas = np.linspace(0.15, 1.35, 7), np.array([0.3, 0.7, 1.2])
        grid = infotheory_module._capacity_grid(m, eps, alphas, betas)
        for i, alpha in enumerate(alphas):
            for j, beta in enumerate(betas):
                expected = self._per_point(m, eps, alpha, beta)
                got = [a[i, j] for a in grid]
                assert got == pytest.approx(expected, rel=0.0, abs=1e-12), (alpha, beta)

    @pytest.mark.parametrize("m,n_alphas", [(16, 70), (32, 20)])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_chunk_size_leaves_grid_bitwise_unchanged(self, monkeypatch, m, n_alphas, eps):
        # tiles hold (alpha, beta) pairs of alphas of one window width W (1
        # to 16 at m = 16, 1 to 17 at m = 32): at eps > 0 a tile of mixed-block
        # windows holds 2^14 / m(W + 1) pairs (60 at m = 16 and W = 16) and a
        # second-stage query 2^11 / m pairs (128 and 64); a chunk of lattice
        # terms holds 2^14 / 4m alphas (256 and 128: one chunk here).  64m
        # entries give window tiles of 64 / (W + 1) pairs, 8-pair second-stage
        # queries and 16-alpha chunks; one entry gives one pair per tile
        alphas, betas = np.linspace(0.1, 1.4, n_alphas), np.array([0.4, 0.9])
        batched = infotheory_module._capacity_grid(m, eps, alphas, betas)
        runs = []
        for entries in (64 * m, 1):
            monkeypatch.setattr(pulse_math, "_STACK_ENTRIES", entries)
            runs.append(infotheory_module._capacity_grid(m, eps, alphas, betas))
        for grid in runs:
            for a, b in zip(batched, grid):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("m,limit_mb", [(16, 2.0), (32, 2.0), (256, 4.0)])
    def test_peak_memory_is_bounded(self, m, limit_mb):
        # every stack of a tile is capped by _STACK_ENTRIES, so a 30 x 30 grid
        # on warm tables allocates a few MB at most, whatever m is
        alphas, betas = np.linspace(0.05, 1.5, 30), np.linspace(0.05, 1.5, 30)
        infotheory_module._capacity_grid(m, 0.5, alphas, betas)  # warms the tables
        tracemalloc.start()
        try:
            infotheory_module._capacity_grid(m, 0.5, alphas, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2 ** 20

    def test_forms_no_m_by_m_block(self):
        # at m = 1024 one m x m float block is 8 MiB; the windows of width
        # 4b + 1 hold (k, m, W) stacks, so a warm 3 x 3 grid stays below it
        alphas, betas = np.array([0.5, 1.5, 2.95]), np.array([0.1, 0.7, 1.4])
        pulse_math.summed_spectra(1024, betas)
        infotheory_module._capacity_grid(1024, 0.5, alphas, betas)  # warms the index
        tracemalloc.start()
        try:
            infotheory_module._capacity_grid(1024, 0.5, alphas, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8

    @pytest.mark.parametrize("m", [2, 3, 16, 256, 1024])
    def test_windows_match_dense_mixed_block(self, m):
        # the band-plus-rank-one reading of the mixed block against the dense
        # one; W = m at m = 2, 3 and at alpha 2.95 for m = 16, and beta 0.01
        # leaves pw[r] = 0 on the outer rows for m >= 3
        alphas, betas = np.array([0.05, 0.5, 1.5, 2.95]), np.array([0.01, 0.3, 1.2])
        if m <= 16:
            assert channel_module._window_widths(channel_module._correct_lattice(m, alphas))[-1] == m
        pw = channel_module._wrong_columns(m, betas)
        assert (pw[0] == 0.0).any() == (m >= 3)
        for eps in (0.25, 0.5, 1.0):
            _, ab, _, qs = infotheory_module._capacity_grid(m, eps, alphas, betas)
            for i, alpha in enumerate(alphas):
                pc = p_correct(ProtocolParams(m, alpha, 0.5))
                blocks = channel_module._mixed_block(pc, pc @ pc, pw[:, :, None], eps)
                info, qser = infotheory_module._block_stats(blocks)
                assert ab[i] == pytest.approx(info, rel=0.0, abs=1e-12), (eps, alpha)
                assert qs[i] == pytest.approx(qser, rel=0.0, abs=1e-12), (eps, alpha)

    @pytest.mark.parametrize("m,limit_mb", [(16, 1.5), (32, 1.5), (256, 6.0)])
    def test_cold_peak_memory_is_bounded(self, monkeypatch, m, limit_mb):
        # the same grid on an empty table cache also builds its 30 tables;
        # with the quadrature run one table at a time the peak stays near
        # the warm one (0.9 MB at m = 16 and 32, 5.0 MB at m = 256), where
        # one density batch across the group's tables fails all three
        alphas, betas = np.linspace(0.05, 1.5, 30), np.linspace(0.05, 1.5, 30)
        monkeypatch.setattr(pulse_math, "_TABLES", OrderedDict())
        tracemalloc.start()
        try:
            infotheory_module._capacity_grid(m, 0.5, alphas, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2 ** 20

    @staticmethod
    def _piecewise_table(total, pieces):
        # a real table whose G is linear on each (a, b, G(a), G(b)) piece of
        # [0, 30] and equals total beyond 30 (zero tail series)
        spec = pulse_math.cached_spectrum(4, 0.7)
        coef = np.zeros((len(pieces), spec._coef.shape[1]))
        for row, (_, _, g_a, g_b) in zip(coef, pieces):
            row[:2] = 0.5 * (g_a + g_b), 0.5 * (g_b - g_a)
        edges = np.array([piece[0] for piece in pieces] + [30.0])
        tail = (np.zeros_like(spec._tail[0]), 0.0 * spec._tail[1], spec._tail[2])
        return replace(spec, total_mass=total, _edges=edges, _coef=coef, _tail=tail)

    def test_clip_failure_propagates(self, monkeypatch):
        # one table of a stacked second-stage query carries an excursion
        # beyond accuracy, which still raises: an interior falling step (in
        # the lattice entries), or G leaving the table's [0, total] (in the
        # query): above a total of 1 - 1e-6, read as H < 0 in row 0 at the
        # mirrored points, or above 1, which is H > 1 in row m-1
        rise, flat = (0.0, 5.0, 0.5, 1.0), (5.0, 8.0, 1.0, 1.0)
        falling = self._piecewise_table(1.0, [rise, flat, (8.0, 30.0, 1 - 1e-6, 1 - 1e-6)])
        below_zero = self._piecewise_table(1.0 - 1e-6, [rise, (5.0, 30.0, 1.0, 1.0)])
        above_one = self._piecewise_table(1.0, [rise, flat, (8.0, 30.0, 1 + 1e-6, 1 + 1e-6)])
        real = pulse_math.summed_spectra
        alphas = np.array([0.3, 0.5, 0.9])
        for name, table in [("falling", falling), ("below_zero", below_zero),
                            ("above_one", above_one)]:
            monkeypatch.setattr(pulse_math, "summed_spectra", lambda m, betas: [
                table if beta == 0.7 else real(m, [beta])[0] for beta in betas])
            with pytest.raises(NumericFailure) as info:
                infotheory_module._capacity_grid(4, 0.5, alphas, [0.5, 0.7])
            assert info.value.achieved == pytest.approx(1e-6, rel=1e-9), name

    def test_information_never_below_zero(self):
        # nearly uniform channels, whose x log2 x sums used to round to an i_ab
        # of about -1e-16 bits at these four alphas
        alphas = [1e11, 4e11, 8e11, 9e11]
        grid = c_surface(4, 0.0, alphas, [2.5e-13])
        assert np.all(grid.i_ab >= 0.0) and np.all(grid.i_ae >= 0.0)
        for alpha in alphas:
            assert capacity(ProtocolParams(4, alpha, 2.5e-13, 0.0)).i_ab >= 0.0

    @pytest.mark.parametrize("eps,column", [(0.0, 1), (1.0, 2)], ids=["i_ab", "i_ae"])
    def test_information_leaving_its_bounds_raises(self, monkeypatch, eps, column):
        # i_ab (eps = 0: the lattice information) and i_ae (eps = 1: the mean
        # of two lattice informations) are clipped to [0, log2 m] within
        # accuracy, and past it the grid raises instead of repairing them
        real = infotheory_module._lattice_stats
        for value, excursion in [(-1e-10, None), (2.0 + 1e-10, None), (-1e-6, 1e-6), (2.0 + 1e-6, 1e-6)]:
            monkeypatch.setattr(infotheory_module, "_lattice_stats", lambda *args: (
                np.full_like(real(*args)[0], value), real(*args)[1]))
            if excursion is None:
                grid = infotheory_module._capacity_grid(4, eps, np.array([0.5]), np.array([0.7]))
                assert grid[column][0, 0] == min(max(value, 0.0), 2.0)
            else:
                with pytest.raises(NumericFailure) as info:
                    infotheory_module._capacity_grid(4, eps, np.array([0.5]), np.array([0.7]))
                assert info.value.achieved == pytest.approx(excursion, rel=1e-6)


class TestLatticeStats:
    """Information and QSER of a lattice block from its distinct entries,
    against the dense block."""

    @staticmethod
    def _assert_matches_dense(values, at_neg_inf, at_pos_inf):
        info, qs = infotheory_module._lattice_stats(values, at_neg_inf, at_pos_inf)
        block = channel_module._lattice_block(values, at_neg_inf, at_pos_inf)
        ref_info, ref_qs = infotheory_module._block_stats(
            pulse_math._clip_within(block, 1.0))
        assert info == pytest.approx(ref_info, rel=0.0, abs=1e-12)
        assert qs == pytest.approx(ref_qs, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.5])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 16, 32, 256, 1024])
    def test_p_correct(self, m, alpha):
        self._assert_matches_dense(channel_module._correct_lattice(m, [alpha]), -0.5, 0.5)

    @pytest.mark.parametrize("beta", [0.1, 0.6, 1.2])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 16, 32, 256])
    def test_second_stage(self, m, beta):
        tables = pulse_math.summed_spectra(m, [beta])
        values = channel_module._second_lattice(m, [0.05, 0.5, 1.5], tables)[0]
        self._assert_matches_dense(values, 0.0, 1.0)

    def test_stack_of_alphas(self):
        alphas = np.linspace(0.05, 1.5, 30)
        self._assert_matches_dense(channel_module._correct_lattice(16, alphas), -0.5, 0.5)
        tables = pulse_math.summed_spectra(16, [0.7])
        second = channel_module._second_lattice(16, alphas, tables)[0]
        self._assert_matches_dense(second, 0.0, 1.0)


class TestQser:
    def test_zero_for_perfect_channel(self):
        assert capacity(ProtocolParams(4, 1e-4, 0.7, 0.0)).qser == pytest.approx(0.0, abs=1e-12)

    def test_m2_alpha1_frozen(self):
        assert capacity(ProtocolParams(2, 1.0, 0.7, 0.0)).qser == pytest.approx(Q2, abs=1e-12)

    def test_uniform_blocks_trace_arithmetic(self):
        # hand-built channel with uniform blocks: qser = 1 - 1/m
        blk = np.full((4, 4), 0.25)
        M = _block_diag(blk, blk)
        assert 1.0 - np.trace(M) / 8.0 == pytest.approx(0.75)

    def test_nondecreasing_in_alpha(self):
        vals = [capacity(ProtocolParams(4, a, 0.7, 0.0)).qser for a in np.arange(0.1, 1.51, 0.1)]
        assert np.all(np.diff(vals) >= -1e-12)


class TestKeyRate:
    def test_zero_rate(self):
        assert key_rate(0.0, 5.0) == 0.0

    def test_scaling(self):
        assert key_rate(1e8, 8.0) == pytest.approx(8e8)

    def test_zero_capacity(self):
        assert key_rate(1.0, 0.0) == 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            key_rate(-1.0, 1.0)

    @pytest.mark.parametrize("rate,bits", [(math.nan, 1.0), (math.inf, 0.0),
                                           (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)])
    def test_rejects_non_finite_rate(self, rate, bits):
        with pytest.raises(DomainError):
            key_rate(rate, bits)
