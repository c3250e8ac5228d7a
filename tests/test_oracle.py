import numpy as np
import pytest

from tfqkd.channel import (
    ProtocolParams,
    attack_matrix,
    make_layout,
    mixed_bob_matrix,
)
from tfqkd.errors import DomainError
from tfqkd.oracle import (
    McConfig,
    compare_empirical,
    dft_spectrum_oracle,
    run_mc,
)
from tfqkd.pulse_math import build_spectrum, density_bin_mass

P2_DIAG = 0.9213503964748574


class TestRunMc:
    def test_reproducible(self):
        cfg = McConfig(photons=20_000, seed=123, params=ProtocolParams(4, 0.5, 0.7, 0.5))
        a = run_mc(cfg)
        b = run_mc(cfg)
        assert np.array_equal(a.counts, b.counts)

    def test_seed_matters(self):
        params = ProtocolParams(4, 0.5, 0.7, 0.5)
        a = run_mc(McConfig(photons=20_000, seed=1, params=params))
        b = run_mc(McConfig(photons=20_000, seed=2, params=params))
        assert not np.array_equal(a.counts, b.counts)

    def test_narrow_no_attack_is_exact_identity(self):
        cfg = McConfig(photons=50_000, seed=7, params=ProtocolParams(4, 1e-4, 0.7, 0.0))
        emp = run_mc(cfg)
        off_diag = emp.counts - np.diag(np.diag(emp.counts))
        assert off_diag.sum() == 0
        assert emp.counts.sum() == 50_000

    def test_no_attack_diagonal_frequency(self):
        cfg = McConfig(photons=1_000_000, seed=11, params=ProtocolParams(2, 1.0, 0.7, 0.0))
        emp = run_mc(cfg)
        phat = emp.probabilities()
        for col in range(4):
            n = emp.column_totals[col]
            sigma = np.sqrt(P2_DIAG * (1 - P2_DIAG) / n)
            assert abs(phat[col, col] - P2_DIAG) <= 3.0 * sigma

    def test_full_attack_matches_attack_matrix(self):
        params = ProtocolParams(2, 1.0, 0.7, 1.0)
        emp = run_mc(McConfig(photons=1_000_000, seed=5, params=params))
        verdict = compare_empirical(emp, attack_matrix(params))
        assert verdict.max_abs_z <= 4.0

    def test_rejects_zero_photons(self):
        with pytest.raises(DomainError):
            McConfig(photons=0, seed=1, params=ProtocolParams(2, 1.0, 0.7))

    @pytest.mark.parametrize("photons", [2.5, np.nan, np.inf, 0, -1])
    def test_rejects_photon_counts_that_are_not_integers_from_one(self, photons):
        # run_mc samples a whole number of photons, at least one
        with pytest.raises(DomainError, match="photons must be an integer >= 1"):
            McConfig(photons=photons, seed=1, params=ProtocolParams(2, 1.0, 0.7))

    @pytest.mark.parametrize("seed", [1.5, np.nan, np.inf, -1, None])
    def test_rejects_seeds_that_are_not_integers_from_zero(self, seed):
        # the seed of the random stream is a whole number, at least zero
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            McConfig(photons=1, seed=seed, params=ProtocolParams(2, 1.0, 0.7))

    def test_integral_float_photon_count_counts_as_int(self):
        photons = McConfig(photons=2.0, seed=1, params=ProtocolParams(2, 1.0, 0.7)).photons
        assert photons == 2 and type(photons) is int

    def test_convergence_with_photon_count(self):
        params = ProtocolParams(4, 0.5, 0.7, 0.5)
        analytic = mixed_bob_matrix(params)
        devs = []
        for n in (10_000, 100_000, 1_000_000):
            emp = run_mc(McConfig(photons=n, seed=42, params=params))
            devs.append(np.abs(emp.probabilities() - analytic).max())
        assert devs[2] < devs[0]
        assert devs[2] < 5e-3


class TestCompareEmpirical:
    def _fake_counts(self, analytic, n):
        counts = np.rint(analytic * n).astype(np.int64)
        totals = counts.sum(axis=0)
        from tfqkd.oracle import EmpiricalMatrix

        return EmpiricalMatrix(counts=counts, column_totals=totals)

    def test_self_comparison_passes(self):
        analytic = mixed_bob_matrix(ProtocolParams(4, 0.5, 0.7, 0.5))
        emp = self._fake_counts(analytic, 100_000)
        verdict = compare_empirical(emp, analytic)
        assert verdict.passed
        assert verdict.max_abs_z < 0.5  # rounding only

    def test_perturbed_entry_fails(self):
        analytic = mixed_bob_matrix(ProtocolParams(4, 0.5, 0.7, 0.5))
        emp = self._fake_counts(analytic, 100_000)
        counts = emp.counts.copy()
        n = emp.column_totals[0]
        p = analytic[1, 0]
        shift = int(10.0 * np.sqrt(p * (1 - p) / n) * n)
        counts[1, 0] += shift
        counts[2, 0] -= shift
        from tfqkd.oracle import EmpiricalMatrix

        bad = EmpiricalMatrix(counts=counts, column_totals=counts.sum(axis=0))
        verdict = compare_empirical(bad, analytic)
        assert not verdict.passed
        assert verdict.max_abs_z > 4.0

    def test_zero_column_flagged(self):
        analytic = mixed_bob_matrix(ProtocolParams(2, 1.0, 0.7, 0.0))
        from tfqkd.oracle import EmpiricalMatrix

        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 100
        emp = EmpiricalMatrix(counts=counts, column_totals=counts.sum(axis=0))
        verdict = compare_empirical(emp, analytic)
        assert any("zero counts" in note for note in verdict.notes)

    def test_impossible_event_fails(self):
        analytic = mixed_bob_matrix(ProtocolParams(2, 1.0, 0.7, 0.0))  # zero off blocks
        from tfqkd.oracle import EmpiricalMatrix

        counts = np.full((4, 4), 10, dtype=np.int64)  # counts in zero-probability cells
        emp = EmpiricalMatrix(counts=counts, column_totals=counts.sum(axis=0))
        verdict = compare_empirical(emp, analytic)
        assert not verdict.passed
        assert np.isinf(verdict.max_abs_z)

    def test_certain_cell_short_of_its_column_fails(self):
        # analytic 1.0 on the diagonal: a photon outside it leaves the certain
        # cell short of the column total (z = -inf) and lands in an impossible one
        from tfqkd.oracle import EmpiricalMatrix

        counts = np.diag([10, 10, 10, 10]).astype(np.int64)
        counts[1, 0] = 1
        emp = EmpiricalMatrix(counts=counts, column_totals=counts.sum(axis=0))
        verdict = compare_empirical(emp, np.eye(4))
        assert not verdict.passed
        assert verdict.z_scores[0, 0] == -np.inf and verdict.z_scores[1, 0] == np.inf
        assert verdict.z_scores[1, 1] == 0.0

    def test_column_pooled_to_one_cell_is_low_power(self):
        # 3 photons per column: every expected count is below 5, so each column
        # pools into a single cell and has no chi-square
        from tfqkd.oracle import EmpiricalMatrix

        analytic = mixed_bob_matrix(ProtocolParams(4, 0.5, 0.7, 0.5))
        counts = 3 * np.eye(8, dtype=np.int64)
        verdict = compare_empirical(EmpiricalMatrix(counts=counts, column_totals=counts.sum(axis=0)),
                                    analytic)
        assert np.isnan(verdict.chi2_pvalues).all()
        assert "8 columns too thin for a chi-square (low power)" in verdict.notes
        assert verdict.passed

    def test_dimension_mismatch(self):
        analytic = mixed_bob_matrix(ProtocolParams(2, 1.0, 0.7, 0.0))
        emp = self._fake_counts(mixed_bob_matrix(ProtocolParams(4, 0.5, 0.7, 0.0)), 1000)
        with pytest.raises(DomainError):
            compare_empirical(emp, analytic)

    def test_statistical_consistency_run(self):
        params = ProtocolParams(4, 0.5, 0.7, 0.5)
        emp = run_mc(McConfig(photons=1_000_000, seed=42, params=params))
        verdict = compare_empirical(emp, mixed_bob_matrix(params))
        assert verdict.passed


class TestChiSquarePvalues:
    def test_equal_scipy_stats_bitwise(self):
        # dense analytic columns with every expected count >= 5 pool no cell,
        # so each column's statistic has k - 1 degrees of freedom
        from scipy.stats import chi2

        from tfqkd.oracle import EmpiricalMatrix

        rng = np.random.default_rng(7)
        checked = 0
        for k in (2, 3, 5, 8, 16, 32):
            analytic = rng.uniform(1.0, 2.0, (k, k))
            analytic /= analytic.sum(axis=0)
            for tilt in (0.0, 0.01, 0.1, 0.5):
                drawn = (1.0 - tilt) * analytic + tilt * np.eye(k)
                counts = np.column_stack([rng.multinomial(20_000, col) for col in drawn.T])
                emp = EmpiricalMatrix(counts=counts, column_totals=counts.sum(axis=0))
                pvalues = compare_empirical(emp, analytic).chi2_pvalues
                for c in range(k):
                    expected = analytic[:, c] * emp.column_totals[c]
                    stat = float(((counts[:, c] - expected) ** 2 / expected).sum())
                    assert pvalues[c] == chi2.sf(stat, k - 1)
                    checked += 1
        assert checked == 4 * sum((2, 3, 5, 8, 16, 32))

    @pytest.mark.parametrize("thin, dof", [
        ((0.0015, 0.0005), 4),  # the pooled cell expects 2 counts and is kept
        ((0.0003, 0.0002), 3),  # it expects 0.5, so it joins the last kept cell
    ])
    def test_pooled_cells_equal_scipy_stats_bitwise(self, thin, dof):
        # four cells expect >= 5 counts and two fewer, in a different row per
        # column; the thin cells pool into one cell after the kept ones
        from scipy.stats import chi2

        from tfqkd.oracle import EmpiricalMatrix

        rng = np.random.default_rng(11)
        base = np.array([0.4, 0.3, 0.2, 0.1 - sum(thin), *thin])
        analytic = np.column_stack([np.roll(base, c) for c in range(6)])
        for draw in range(8):
            counts = np.column_stack([rng.multinomial(1000, col) for col in analytic.T])
            emp = EmpiricalMatrix(counts=counts, column_totals=counts.sum(axis=0))
            verdict = compare_empirical(emp, analytic)
            assert not any("low power" in note for note in verdict.notes)
            for c in range(6):
                expected = analytic[:, c] * emp.column_totals[c]
                observed = counts[:, c].astype(float)
                keep = expected >= 5.0
                assert keep.sum() == 4
                exp = np.append(expected[keep], expected[~keep].sum())
                obs = np.append(observed[keep], observed[~keep].sum())
                if exp[-1] < 1.0:
                    exp = np.append(exp[:-2], exp[-2] + exp[-1])
                    obs = np.append(obs[:-2], obs[-2] + obs[-1])
                assert exp.size == dof + 1
                stat = float(((obs - exp) ** 2 / exp).sum())
                assert verdict.chi2_pvalues[c] == chi2.sf(stat, dof)


class TestDftSpectrumOracle:
    def test_untruncated_pointwise(self):
        # an interior filter of a vanishingly narrow pulse covers the whole
        # support: spectrum of the untruncated pulse
        oracle = dft_spectrum_oracle(2, 3, 1e-4, grid_step=0.01, grid_span=4.0)
        w = np.linspace(-4.0, 4.0, 801)
        assert np.allclose(oracle.density(w), np.exp(-w * w) / np.sqrt(np.pi), atol=1e-6)
        assert oracle.total_mass == pytest.approx(1.0, abs=1e-8)

    def test_window_outside_support_is_empty(self):
        # m = 4, beta = 1e-4: filter 4 starts at x = 1e4, far outside the
        # pulse support, so its spectrum is exactly zero everywhere
        oracle = dft_spectrum_oracle(4, 4, 1e-4, grid_step=0.01, grid_span=4.0)
        assert oracle.total_mass == 0.0
        assert oracle.w_tail_estimate == 0.0
        for w_lo, w_hi in [(-np.inf, -1.0), (-1.0, 2.5), (3.0, np.inf), (-np.inf, np.inf)]:
            assert oracle.bin_mass(w_lo, w_hi) == 0.0
        assert build_spectrum(4, 4, 1e-4).total_mass == 0.0

    @pytest.mark.parametrize("f", [1, 2, 3, 4])
    def test_total_mass_matches_filter_pass_probability(self, f):
        oracle = dft_spectrum_oracle(f, 4, 0.7, grid_step=0.01, grid_span=8.0)
        layout = make_layout(4)
        expected = density_bin_mass(1.4, 0.0, layout.lower[f - 1], layout.upper[f - 1])
        assert oracle.total_mass == pytest.approx(expected, abs=1e-6)

    def test_agrees_with_panel_spectrum(self):
        spec = build_spectrum(2, 4, 0.7)
        oracle = dft_spectrum_oracle(2, 4, 0.7, grid_step=0.01, grid_span=12.0)
        for w_lo, w_hi in [(-2.0, -0.5), (-0.5, 1.0), (3.0, 8.0)]:
            assert oracle.bin_mass(w_lo, w_hi) == pytest.approx(
                spec.bin_mass(w_lo, w_hi), abs=1e-6
            )

    def test_refuses_bins_beyond_span(self):
        oracle = dft_spectrum_oracle(2, 4, 0.7, grid_step=0.01, grid_span=4.0)
        with pytest.raises(DomainError):
            oracle.bin_mass(3.0, 6.0)

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            dft_spectrum_oracle(2, 4, 0.7, grid_step=0.0)
        with pytest.raises(DomainError):
            dft_spectrum_oracle(2, 4, 0.7, grid_span=-1.0)

    @pytest.mark.parametrize("args,kwargs", [
        ((0, 4, 0.7), {}),
        ((5, 4, 0.7), {}),
        ((2.5, 4, 0.7), {}),
        ((None, 4, 0.7), {}),
        ((1, 4, -0.7), {}),
        ((1, 4, 0.0), {}),
        ((1, 4, np.nan), {}),
        ((1, 4, np.inf), {}),
        ((1, 4, 1e13), {}),
        ((1, 4, 1e-300), {}),
        ((1, 4, [0.7, 0.8]), {}),
        ((2, 4, 0.7), dict(grid_step=np.nan)),
        ((2, 4, 0.7), dict(grid_step=np.inf)),
        ((2, 4, 0.7), dict(grid_span=np.nan)),
        ((2, 4, 0.7), dict(grid_span=np.inf)),
    ], ids=["f-0", "f-above-m", "f-fraction", "f-none", "beta-negative", "beta-0", "beta-nan",
            "beta-inf", "beta-m-above-bound", "beta-m-below-bound", "beta-array", "step-nan", "step-inf",
            "span-nan", "span-inf"])
    def test_rejects_impossible_arguments(self, args, kwargs):
        with pytest.raises(DomainError):
            dft_spectrum_oracle(*args, **kwargs)

    def test_mass_conservation_against_panels(self):
        # every inner bin the channel uses at this operating point
        m, beta, alpha = 4, 0.7, 0.8
        layout = make_layout(m)
        scale = 2.0 / alpha
        for f in range(1, m + 1):
            spec = build_spectrum(f, m, beta)
            oracle = dft_spectrum_oracle(f, m, beta, grid_step=0.01, grid_span=14.0)
            for e in range(1, m - 1):
                for a in range(m):
                    w_lo = scale * (layout.lower[e] - layout.centers[a])
                    w_hi = scale * (layout.upper[e] - layout.centers[a])
                    assert oracle.bin_mass(w_lo, w_hi) == pytest.approx(
                        spec.bin_mass(w_lo, w_hi), abs=1e-6
                    )

    def test_wide_span_resolves_high_frequencies(self):
        # at span 60 the x-grid must follow the span, not the 0.02 w-step,
        # or bins near |w| = 55 drift by ~5e-6
        oracle = dft_spectrum_oracle(8, 16, 0.7, grid_step=0.02, grid_span=60.0)
        assert oracle.bin_mass(54.0, 58.0) == pytest.approx(
            build_spectrum(8, 16, 0.7).bin_mass(54.0, 58.0), abs=1e-6
        )


class TestDftArrayQueries:
    # repeated bins, lo == hi, unbounded sides (both at once too)
    W_LO = np.array([-1.0, 0.5, -1.0, 2.0, -np.inf, 1.5, -np.inf, np.inf, -np.inf, 0.5])
    W_HI = np.array([2.0, 3.5, 2.0, 2.0, -0.5, np.inf, np.inf, np.inf, -np.inf, 3.5])

    def test_array_call_equals_scalar_calls(self):
        oracle = dft_spectrum_oracle(2, 4, 0.7, grid_step=0.01, grid_span=8.0)
        masses = oracle.bin_mass(self.W_LO, self.W_HI)
        assert masses.shape == self.W_LO.shape
        expected = [oracle.bin_mass(lo, hi) for lo, hi in zip(self.W_LO, self.W_HI)]
        assert all(isinstance(x, float) for x in expected)
        assert np.allclose(masses, expected, rtol=0.0, atol=1e-15)
        assert masses[0] == masses[2] and masses[1] == masses[9]
        assert masses[3] == masses[7] == masses[8] == 0.0
        assert masses[6] == oracle.total_mass
        assert np.allclose(oracle.bin_mass(self.W_LO.reshape(2, 5), self.W_HI.reshape(2, 5)),
                           masses.reshape(2, 5), rtol=0.0, atol=1e-15)

    def test_window_outside_support_is_all_zeros(self):
        oracle = dft_spectrum_oracle(4, 4, 1e-4, grid_step=0.01, grid_span=4.0)
        assert np.array_equal(oracle.bin_mass(self.W_LO, self.W_HI), np.zeros(self.W_LO.size))

    def test_one_bad_pair_rejects_the_array(self):
        oracle = dft_spectrum_oracle(2, 4, 0.7, grid_step=0.01, grid_span=4.0)
        with pytest.raises(DomainError):  # one bin beyond the span
            oracle.bin_mass(np.array([-1.0, 3.0]), np.array([1.0, 6.0]))
        with pytest.raises(DomainError):  # one inverted bin
            oracle.bin_mass(np.array([-1.0, 2.0]), np.array([1.0, 1.0]))

    def test_nan_bound_is_domain_error(self):
        oracle = dft_spectrum_oracle(2, 4, 0.7, grid_step=0.01, grid_span=4.0)
        with pytest.raises(DomainError):
            oracle.bin_mass(np.nan, 1.0)
        with pytest.raises(DomainError):
            oracle.bin_mass(np.array([0.0, 0.0]), np.array([1.0, np.nan]))

    def test_validate_runs_one_transform_per_oracle(self, monkeypatch, capsys):
        from tfqkd.cli import main as cli_main
        from tfqkd.oracle import DftSpectrum

        calls = []
        density = DftSpectrum.density

        def counted(self, w):
            calls.append(np.size(w))
            return density(self, w)

        monkeypatch.setattr(DftSpectrum, "density", counted)
        cli_main(["validate", "--m", "16", "--alpha", "0.5", "--beta", "0.7", "--eps", "0.5",
                  "--photons", "10000", "--seed", "42"])
        capsys.readouterr()
        # 16 oracles, each integrating its 29 distinct lattice bins at once
        assert len(calls) == 16
