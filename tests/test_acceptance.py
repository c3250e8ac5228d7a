"""Acceptance suite: one test per criterion, each printing a verdict line.

The heavy sweep is computed once and shared between the criteria that draw
on the same (m, epsilon) points.  Stated runtime budgets are asserted.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import record_acceptance

from tfqkd.channel import ProtocolParams, make_layout
from tfqkd.cli import main as cli_main
from tfqkd.infotheory import i_ae, mutual_info_dual, mutual_info_single
from tfqkd.optimizer import c_surface, optimize_point, sweep
from tfqkd.oracle import dft_spectrum_oracle
from tfqkd.pulse_math import build_spectrum, density_bin_mass


def _verdict(number: int, ok: bool, detail: str):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    record_acceptance(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def sweep_results():
    """Optimized points over m in {2,4,8,16,32} x eps in {0,0.25,0.5,0.75}."""
    t0 = time.time()
    entries = sweep([2, 4, 8, 16, 32], [0.0, 0.25, 0.5, 0.75])
    elapsed = time.time() - t0
    table = {(e.m, e.epsilon): e.result for e in entries}
    assert all(e.status == "ok" for e in entries)
    return table, elapsed


def test_criterion_1_vanishing_interception_limit():
    ok = True
    details = []
    for m in (2, 4, 8):
        t0 = time.time()
        res = optimize_point(m, 0.0)
        elapsed = time.time() - t0
        target = 0.99 * math.log2(m)
        ok &= res.c_opt >= target and elapsed < 60.0
        details.append(f"m={m}: C={res.c_opt:.4f} (>= {target:.4f}), {elapsed:.1f}s")
    _verdict(1, ok, "no-interception capacity approaches log2(m); " + "; ".join(details))


def test_criterion_2_heavy_interception_cutoff():
    t0 = time.time()
    ok = True
    details = []
    for m in (2, 4, 8, 16):
        for eps in (0.9, 1.0):
            res = optimize_point(m, eps)
            ok &= res.c_opt == 0.0
            details.append(f"({m},{eps})={res.c_opt}")
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    _verdict(2, ok, f"capacity exactly zero for eps >= 0.9 "
                    f"[{', '.join(details)}], {elapsed:.0f}s")


def test_criterion_3_optimal_width_brackets(sweep_results):
    table, sweep_time = sweep_results
    ok = True
    details = []
    for m in (16, 32):
        for eps in (0.25, 0.5):
            res = table[(m, eps)]
            in_alpha = 0.3 <= res.alpha_opt <= 0.7
            in_beta = 0.5 <= res.beta_opt <= 0.9
            ok &= in_alpha and in_beta
            details.append(
                f"({m},{eps}): alpha={res.alpha_opt:.3f} beta={res.beta_opt:.3f}"
            )
    ok &= sweep_time < 1800.0
    _verdict(3, ok, "alpha_opt in [0.3,0.7], beta_opt in [0.5,0.9]; "
                    + "; ".join(details) + f"; sweep {sweep_time:.0f}s")


def _monotonic_trends(table):
    """Criterion 4's predicate on a sweep table {(m, eps): OptimizationResult}.

    The capacity is clamped at zero, so along m it may rest on the zero
    plateau: a positive C must grow strictly with the next m, a zero C may
    stay zero but never drop, and every eps row must be positive at the
    largest m.  Along eps, C must not increase (1e-12 slack).

    Returns (m_failures, eps_failures, plateau): each failure names its
    (eps, m) pair, and plateau lists the zero points with the stage-1
    capacity next to c_opt.
    """
    ms = (2, 4, 8, 16, 32)
    epss = (0.0, 0.25, 0.5, 0.75)
    m_failures = []
    plateau = []
    for eps in epss:
        caps = [table[(m, eps)].c_opt for m in ms]
        plateau += [
            f"(eps={eps}, m={m}): C=0 stage1={table[(m, eps)].stage1_capacity:.4f}"
            for m, c in zip(ms, caps) if c == 0.0
        ]
        for k in range(len(ms) - 1):
            lo, hi = caps[k], caps[k + 1]
            grows = hi > lo if lo > 0.0 else hi >= lo
            if not grows:
                relation = "!<" if lo > 0.0 else "!<="
                m_failures.append(
                    f"(eps={eps}, m={ms[k + 1]}): C(m={ms[k]})={lo:.4f} "
                    f"{relation} C(m={ms[k + 1]})={hi:.4f}"
                )
        if not caps[-1] > 0.0:
            m_failures.append(f"(eps={eps}, m={ms[-1]}): C={caps[-1]:.4f} not > 0")
    eps_failures = []
    for m in ms:
        caps = [table[(m, eps)].c_opt for eps in epss]
        for k in range(len(epss) - 1):
            if not caps[k + 1] <= caps[k] + 1e-12:
                eps_failures.append(
                    f"(eps={epss[k + 1]}, m={m}): C(eps={epss[k]})={caps[k]:.4f} "
                    f"!>= C(eps={epss[k + 1]})={caps[k + 1]:.4f}"
                )
    return m_failures, eps_failures, plateau


def test_criterion_4_monotonic_trends(sweep_results):
    table, sweep_time = sweep_results
    m_failures, eps_failures, plateau = _monotonic_trends(table)
    ok = not m_failures and not eps_failures and sweep_time < 1800.0
    detail = (
        f"increasing in m once positive, never dropping: {not m_failures}"
        + (f" ({'; '.join(m_failures)})" if m_failures else "")
        + f"; non-increasing in eps: {not eps_failures}"
        + (f" ({'; '.join(eps_failures)})" if eps_failures else "")
        + f"; zero plateau [{', '.join(plateau)}]; sweep {sweep_time:.0f}s"
    )
    _verdict(4, ok, detail)


def test_criterion_5_surface_flat_in_beta():
    t0 = time.time()
    alpha_axis = np.round(np.arange(0.1, 1.5001, 0.05), 10)
    beta_axis = np.round(np.arange(0.5, 1.0001, 0.05), 10)
    grid = c_surface(4, 0.5, alpha_axis, beta_axis)
    i, j = np.unravel_index(np.argmax(grid.capacity), grid.capacity.shape)
    var_beta = float(grid.capacity[i, :].max() - grid.capacity[i, :].min())
    var_alpha = float(grid.capacity[:, j].max() - grid.capacity[:, j].min())
    elapsed = time.time() - t0
    ok = var_beta < 0.05 * var_alpha and elapsed < 300.0
    _verdict(5, ok, f"beta variation {var_beta:.5f} < 5% of alpha variation "
                    f"{var_alpha:.5f} (ratio {var_beta / var_alpha:.3f}), {elapsed:.0f}s")


def test_criterion_6_oracle_equivalence(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "validate.json"
    code = cli_main([
        "validate", "--m", "4", "--alpha", "0.5", "--beta", "0.7", "--eps", "0.5",
        "--photons", "1000000", "--seed", "42", "--out", str(out),
    ])
    payload = json.loads(out.read_text())
    elapsed = time.time() - t0
    pvals = [p for p in payload["chi2_pvalues"] if p is not None]
    ok = (
        code == 0
        and payload["passed"]
        and payload["max_abs_z"] <= 4.0
        and min(pvals) >= 1e-3
        and elapsed < 120.0
    )
    _verdict(6, ok, f"validate passes: max|z|={payload['max_abs_z']:.3f}, "
                    f"min chi2 p={min(pvals):.4f}, {elapsed:.0f}s")


def test_criterion_7_spectrum_conservation():
    t0 = time.time()
    alpha = 0.8
    worst_total = 0.0
    worst_bin = 0.0
    for m in (2, 4, 8):
        layout = make_layout(m)
        scale = 2.0 / alpha
        w_lo = scale * (layout.lower[1:-1, None] - layout.centers[None, :])  # inner bins
        w_hi = scale * (layout.upper[1:-1, None] - layout.centers[None, :])
        for beta in (0.3, 0.7, 1.2):
            for f in range(1, m + 1):
                spec = build_spectrum(f, m, beta)
                expected = density_bin_mass(
                    0.5 * beta * m, 0.0, layout.lower[f - 1], layout.upper[f - 1]
                )
                worst_total = max(worst_total, abs(spec.total_mass_numeric - expected))
                span = scale * (m - 1.5) * 1.05 + 1.0
                oracle = dft_spectrum_oracle(f, m, beta, grid_step=0.005, grid_span=span)
                dev = np.abs(spec.bin_mass(w_lo, w_hi) - oracle.bin_mass(w_lo, w_hi))
                worst_bin = max(worst_bin, dev.max(initial=0.0))
    elapsed = time.time() - t0
    ok = worst_total <= 1e-8 and worst_bin <= 1e-6 and elapsed < 300.0
    _verdict(7, ok, f"total-mass dev {worst_total:.2e} <= 1e-8, "
                    f"oracle bin dev {worst_bin:.2e} <= 1e-6, {elapsed:.0f}s")


def test_criterion_8_invariant_suite(tmp_path):
    t0 = time.time()
    from tfqkd.channel import (
        attack_matrix,
        bob_matrix,
        eve_matrix,
        mixed_bob_matrix,
        p_correct,
        p_second_correct,
        p_wrong,
    )

    checks = []

    # column stochasticity: 1e-9 on closed-form paths, 1e-6 on spectral paths
    for m, alpha, beta in [(2, 0.3, 1.2), (4, 0.5, 0.7), (8, 1.1, 0.4)]:
        params = ProtocolParams(m, alpha, beta, 0.5)
        for mat in (p_correct(params), p_wrong(params), bob_matrix(params),
                    attack_matrix(params), mixed_bob_matrix(params)):
            checks.append(np.allclose(mat.sum(axis=0), 1.0, atol=1e-9))
        for mat in (p_second_correct(params), eve_matrix(params)):
            checks.append(np.allclose(mat.sum(axis=0), 1.0, atol=1e-6))
        # mirror symmetry
        pc, pw, ps = p_correct(params), p_wrong(params), p_second_correct(params)
        checks.append(np.allclose(pc, pc[::-1, ::-1], atol=1e-9))
        checks.append(np.allclose(pw, pw[::-1, ::-1], atol=1e-9))
        checks.append(np.allclose(ps, ps[::-1, ::-1], atol=1e-6))
        # information bounds
        n = math.log2(m)
        dual = mutual_info_dual(mixed_bob_matrix(params))
        checks.append(-1e-12 <= dual <= n + 1e-12)

    # linearity of the interceptor's information in the intercepted fraction
    full = i_ae(ProtocolParams(4, 0.5, 0.7, 1.0))
    for eps in (0.2, 0.6, 0.95):
        checks.append(abs(i_ae(ProtocolParams(4, 0.5, 0.7, eps)) - eps * full) <= 1e-12)

    # block decomposition identity
    rng = np.random.default_rng(0)
    for _ in range(3):
        blk = rng.random((4, 4)) + 0.05
        blk /= blk.sum(axis=0)
        dual_mat = np.zeros((8, 8))
        dual_mat[:4, :4] = blk
        dual_mat[4:, 4:] = blk
        lhs = mutual_info_dual(dual_mat)
        rhs = mutual_info_single(blk, np.full(4, 0.25))
        checks.append(abs(lhs - rhs) <= 1e-12)

    # byte-identical rerun of every command
    commands = {
        "surface": ["surface", "--m", "2", "--eps", "0.5",
                    "--alpha", "0.3:0.9:0.3", "--beta", "0.3:0.9:0.3"],
        "optimize": ["optimize", "--m", "2", "--eps", "0.5", "--step", "0.25"],
        "sweep": ["sweep", "--m", "2,4", "--eps", "0,0.5", "--step", "0.25"],
        "validate": ["validate", "--m", "2", "--alpha", "0.8", "--beta", "0.7",
                     "--eps", "0.5", "--photons", "20000", "--seed", "3"],
        "keyrate": ["keyrate", "--m", "2", "--eps", "0", "--rep-rate-hz", "1e6",
                    "--step", "0.25"],
    }
    deterministic = True
    for name, args in commands.items():
        out1 = tmp_path / f"{name}-1.out"
        out2 = tmp_path / f"{name}-2.out"
        cli_main(args + ["--out", str(out1)])
        cli_main(args + ["--out", str(out2)])
        deterministic &= out1.read_bytes() == out2.read_bytes()
    checks.append(deterministic)

    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 300.0
    _verdict(8, ok, f"{sum(checks)}/{len(checks)} invariants hold "
                    f"(CLI determinism: {deterministic}), {elapsed:.0f}s")
