"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.  Stochastic criteria use seeds 0..9.
"""

import itertools
import math
import time

import numpy as np
import pytest

from walshcs.analysis import (
    coherence_report,
    m_tilde,
    relative_sparsity_exact,
    tail_norm,
)
from walshcs.operator import CobOperator, MeasurementVector
from walshcs.reconstruct import (
    ReconstructionConfig,
    reconstruct_signal,
    relative_l2_error,
    solve_bpdn,
    truncated_walsh,
)
from walshcs.sampling import SparsityProfile, allocate_budget, draw_scheme, flip_pattern
from walshcs.signals import signal_jump, signal_smooth
from walshcs.walsh import (
    PALEY,
    DyadicPoint,
    SequencyIndex,
    WalshPolynomial,
    fwht_sequency,
    wal_eval,
    walsh_poly_eval,
    walsh_shift_identity_check,
)
from walshcs.wavelets import LevelStructure, build_basis, dwt_forward, dwt_inverse

SEEDS = range(10)


def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return ok


@pytest.fixture(scope="module")
def solver_op():
    # p = 4 operator wide enough for L = 2^12 solves and N up to 2^12
    basis = build_basis(4, 3)
    return CobOperator(basis, LevelStructure(J0=3, r=9, q=0))


def _cs_run(op, signal_grid, R, q, budget, seed, L, max_iter=1200):
    levels = LevelStructure(J0=op.basis.J0, r=R - op.basis.J0, q=q)
    sparsity = tuple(
        min(16 >> (k - 1) if k > 1 else 8, int(d))
        for k, d in enumerate(np.diff(levels.N), start=1)
    )
    m = allocate_budget(
        SparsityProfile(sparsity), levels, budget, policy="uniform", full_first=True
    )
    cfg = ReconstructionConfig(L=L, max_iter=max_iter)
    return reconstruct_signal(op, signal_grid, draw_scheme(levels, m, seed), cfg)[2]


def test_criterion_1_haar_exactness():
    start = time.time()
    op = CobOperator(build_basis(1, 0), LevelStructure(J0=0, r=8))
    n_rows, m = 1 << op.Q, op.levels.M_r
    closed = np.zeros((n_rows, m))
    closed[0, 0] = 1.0
    for j in range(1, m):
        lev = j.bit_length() - 1
        closed[1 << lev : 1 << (lev + 1), j] = 2.0 ** (-lev / 2.0)
    dense = np.column_stack([op.column(j, op.n_grid) for j in range(m)])
    entry_dev = float(np.max(np.abs(np.abs(dense) - closed)))

    rep = coherence_report(op)
    mu_expect = np.diag([2.0 ** -(k - 1) for k in range(1, 9)])
    mu_dev = float(np.max(np.abs(rep.mu - mu_expect)))
    tails = [tail_norm(op, 256, 256), tail_norm(op, 128, 64)]
    mt = [m_tilde(op, 1 << k, K=2.0, s=3) for k in (3, 5)]
    elapsed = time.time() - start
    ok = (
        entry_dev <= 1e-12
        and mu_dev <= 1e-12
        and all(t == 0.0 for t in tails)
        and all(v == (1 << k) for v, k in zip(mt, (3, 5)))
        and elapsed < 10.0
    )
    assert _report(
        1,
        ok,
        f"entry dev {entry_dev:.1e}, mu dev {mu_dev:.1e}, tails {tails}, "
        f"m_tilde {mt} (= N <= 2N), {elapsed:.1f}s",
    )


def test_criterion_2_walsh_algebra():
    start = time.time()
    scale = 8
    n_pts = 1 << scale

    def paley_row(z):
        return np.array(
            [wal_eval(SequencyIndex(z, PALEY), DyadicPoint(x, scale)) for x in range(n_pts)],
            dtype=float,
        )

    table = np.array([paley_row(z) for z in range(n_pts)])
    scaling_dev = 0.0
    for j in (1, 2):
        perm = (np.arange(n_pts) << j) & (n_pts - 1)
        for z in range(n_pts):
            lhs = paley_row(z << j)
            scaling_dev = max(scaling_dev, float(np.max(np.abs(lhs - table[z][perm]))))

    mult_dev = 0.0
    xor_idx = np.arange(n_pts)[:, None] ^ np.arange(n_pts)[None, :]
    for z in range(n_pts):
        row = table[z]
        mult_dev = max(mult_dev, float(np.max(np.abs(np.outer(row, row) - row[xor_idx]))))

    rng = np.random.default_rng(0)
    shift_dev = 0.0
    for t in (1, 2, 3):
        f = rng.standard_normal(n_pts)
        shift_dev = max(shift_dev, walsh_shift_identity_check(f, t, s_indices=range(64)))

    parseval_dev = 0.0
    for _ in range(100):
        width = int(rng.integers(1, 17))
        offset = int(rng.integers(0, 300))
        two_l = 1
        while two_l < width:
            two_l *= 2
        coeffs = rng.standard_normal(width)
        poly = WalshPolynomial(offset, coeffs)
        s = two_l.bit_length() - 1
        tot = sum(walsh_poly_eval(poly, DyadicPoint(j, s)) ** 2 for j in range(two_l))
        parseval_dev = max(parseval_dev, abs(tot / two_l - float(np.sum(coeffs**2))))

    elapsed = time.time() - start
    ok = (
        scaling_dev <= 1e-10
        and mult_dev <= 1e-10
        and shift_dev <= 1e-10
        and parseval_dev <= 1e-10
        and elapsed < 30.0
    )
    assert _report(
        2,
        ok,
        f"scaling {scaling_dev:.1e}, multiplicative {mult_dev:.1e}, "
        f"shift {shift_dev:.1e}, Parseval {parseval_dev:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_transform_oracles():
    start = time.time()
    n = 512
    scale = 9
    naive = np.array(
        [[wal_eval(i, DyadicPoint(j, scale)) for j in range(n)] for i in range(n)],
        dtype=float,
    )
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n)
    fwht_dev = float(np.max(np.abs(fwht_sequency(v) - naive @ v / n)))

    rt_dev = 0.0
    for p, j0 in ((3, 3), (4, 3), (8, 4)):
        basis = build_basis(p, j0)
        w = rng.standard_normal(1024)
        rt_dev = max(rt_dev, float(np.max(np.abs(dwt_inverse(dwt_forward(w, basis), basis, 10) - w))))

    adj_dev = 0.0
    for p, j0 in ((1, 0), (3, 3), (4, 3), (8, 4)):
        op = CobOperator(build_basis(p, j0), LevelStructure(J0=j0, r=5 - (j0 > 3)))
        m = op.levels.M_r
        for _ in range(25):
            x = rng.standard_normal(m)
            omega = np.sort(rng.choice(1 << op.Q, 40, replace=False))
            y = rng.standard_normal(40)
            gap = abs(np.dot(op.apply(x, omega), y) - np.dot(x, op.apply_adjoint(y, omega, L=m)))
            adj_dev = max(adj_dev, gap / (np.linalg.norm(x) * np.linalg.norm(y)))

    elapsed = time.time() - start
    ok = fwht_dev <= 1e-12 and rt_dev <= 1e-10 and adj_dev <= 1e-10 and elapsed < 60.0
    assert _report(
        3,
        ok,
        f"fwht vs naive {fwht_dev:.1e}, roundtrip {rt_dev:.1e}, "
        f"adjoint {adj_dev:.1e} over 100 pairs, {elapsed:.1f}s",
    )


def test_criterion_4_tail_norm_decay():
    start = time.time()
    op = CobOperator(build_basis(4, 3), LevelStructure(J0=3, r=6, q=0))
    values = [tail_norm(op, n, 64) ** 2 * n / 64.0 for n in (64, 128, 256, 512)]
    spread = max(values) / min(values)
    elapsed = time.time() - start
    ok = spread <= 2.0 and elapsed < 120.0
    assert _report(
        4, ok, f"tail^2*N/M over N sweep {[round(v, 3) for v in values]}, "
        f"max/min {spread:.2f} <= 2, {elapsed:.1f}s"
    )


def test_criterion_5_local_coherence_shape():
    start = time.time()
    changes = {}
    for p, j0 in ((3, 3), (4, 3), (8, 4)):
        basis = build_basis(p, j0)
        fitted = {}
        for big_r in (8, 9):  # N = 256 and 512
            op = CobOperator(basis, LevelStructure(J0=j0, r=big_r - j0, q=0))
            rep = coherence_report(op)
            fitted[1 << big_r] = rep.fitted_constant
        changes[p] = abs(fitted[512] - fitted[256]) / fitted[256]
        assert math.isfinite(fitted[256]) and math.isfinite(fitted[512])
    elapsed = time.time() - start
    ok = all(c < 0.25 for c in changes.values()) and elapsed < 300.0
    assert _report(
        5,
        ok,
        "relative change of max mu(k,l)*2^(J0+k-1)*2^(|k-l|/2) at N=256 vs 512: "
        + ", ".join(f"p={p}: {100 * c:.1f}%" for p, c in changes.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_6_relative_sparsity_bound():
    start = time.time()
    instances = []
    for r, s in [
        (2, (1, 2)),
        (3, (1, 1, 2)),
        (4, (1, 1, 2, 3)),
        (4, (2, 2, 2, 2)),
        (3, (2, 1, 4)),
    ]:
        instances.append((CobOperator(build_basis(1, 0), LevelStructure(J0=0, r=r)), s))
    for p, j0 in ((3, 3), (4, 3)):
        op = CobOperator(build_basis(p, j0), LevelStructure(J0=j0, r=1))
        for s in ((2,), (3,)):
            instances.append((op, s))

    records = []
    for op, s in instances:
        exact = relative_sparsity_exact(op, s)
        lv = op.levels
        karr = np.arange(1, lv.r + 1)
        for k in range(1, lv.r + 1):
            weight = 2.0 * float(
                np.sum(2.0 ** (-np.abs(k - karr) / 2.0) * np.array(s, dtype=float))
            )
            records.append((exact[k - 1], weight))
    c_fit = max(v / w for v, w in records)
    margin = all(v <= c_fit * w * (1.0 + 1e-12) for v, w in records)
    elapsed = time.time() - start
    ok = margin and math.isfinite(c_fit) and 0 < c_fit < 20 and elapsed < 120.0
    assert _report(
        6,
        ok,
        f"{len(records)} (instance, level) pairs, fitted constant {c_fit:.3f}, "
        f"bound holds for all, {elapsed:.1f}s",
    )


def test_criterion_7_reconstruction_quality(solver_op):
    start = time.time()
    q_grid = solver_op.Q
    f_grid = signal_smooth(q_grid)
    g_grid = signal_jump(q_grid)
    tw_f32 = relative_l2_error(truncated_walsh(fwht_sequency(f_grid)[:32], q_grid), f_grid)
    tw_g64 = relative_l2_error(truncated_walsh(fwht_sequency(g_grid)[:64], q_grid), g_grid)

    f_errs, g_errs = [], []
    for seed in SEEDS:
        f_errs.append(_cs_run(solver_op, f_grid, R=5, q=1, budget=32, seed=seed, L=1 << 12))
        g_errs.append(_cs_run(solver_op, g_grid, R=7, q=1, budget=64, seed=seed, L=1 << 12))
    f_ok = sum(e <= 0.10 for e in f_errs)
    g_ok = sum(e <= 0.06 for e in g_errs)
    beat_f = sum(e < tw_f32 for e in f_errs)
    beat_g = sum(e < tw_g64 for e in g_errs)
    elapsed = time.time() - start
    ok = f_ok >= 9 and g_ok >= 9 and beat_f >= 9 and beat_g >= 9 and elapsed < 600.0
    assert _report(
        7,
        ok,
        f"CS f|m|=32 errors {[round(e, 3) for e in f_errs]} (<=0.10 in {f_ok}/10), "
        f"CS g|m|=64 errors {[round(e, 3) for e in g_errs]} (<=0.06 in {g_ok}/10), "
        f"beat TW at equal budget (f: {tw_f32:.4f}, g: {tw_g64:.4f}) in "
        f"{beat_f}/10 and {beat_g}/10, {elapsed:.0f}s",
    )


def test_criterion_7_tw_baseline_targets(solver_op):
    # pinned targets: 0.078 at budget 64 and 0.085 at budget 256; the
    # deterministic baselines at those budgets are reported together with
    # the budgets whose baselines do take those values
    q_grid = solver_op.Q
    f_grid = signal_smooth(q_grid)
    g_grid = signal_jump(q_grid)
    tw_f64 = relative_l2_error(truncated_walsh(fwht_sequency(f_grid)[:64], q_grid), f_grid)
    tw_g256 = relative_l2_error(truncated_walsh(fwht_sequency(g_grid)[:256], q_grid), g_grid)
    tw_f32 = relative_l2_error(truncated_walsh(fwht_sequency(f_grid)[:32], q_grid), f_grid)
    tw_g64 = relative_l2_error(truncated_walsh(fwht_sequency(g_grid)[:64], q_grid), g_grid)
    ok = abs(tw_f64 - 0.078) <= 0.2 * 0.078 and abs(tw_g256 - 0.085) <= 0.2 * 0.085
    assert _report(
        "7-TW",
        ok,
        f"TW(f,64) = {tw_f64:.4f} vs 0.078 +-20%, TW(g,256) = {tw_g256:.4f} vs "
        f"0.085 +-20%; for reference TW(f,32) = {tw_f32:.4f}, TW(g,64) = {tw_g64:.4f}",
    )


def test_criterion_8_error_curve_monotone(solver_op):
    start = time.time()
    g_grid = signal_jump(solver_op.Q)
    good = 0
    curves = []
    for seed in SEEDS:
        errs = [
            _cs_run(solver_op, g_grid, R=7, q=q, budget=256, seed=seed, L=1 << 12)
            for q in (1, 2, 3)
        ]
        curves.append(errs)
        if errs[0] >= errs[1] * (1 - 1e-9) and errs[1] >= errs[2] * (1 - 1e-9):
            good += 1
    elapsed = time.time() - start
    ok = good >= 9
    assert _report(
        8,
        ok,
        f"non-increasing error over N in (256, 512, 1024) for {good}/10 seeds, "
        f"first curve {[round(e, 4) for e in curves[0]]}, {elapsed:.0f}s",
    )


def test_criterion_9_flip_test():
    start = time.time()
    basis = build_basis(4, 3)
    op = CobOperator(basis, LevelStructure(J0=3, r=7, q=0))  # L = 2^10 regime
    f_grid = signal_smooth(op.Q)
    good = 0
    ratios = []
    for seed in SEEDS:
        levels = LevelStructure(J0=3, r=2, q=3)  # R = 5, N = 2^8
        m = allocate_budget(
            SparsityProfile((8, 4)), levels, 64, policy="uniform", full_first=True
        )
        scheme = draw_scheme(levels, m, seed)
        flipped = flip_pattern(scheme)
        cfg = ReconstructionConfig(L=1 << 10, max_iter=1500)
        e_straight = reconstruct_signal(op, f_grid, scheme, cfg)[2]
        e_flip = reconstruct_signal(op, f_grid, flipped, cfg)[2]
        ratios.append(e_flip / e_straight)
        if e_flip >= 5.0 * e_straight:
            good += 1
    elapsed = time.time() - start
    ok = good >= 9 and elapsed < 120.0
    assert _report(
        9,
        ok,
        f"flipped/structured error ratios {[round(r, 1) for r in ratios]}, "
        f">=5x in {good}/10 seeds, {elapsed:.0f}s",
    )


def test_criterion_10_solver_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    start = time.time()
    op = CobOperator(build_basis(1, 0), LevelStructure(J0=0, r=5))
    dense = np.column_stack([op.column(j, op.n_grid) for j in range(32)])
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    worst_feas = 0.0
    for _ in range(50):
        n_meas = int(rng.integers(8, 21))
        omega = np.sort(rng.choice(1 << op.Q, n_meas, replace=False))
        x0 = np.zeros(32)
        x0[rng.choice(32, 3, replace=False)] = rng.standard_normal(3)
        delta = 0.25
        noise = rng.standard_normal(n_meas)
        g_vals = op.apply(x0, omega) + noise * (0.5 * delta / np.linalg.norm(noise))
        xi = cvxpy.Variable(32)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.norm1(xi)),
            [cvxpy.norm2(dense[omega] @ xi - g_vals) <= delta],
        )
        prob.solve(solver=cvxpy.CLARABEL)
        res = solve_bpdn(
            op,
            omega,
            MeasurementVector(omega, g_vals, delta=delta),
            ReconstructionConfig(L=32, max_iter=40000, tol=1e-9),
        )
        worst_gap = max(worst_gap, abs(res.objective - prob.value))
        worst_feas = max(worst_feas, res.feasibility_gap)
    elapsed = time.time() - start
    ok = worst_gap <= 1e-5 and worst_feas <= 1e-6 and elapsed < 120.0
    assert _report(
        10,
        ok,
        f"50 instances: worst objective gap {worst_gap:.2e} (<=1e-5), "
        f"worst feasibility gap {worst_feas:.2e} (<=1e-6), {elapsed:.0f}s",
    )
