import itertools

import numpy as np
import pytest

from walshcs.analysis import (
    balancing_check,
    coherence_report,
    column_tail_norms,
    m_tilde,
    relative_sparsity_bound,
    relative_sparsity_exact,
    sigma_sM,
    tail_norm,
)
from walshcs.operator import CobOperator
from walshcs.wavelets import LevelStructure, build_basis


def haar_op(r=4):
    return CobOperator(build_basis(1, 0), LevelStructure(J0=0, r=r))


def db_op(p, r, q=0, Q=None):
    j0 = {3: 3, 4: 3, 8: 4}[p]
    return CobOperator(build_basis(p, j0), LevelStructure(J0=j0, r=r, q=q), Q=Q)


def test_coherence_basics():
    # the coherence max |u[i, j]|^2 over all rows and the 2^Q tabulated
    # columns is the largest row coherence of the report: 1 for Haar (the
    # constant row and column), below 1 for p = 4
    rep = coherence_report(haar_op())
    assert abs(rep.mu_row.max() - 1.0) <= 1e-15
    op = db_op(4, r=2)
    rows = op.rows_dense(np.arange(op.levels.N_r), 1 << op.Q)
    rep = coherence_report(op)
    assert abs(rep.mu_row.max() - np.max(np.abs(rows)) ** 2) <= 1e-15
    assert rep.mu_row.max() < 1.0


def test_haar_local_coherence_closed_form():
    op = haar_op()
    rep = coherence_report(op)
    for k in range(1, 5):
        for l in range(1, 5):
            expect = 2.0 ** -(k - 1) if k == l else 0.0
            assert abs(rep.mu[k - 1, l - 1] - expect) < 1e-14
    assert abs(rep.fitted_constant - 1.0) < 1e-12
    assert abs(rep.mu[1, 1] - 0.5) < 1e-14


def test_local_coherence_consistency_with_dense_section():
    # definition cross-check: mu(k,l)^2 = mu(block) * mu(block-row)
    op = db_op(4, r=3)
    rep = coherence_report(op)
    lv = op.levels
    full = op.section_dense(lv.N_r, lv.M_r)
    # block-row max must also scan columns beyond M_r, via full columns
    for k in range(1, lv.r + 1):
        rows = slice(lv.N[k - 1], lv.N[k])
        row_best = max(
            np.max(np.abs(op.column(j, op.n_grid)[rows])) for j in range(lv.M_r)
        )
        row_best = max(
            row_best,
            np.max(np.abs(op.rows_dense(np.arange(rows.start, rows.stop), 1 << op.Q)[:, lv.M_r :])),
        )
        for l in range(1, lv.r + 1):
            blk = np.max(np.abs(full[rows, lv.M[l - 1] : lv.M[l]]))
            assert abs(rep.mu[k - 1, l - 1] - blk * row_best) < 1e-12


def test_mu_inf_bounded():
    op = db_op(3, r=2)
    rep = coherence_report(op)
    # entries of sections of an isometry are at most 1
    assert np.all(rep.mu <= np.sqrt(rep.mu_row[:, None]) + 1e-12)


def test_relative_sparsity_haar_and_zero():
    op = haar_op()
    assert np.max(relative_sparsity_exact(op, (0, 0, 0, 0))) == 0.0
    s = (1, 1, 2, 3)
    exact = relative_sparsity_exact(op, s)
    assert np.max(np.abs(exact - np.array(s))) < 1e-12


def test_relative_sparsity_bruteforce_cross_check():
    op = db_op(4, r=1)  # M_r = 16, single level
    exact = relative_sparsity_exact(op, (2,))
    a = op.section_dense(op.levels.N_r, 16)
    best = 0.0
    for support in itertools.combinations(range(16), 2):
        for signs in ([1, 1], [1, -1]):
            v = a[:, support] @ np.array(signs, dtype=float)
            best = max(best, float(np.sum(v**2)))
    assert abs(exact[0] - best) < 1e-12


def test_relative_sparsity_cap():
    op = db_op(4, r=2)  # M_r = 32
    with pytest.raises(ValueError):
        relative_sparsity_exact(op, (2, 2))


def test_relative_sparsity_bound_shape():
    lv = LevelStructure(J0=0, r=3)
    bound = relative_sparsity_bound(lv, (1, 2, 4), 1.0)
    w = [1 + 2 * 2**-0.5 + 4 * 2**-1, 1 * 2**-0.5 + 2 + 4 * 2**-0.5, 1 * 2**-1 + 2 * 2**-0.5 + 4]
    assert np.max(np.abs(bound - 2.0 * np.array(w))) < 1e-12


def test_tail_norm_haar_and_cap():
    op = haar_op()
    assert tail_norm(op, 16, 16) == 0.0
    assert tail_norm(op, 16, 8) == 0.0
    t = tail_norm(op, 4, 8)  # half of the 8-dim range lies beyond row 4
    assert t <= 1.0 + 1e-10
    op = db_op(4, r=2)
    assert tail_norm(op, 8, 0) == 0.0
    # a negative N would zero all but the last N rows of the tail
    for n, m in ((-4, 8), (8, -1), (op.n_grid + 1, 8), (8, op.levels.M_r + 1)):
        with pytest.raises(ValueError):
            tail_norm(op, n, m)


def test_tail_norm_decay_trend():
    op = db_op(4, r=4, Q=11)
    values = {n: tail_norm(op, n, 64) for n in (128, 256, 512)}
    cols = op.column(np.arange(64), op.n_grid)
    for n, value in values.items():
        reference = np.linalg.svd(cols[:, n:].T, compute_uv=False)[0]
        assert abs(value - reference) <= 1e-12 * reference
    assert values[512] < values[256] < values[128]
    scaled = [values[n] ** 2 * n / 64 for n in (128, 256, 512)]
    assert max(scaled) / min(scaled) < 2.5


def test_tail_norm_wide_tail_matches_section():
    # the columns are unit-norm over the 2^Q rows, so the squared tail norm
    # is one minus the smallest eigenvalue of the head section's Gram matrix
    op = db_op(4, r=7, Q=15)
    s = op.section_dense(2048, 1024)
    reference = np.sqrt(1.0 - np.linalg.eigvalsh(s.T @ s)[0])
    assert abs(tail_norm(op, 2048, 1024) - reference) <= 1e-12 * reference


def test_balancing_haar_exact():
    op = haar_op()
    rep = balancing_check(op, 16, 16, K=4.0, s=3)
    assert rep.norm_head < 1e-12 and rep.norm_tail < 1e-12 and rep.passes


def test_balancing_full_rows_pass():
    op = db_op(3, r=2)
    rep = balancing_check(op, 1 << op.Q, op.levels.M_r, K=2.0, s=4)
    assert rep.norm_head < 1e-10
    assert rep.passes
    op = db_op(4, r=2)
    for n, m in ((-4, 8), (8, -1), (op.n_grid + 1, 8), (8, op.levels.M_r + 1)):
        with pytest.raises(ValueError):
            balancing_check(op, n, m, K=2.0, s=4)


@pytest.mark.parametrize("N, M", [(96, 64), (100, 40)])
def test_balancing_below_half_grid_matches_dense(N, M):
    # N < 2^(Q-1): the columns come from the band route at a smaller scale
    op = db_op(4, r=3)  # M_r = 64, Q = 9
    assert N < 1 << (op.Q - 1)
    rep = balancing_check(op, N, M, K=2.0, s=4)
    R = op.rows_dense(np.arange(N), 1 << op.Q)
    gram = R.T @ R[:, :M]
    head = np.max(np.abs(gram[:M] - np.eye(M)).sum(axis=1))
    tail = np.max(np.abs(gram[M:]).sum(axis=1))
    assert abs(rep.norm_head - head) <= 1e-12 * max(1.0, head)
    assert abs(rep.norm_tail - tail) <= 1e-12 * max(1.0, tail)


def test_m_tilde_haar_and_monotone():
    op = haar_op(r=5)
    for n_exp in (3, 4):
        n = 1 << n_exp
        val = m_tilde(op, n, K=1.0, s=3)
        assert val <= 2 * n
        assert val == n  # closed form in the 0-based convention
    assert m_tilde(op, 8, K=4.0, s=3) >= m_tilde(op, 8, K=1.0, s=3)
    norms = column_tail_norms(op, 8)
    assert np.max(norms[8:]) < 1e-14
    # a negative N would sum no rows and put m_tilde at 0
    op = db_op(4, r=2)
    for bad in (-4, op.n_grid + 1):
        with pytest.raises(ValueError):
            column_tail_norms(op, bad)
        with pytest.raises(ValueError):
            m_tilde(op, bad, K=1.0, s=3)


def test_m_tilde_unreachable_raises():
    op = haar_op(r=3)
    with pytest.raises(RuntimeError):
        m_tilde(op, 1 << op.Q, K=10.0, s=100)


def test_sigma_examples_and_bruteforce():
    lv = LevelStructure(J0=0, r=2)  # blocks of sizes 2, 2
    x = np.array([3.0, -2.0, 1.0, 0.5])
    assert sigma_sM(x, lv, (2, 2)) == 0.0
    assert sigma_sM(x, lv, (1, 1)) == 2.0 + 0.5
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(4)
        s = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        best = np.inf
        for sup0 in itertools.combinations(range(2), s[0]):
            for sup1 in itertools.combinations(range(2, 4), s[1]):
                keep = set(sup0) | set(sup1)
                best = min(best, sum(abs(x[i]) for i in range(4) if i not in keep))
        assert abs(sigma_sM(x, lv, s) - best) < 1e-12


def test_sparsity_report_bundles_exact_and_bound():
    from walshcs.analysis import sparsity_report

    op = haar_op(r=3)
    coeffs = np.arange(8, dtype=float)
    rep = sparsity_report(op, (1, 1, 2), constant=1.0, coeffs=coeffs)
    assert np.max(np.abs(rep.exact - np.array([1.0, 1.0, 2.0]))) < 1e-12
    assert rep.sigma == sigma_sM(coeffs, op.levels, (1, 1, 2))
    big = db_op(4, r=2)
    rep = sparsity_report(big, (2, 2))
    assert rep.exact is None and rep.bound.shape == (2,)


def test_level_locality_small():
    # mu tables computed under two bandwidths agree on shared blocks
    op_a = db_op(3, r=3, Q=10)
    op_b = db_op(3, r=4, Q=10)
    rep_a = coherence_report(op_a)
    rep_b = coherence_report(op_b)
    shared = np.s_[:3, :3]
    assert np.max(np.abs(rep_a.mu[shared] - rep_b.mu[shared])) < 1e-10
