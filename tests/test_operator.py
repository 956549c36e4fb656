from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walshcs import operator
from walshcs.operator import (
    CobOperator,
    MeasurementVector,
    SizeGuardError,
    Workspace,
    write_matrix_csv,
    write_pgm,
)
from walshcs.walsh import fwht_sequency, ifwht_sequency
from walshcs.wavelets import LevelStructure, build_basis, dwt_forward


def haar_op(r=4, Q=None):
    return CobOperator(build_basis(1, 0), LevelStructure(J0=0, r=r), Q=Q)


def db_op(p, r=5, q=0, Q=None):
    j0 = {3: 3, 4: 3, 8: 4}[p]
    return CobOperator(build_basis(p, j0), LevelStructure(J0=j0, r=r, q=q), Q=Q)


def assert_matches_stack(batched, stacked):
    # a batch reaches BLAS through matrix-matrix instead of matrix-vector
    # products, whose sums may round differently: 1e-15 at unit scale
    assert np.max(np.abs(batched - stacked)) <= 1e-15 * max(1.0, np.max(np.abs(stacked)))


def haar_closed_form(op):
    """|u[i, j]| from the exact Haar block structure."""
    n_rows = 1 << op.Q
    m = op.levels.M_r
    out = np.zeros((n_rows, m))
    out[0, 0] = 1.0
    for j in range(1, m):
        level = j.bit_length() - 1
        out[1 << level : 1 << (level + 1), j] = 2.0 ** (-level / 2.0)
    return out


def test_haar_entries_match_closed_form():
    op = haar_op(r=4)
    dense = np.column_stack([op.column(j, op.n_grid) for j in range(16)])
    assert np.max(np.abs(np.abs(dense) - haar_closed_form(op))) < 1e-12
    assert np.array_equal(op.column(np.arange(16), op.n_grid).T, dense)


def test_entry_validation_and_consistency():
    # single entries u[i, j] read through the row and column readers
    op = db_op(4)
    with pytest.raises(ValueError):
        op.rows_dense(np.array([1 << op.Q]), 1)
    with pytest.raises(ValueError):
        op.column(op.levels.M_r, 1)
    x = np.zeros(op.levels.M_r)
    x[37] = 1.0
    entry = op.rows_dense(np.array([555]), 38)[0, 37]
    assert abs(op.apply(x, np.array([555]))[0] - entry) < 1e-12
    assert abs(op.column(37, 556)[555] - entry) < 1e-12


def test_zero_maps_to_zero():
    op = db_op(3)
    out = op.apply(np.zeros(op.levels.M_r), np.arange(64))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("p", [1, 3, 4, 8])
@settings(max_examples=8, deadline=None)
@given(batch=st.lists(st.integers(1, 3), min_size=1, max_size=2))
def test_adjoint_identity(p, batch):
    op = haar_op() if p == 1 else db_op(p)
    rng = np.random.default_rng(p)
    m = op.levels.M_r
    for _ in range(25):
        x = rng.standard_normal(m)
        omega = np.sort(rng.choice(1 << op.Q, 50, replace=False))
        y = rng.standard_normal(50)
        lhs = np.dot(op.apply(x, omega), y)
        rhs = np.dot(x, op.apply_adjoint(y, omega, L=m))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
    # stacks of coefficient and value vectors: each row as on its own
    xs = rng.standard_normal((*batch, m))
    ys = rng.standard_normal((*batch, 50))
    fwd = op.apply(xs, omega)
    adj = op.apply_adjoint(ys, omega, L=m)
    assert fwd.shape == ys.shape and adj.shape == xs.shape
    assert_matches_stack(fwd, np.reshape([op.apply(x, omega) for x in xs.reshape(-1, m)], fwd.shape))
    assert_matches_stack(
        adj, np.reshape([op.apply_adjoint(y, omega, L=m) for y in ys.reshape(-1, 50)], adj.shape)
    )
    lhs = np.sum(fwd * ys, axis=-1)
    rhs = np.sum(xs * adj, axis=-1)
    bound = 1e-10 * np.linalg.norm(xs, axis=-1) * np.linalg.norm(ys, axis=-1)
    assert np.all(np.abs(lhs - rhs) <= bound)
    # L counts coefficients of the tabulated band: from 1 up to 2^Q
    assert op.apply_adjoint(ys, omega, L=op.n_grid).shape == (*batch, op.n_grid)
    for bad in (0, -3, op.n_grid + 1):
        with pytest.raises(ValueError):
            op.apply_adjoint(ys, omega, L=bad)
    # a short coefficient vector synthesizes as its zero-padded form
    for n in (1, m // 4 + batch[0]):
        padded = np.zeros(xs.shape)
        padded[..., :n] = xs[..., :n]
        assert np.array_equal(op.synthesize(xs[..., :n]), op.synthesize(padded))


@pytest.mark.parametrize("p", [1, 3, 4, 8])
def test_workspace_products_equal_fresh_ones(p):
    # a Workspace changes where the products' arrays live, never a bit of
    # what they return: 1-D vectors and batches of 1-4 (the row batches of
    # rows_dense at Q = 15), at a working scale below Q and at Q
    op = haar_op(r=5) if p == 1 else db_op(p)
    rng = np.random.default_rng(10 + p)
    m_r = op.levels.M_r
    for band in (1 << (op.Q - 3), op.n_grid):
        omega = rng.choice(band, 24, replace=False)
        for L in (m_r, m_r // 2 + 3):
            work = Workspace(op, omega, L)
            assert (work.m < op.Q) == (band < op.n_grid)
            for batch in ((), (1,), (2,), (3,), (4,)):
                x = rng.standard_normal((*batch, L))
                y = rng.standard_normal((*batch, omega.size))
                fwd = op.apply(x, omega, work=work)
                adj = op.apply_adjoint(y, omega, work=work)
                assert np.array_equal(fwd, op.apply(x, omega))
                assert np.array_equal(adj, op.apply_adjoint(y, omega, L=L))
                # a second call with other inputs leaves a first result as it was
                kept = fwd.copy(), adj.copy()
                op.apply(rng.standard_normal(x.shape), omega, work=work)
                op.apply_adjoint(rng.standard_normal(y.shape), omega, work=work)
                assert np.array_equal(fwd, kept[0]) and np.array_equal(adj, kept[1])
    # unit rows as rows_dense reads them, through one workspace per batch
    rows = rng.choice(op.n_grid, 4, replace=False)
    for k in range(1, 5):
        work = Workspace(op, rows[:k], m_r)
        assert np.array_equal(
            op.apply_adjoint(np.eye(k), rows[:k], work=work), op.rows_dense(rows[:k], m_r)
        )
    # coefficients that end at another scale than the workspace's L, values
    # at another number of indices, or an omega or L other than the
    # workspace's, raise
    work = Workspace(op, omega, m_r)
    with pytest.raises(ValueError):
        op.apply(np.ones(m_r // 4), omega, work=work)
    with pytest.raises(ValueError):
        op.apply_adjoint(np.ones(omega.size + 1), omega, work=work)
    with pytest.raises(ValueError):
        op.apply(np.ones(m_r), omega[::-1], work=work)
    with pytest.raises(ValueError):
        op.apply_adjoint(np.ones(omega.size), omega[1:], work=work)
    with pytest.raises(ValueError):
        op.apply_adjoint(np.ones(omega.size), omega, L=m_r // 2, work=work)
    assert op.apply_adjoint(np.ones(omega.size), omega, L=m_r, work=work).shape == (m_r,)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([1, 3, 4, 8]),
    k=st.integers(0, 13),
    L=st.sampled_from([1 << 10, 1000]),
    batch=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=4, k=13, L=1 << 10, batch=[], seed=0)
@example(p=8, k=13, L=1000, batch=[2], seed=1)
def test_band_route_matches_full_grid(p, k, L, batch, seed):
    # samples below 2^k and coefficients below L: apply / apply_adjoint run
    # at the working scale m and must match the transforms on the full
    # 2^Q grid (M_r = 2^10, Q = 13), and equal them where m = Q.  Both routes
    # round: the two adjoints each lie within 1.3e-15 relative of a
    # long-double evaluation, and the routes differ by at most 1.8e-15
    # relative over 2000 random draws
    j0 = {1: 0, 3: 3, 4: 3, 8: 4}[p]
    op = CobOperator(build_basis(p, j0), LevelStructure(J0=j0, r=10 - j0))
    rng = np.random.default_rng(seed)
    omega = rng.choice(1 << k, min(1 << k, 50), replace=False)
    x = rng.standard_normal((*batch, L))
    y = rng.standard_normal((*batch, omega.size))
    fwd = op.apply(x, omega)
    ref_fwd = np.take(fwht_sequency(op.synthesize(x)), omega, axis=-1)
    adj = op.apply_adjoint(y, omega, L=L)
    grid = np.zeros((*batch, op.n_grid))
    grid[..., omega] = y
    ref_adj = dwt_forward(ifwht_sequency(grid), op.basis)[..., :L]
    assert fwd.shape == y.shape and adj.shape == x.shape
    for got, ref in ((fwd, ref_fwd), (adj, ref_adj)):
        assert np.max(np.abs(got - ref)) <= 3e-15 * max(1.0, np.max(np.abs(ref)))
        if int(omega.max()).bit_length() == op.Q:
            assert np.array_equal(got, ref)
    lhs = np.sum(fwd * y, axis=-1)
    rhs = np.sum(x * adj, axis=-1)
    assert np.all(np.abs(lhs - rhs) <= 1e-13 * np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1))


@pytest.mark.parametrize("p", [1, 4])
@settings(max_examples=10, deadline=None)
@given(picks=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=20))
def test_columns_are_unit_norm(p, picks):
    op = haar_op() if p == 1 else db_op(p)
    m = op.levels.M_r
    for j in range(0, m, 7):
        assert abs(np.linalg.norm(op.column(j, op.n_grid)) - 1.0) <= 1e-10
    # an index array (unsorted, repeats, the last column) stacks the columns
    idx = np.array(picks + [m - 1]) % m
    cols = op.column(idx, op.n_grid)
    assert cols.shape == (idx.size, 1 << op.Q)
    assert_matches_stack(cols, np.array([op.column(int(j), op.n_grid) for j in idx]))
    with pytest.raises(ValueError):
        op.column(np.append(idx, m), op.n_grid)
    with pytest.raises(ValueError):
        op.column(np.append(idx, -1), op.n_grid)
    # rows below 2^(Q-1) run through the band route at a smaller scale
    for n in (0, 1, m // 2 + 3, op.n_grid // 4):
        ref = cols[:, :n]
        got = op.column(idx, n)
        assert got.shape == ref.shape
        scale = max(1.0, np.max(np.abs(ref), initial=0.0))
        assert np.max(np.abs(got - ref), initial=0.0) <= 3e-15 * scale
    for bad in (-1, op.n_grid + 1):
        with pytest.raises(ValueError):
            op.column(idx, bad)


def test_full_omega_isometry_haar():
    op = haar_op()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(op.levels.M_r)
    g = op.apply(x, np.arange(1 << op.Q))
    assert abs(np.linalg.norm(g) - np.linalg.norm(x)) < 1e-12
    # a repeated index would keep only its last value in the adjoint
    op = haar_op(r=3)
    omega = np.array([3, 3])
    with pytest.raises(ValueError):
        op.apply(x[: op.levels.M_r], omega)
    with pytest.raises(ValueError):
        op.apply_adjoint(np.ones(2), omega)


def test_section_dense_guard_and_shape():
    op = db_op(4)
    s = op.section_dense(16, 16)
    assert s.shape == (16, 16)
    with pytest.raises(SizeGuardError):
        op.section_dense(1 << 13, 4)
    # a negative row count would slice from the end of the grid
    with pytest.raises(ValueError):
        op.section_dense(-4, 4)
    assert np.max(np.linalg.norm(s, axis=0)) <= 1.0 + 1e-10


def test_column_guard():
    # column blocks obey the rows_dense rule: more than SECTION_GUARD^2
    # entries raise before anything is allocated
    op = haar_op(r=4)
    with mock.patch.object(operator, "SECTION_GUARD", 4):
        with pytest.raises(SizeGuardError):
            op.column(np.arange(5), 4)
        assert op.column(np.arange(4), 4).shape == (4, 4)


def test_haar_section_block_diagonal():
    op = haar_op(r=4)
    s = op.section_dense(16, 16)
    closed = haar_closed_form(op)[:16]
    assert np.max(np.abs(np.abs(s) - closed)) < 1e-12


@settings(max_examples=10, deadline=None)
@given(
    picks=st.lists(st.integers(0, (1 << 11) - 1), min_size=1, max_size=40, unique=True),
    per_batch=st.sampled_from([1, 3, 8, 256]),
)
def test_rows_match_columns(picks, per_batch):
    op = db_op(3)
    rows = op.rows_dense(np.array([3, 17, 40]), 32)
    for a, i in enumerate((3, 17, 40)):
        col_vals = op.column(np.arange(32), i + 1)[:, i]
        assert np.max(np.abs(rows[a] - col_vals)) < 1e-12
    # batched rows (batches of per_batch rows) against the row-by-row adjoint
    picks = np.array(picks)
    with mock.patch.object(operator, "BATCH_ELEMENTS", per_batch << op.Q):
        assert len(op.batches(picks.size)) == -(-picks.size // per_batch)
        rows = op.rows_dense(picks, 64)
    one_by_one = [op.apply_adjoint(np.ones(1), np.array([i]), L=64) for i in picks]
    assert_matches_stack(rows, np.array(one_by_one))
    # a repeated row raises, as a repeated sample index does in apply
    with pytest.raises(ValueError):
        op.rows_dense(np.append(picks, picks[0]), 64)


def test_dc_row_matches_refined_quadrature():
    # u[0, j] is the integral of basis function j; cross-check against
    # quadrature of a four-octaves-finer tabulation, which agrees at the
    # O(2^-Q) rate the boundary cells allow
    from walshcs.wavelets import cascade_tabulate

    for q in (10, 12):
        op = db_op(4, r=2, Q=q)
        basis = op.basis
        for n in (0, 3, 5, 7):
            oracle = cascade_tabulate(basis, 3, n, q + 4).sum() / (1 << (q + 4))
            assert abs(op.column(n, 1)[0] - oracle) < 8.0 * 2.0**-q
        wave = cascade_tabulate(basis, 3, 4, q + 4, kind="wavelet")
        assert abs(op.column(8 + 4, 1)[0] - wave.sum() / (1 << (q + 4))) < 8.0 * 2.0**-q


def test_entry_refinement_convergence():
    # entries recomputed with two extra octaves move by O(2^-Q)
    basis = build_basis(4, 3)
    lv = LevelStructure(J0=3, r=3, q=0)
    entries = [(0, 5), (17, 20), (40, 60), (3, 0)]
    devs = {}
    for q in (9, 11):
        op_a = CobOperator(basis, lv, Q=q)
        op_b = CobOperator(basis, lv, Q=q + 2)
        devs[q] = max(abs(op_a.column(j, i + 1)[i] - op_b.column(j, i + 1)[i]) for i, j in entries)
    assert devs[9] <= 64.0 * 2.0**-9
    assert devs[11] <= 64.0 * 2.0**-11


def test_no_sharpening_with_order():
    # raising the order does not collapse the off-block-diagonal mass of the
    # 256-section (in the Fourier analogue it would shrink by orders of
    # magnitude); partitions follow each basis's own level structure
    fractions = {}
    for p in (3, 8):
        op = db_op(p, r=8 - {3: 3, 8: 4}[p])
        s = op.section_dense(256, 256)
        lv = op.levels
        total = float((s**2).sum())
        diag = 0.0
        for k in range(1, lv.r + 1):
            diag += float((s[lv.N[k - 1] : lv.N[k], lv.M[k - 1] : lv.M[k]] ** 2).sum())
        fractions[p] = 1.0 - diag / total
    assert fractions[8] >= 0.1
    assert fractions[8] >= 0.2 * fractions[3]


def test_measurement_vector_validation():
    with pytest.raises(ValueError):
        MeasurementVector(np.arange(3), np.zeros(2))
    with pytest.raises(ValueError):
        MeasurementVector(np.arange(2), np.zeros(2), delta=-1.0)


def f_string_csv(matrix):
    """Reference CSV writer: one f-string per value, 17 significant digits."""
    return "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in np.atleast_2d(matrix)
    ).encode("ascii")


def test_exports(tmp_path):
    op = haar_op(r=3)
    s = op.section_dense(8, 8)
    csv_path = tmp_path / "sec.csv"
    pgm_path = tmp_path / "sec.pgm"
    write_matrix_csv(s, csv_path)
    write_pgm(s, pgm_path)
    loaded = np.loadtxt(csv_path, delimiter=",")
    assert np.max(np.abs(loaded - s)) < 1e-15
    assert csv_path.read_bytes() == f_string_csv(s)
    raw = pgm_path.read_bytes()
    assert raw.startswith(b"P5\n8 8\n255\n") and len(raw) == len(b"P5\n8 8\n255\n") + 64
    special = np.array(
        [[np.nan, np.inf, -np.inf, -0.0], [5e-324, 2.2250738585072014e-308 / 3, 1e22, -1 / 3]]
    )
    for matrix in (special, special[1]):
        write_matrix_csv(matrix, csv_path)
        assert csv_path.read_bytes() == f_string_csv(matrix)


def test_grid_exponent_guard():
    basis = build_basis(1, 0)
    lv = LevelStructure(J0=0, r=4)
    with pytest.raises(ValueError):
        CobOperator(basis, lv, Q=5)
    assert CobOperator(basis, lv).Q == 7
    # a grid of more than SECTION_GUARD^2 cells raises; construction
    # allocates nothing of grid size either way
    with pytest.raises(SizeGuardError):
        CobOperator(basis, lv, Q=25)
    assert CobOperator(basis, lv, Q=24).n_grid == 1 << 24
