import hashlib

import numpy as np
import pytest

from walshcs import reconstruct
from walshcs.operator import CobOperator, MeasurementVector
from walshcs.reconstruct import (
    ReconstructionConfig,
    measure_signal,
    relative_l2_error,
    solve_bpdn,
    truncated_walsh,
)
from walshcs.sampling import SparsityProfile, allocate_budget, draw_scheme
from walshcs.signals import signal_jump, signal_smooth
from walshcs.walsh import DyadicPoint, fwht_sequency, ifwht_sequency, wal_eval
from walshcs.wavelets import LevelStructure, build_basis


def haar_op():
    return CobOperator(build_basis(1, 0), LevelStructure(J0=0, r=5))


def test_config_validation():
    with pytest.raises(ValueError):
        ReconstructionConfig(L=24)
    with pytest.raises(ValueError):
        ReconstructionConfig(delta=-1.0)


def test_zero_is_solution_when_delta_large():
    op = haar_op()
    omega = np.arange(10)
    g = MeasurementVector(omega, 0.1 * np.ones(10), delta=5.0)
    res = solve_bpdn(op, omega, g, ReconstructionConfig(L=32, max_iter=200))
    assert np.all(res.coeffs == 0.0)
    assert res.objective == 0.0


def test_full_sampling_recovers_sparse_vector():
    op = haar_op()
    rng = np.random.default_rng(2)
    x0 = np.zeros(32)
    x0[rng.choice(32, 4, replace=False)] = rng.standard_normal(4)
    omega = np.arange(1 << op.Q)
    g = MeasurementVector(omega, op.apply(x0, omega), delta=0.0)
    res = solve_bpdn(op, omega, g, ReconstructionConfig(L=32, max_iter=4000, tol=1e-9))
    assert np.max(np.abs(res.coeffs - x0)) < 1e-6


def test_objective_matches_convex_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    op = haar_op()
    rng = np.random.default_rng(3)
    for trial in range(5):
        omega = np.sort(rng.choice(1 << op.Q, 16, replace=False))
        x0 = np.zeros(32)
        x0[rng.choice(32, 3, replace=False)] = rng.standard_normal(3)
        delta = 0.25
        noise = rng.standard_normal(16)
        g_vals = op.apply(x0, omega) + noise * (0.5 * delta / np.linalg.norm(noise))
        a = op.rows_dense(omega, 32)
        xi = cvxpy.Variable(32)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.norm1(xi)), [cvxpy.norm2(a @ xi - g_vals) <= delta]
        )
        prob.solve(solver=cvxpy.CLARABEL)
        res = solve_bpdn(
            op,
            omega,
            MeasurementVector(omega, g_vals, delta=delta),
            ReconstructionConfig(L=32, max_iter=30000, tol=1e-9),
        )
        assert abs(res.objective - prob.value) < 1e-5
        assert res.feasibility_gap <= 1e-6


def test_objective_matches_linprog_oracle():
    # exact basis pursuit min ||x||_1 s.t. A x = g as a linear program in
    # x = u - v, u, v >= 0; the solver's default delta = 1e-8 leaves it
    # a few 1e-8 below the optimum
    optimize = pytest.importorskip("scipy.optimize")
    op = haar_op()
    rng = np.random.default_rng(3)
    for trial in range(5):
        omega = np.sort(rng.choice(1 << op.Q, 16, replace=False))
        x0 = np.zeros(32)
        x0[rng.choice(32, 3, replace=False)] = rng.standard_normal(3)
        a = op.rows_dense(omega, 32)
        g = a @ x0
        lp = optimize.linprog(
            np.ones(64), A_eq=np.hstack([a, -a]), b_eq=g, bounds=(0, None), method="highs"
        )
        assert lp.status == 0
        res = solve_bpdn(
            op, omega, MeasurementVector(omega, g), ReconstructionConfig(L=32, tol=1e-9)
        )
        assert res.converged
        assert abs(res.objective - lp.fun) < 1e-6


def test_measurement_indices_must_match_omega():
    op = haar_op()
    g = measure_signal(signal_smooth(op.Q), np.arange(8, 16))
    with pytest.raises(ValueError, match="indices"):
        solve_bpdn(op, np.arange(8), g)
    res = solve_bpdn(op, np.arange(8, 16), g, ReconstructionConfig(max_iter=50))
    assert res.coeffs.shape == (32,)


def test_tracked_objective_non_increasing():
    op = haar_op()
    rng = np.random.default_rng(4)
    omega = np.sort(rng.choice(1 << op.Q, 20, replace=False))
    x0 = np.zeros(32)
    x0[:5] = rng.standard_normal(5)
    g = MeasurementVector(omega, op.apply(x0, omega), delta=0.01)
    res = solve_bpdn(op, omega, g, ReconstructionConfig(L=32, max_iter=3000))
    trace = res.objective_trace
    feasible = trace[~np.isnan(trace)]
    assert feasible.size > 1
    assert np.all(np.diff(feasible) <= 1e-12)


def test_non_convergence_is_flagged():
    op = haar_op()
    rng = np.random.default_rng(5)
    omega = np.sort(rng.choice(1 << op.Q, 16, replace=False))
    g = MeasurementVector(omega, rng.standard_normal(16), delta=0.0)
    res = solve_bpdn(op, omega, g, ReconstructionConfig(L=32, max_iter=30, delta=1e-8))
    assert not res.converged
    assert res.iterations == 30


def lowband_op():
    # p = 4 on a 2^12 grid with 512 coefficients; the tests sample below 2^6
    return CobOperator(build_basis(4, 3), LevelStructure(J0=3, r=6))


def test_sampled_section_matches_operator():
    op = lowband_op()
    rng = np.random.default_rng(7)
    L = op.levels.M_r
    for size in (1, 5, 24):
        omega = rng.choice(64, size, replace=False)
        a = op.rows_dense(omega, L)
        assert a.shape == (size, L)
        # the solver's A on the dense route holds this section in its
        # Workspace, and takes both of its products with it
        section = reconstruct._SampledSection(op, omega, L)
        assert section.dense
        assert np.array_equal(section.work.section, a)
        for _ in range(3):
            x = rng.standard_normal(L)
            y = rng.standard_normal(size)
            ref = op.apply(x, omega)
            assert np.max(np.abs(a @ x - ref)) <= 3e-15 * max(1.0, np.max(np.abs(ref)))
            # apply runs the transforms, whatever the Workspace holds
            assert np.array_equal(op.apply(x, omega, work=section.work), ref)
            ref = op.apply_adjoint(y, omega, L=L)
            assert np.max(np.abs(y @ a - ref)) <= 3e-15 * max(1.0, np.max(np.abs(ref)))
            assert np.array_equal(op.apply_adjoint(y, omega, work=section.work), y @ a)
            assert np.array_equal(section.adjoint(y), y @ a)
            x[rng.random(L) < 0.9] = 0.0
            support = np.flatnonzero(x)
            assert np.array_equal(section.product(x), x[support] @ a.T[support])
    # a truncated section is the leading columns of the full one
    omega = rng.choice(64, 9, replace=False)
    full = op.rows_dense(omega, L)
    assert np.max(np.abs(op.rows_dense(omega, 100) - full[:, :100])) <= 3e-15 * max(
        1.0, np.max(np.abs(full))
    )
    assert op.rows_dense(np.array([], dtype=np.int64), L).shape == (0, L)
    # omega is checked as apply checks it: repeats and indices off the grid raise
    for bad in ([3, 5, 3], [0, 1 << op.Q], [-1, 2]):
        with pytest.raises(ValueError):
            op.rows_dense(np.array(bad), L)


def test_solver_routes_agree(monkeypatch):
    op = lowband_op()
    rng = np.random.default_rng(8)
    omega = np.sort(rng.choice(64, 24, replace=False))
    x0 = np.zeros(op.levels.M_r)
    x0[rng.choice(64, 6, replace=False)] = rng.standard_normal(6)
    g = MeasurementVector(omega, op.apply(x0, omega), delta=1e-3)
    cfg = ReconstructionConfig(L=op.levels.M_r, max_iter=600)
    assert omega.size * cfg.L <= reconstruct.DENSE_SECTION_ELEMENTS
    dense = solve_bpdn(op, omega, g, cfg)
    monkeypatch.setattr(reconstruct, "DENSE_SECTION_ELEMENTS", 0)
    free = solve_bpdn(op, omega, g, cfg)
    assert dense.dense_section and not free.dense_section
    assert np.linalg.norm(dense.coeffs - free.coeffs) <= 1e-9 * np.linalg.norm(free.coeffs)
    assert dense.iterations == free.iterations
    assert abs(dense.objective - free.objective) <= 1e-9 * free.objective


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "matrix-free"])
def test_solver_input_checks_on_both_routes(dense, monkeypatch):
    if not dense:
        monkeypatch.setattr(reconstruct, "DENSE_SECTION_ELEMENTS", 0)
    op = lowband_op()
    cfg = ReconstructionConfig(L=op.levels.M_r, max_iter=20)
    assert solve_bpdn(op, np.arange(4), np.ones(4), cfg).dense_section == dense
    for bad in ([3, 5, 3], [0, 1 << op.Q], [-1, 2]):
        omega = np.array(bad)
        with pytest.raises(ValueError):
            solve_bpdn(op, omega, np.ones(omega.size), cfg)
    with pytest.raises(ValueError):
        solve_bpdn(op, np.arange(4), np.ones(3), cfg)
    empty = np.array([], dtype=np.int64)
    res = solve_bpdn(op, empty, np.array([]), cfg)
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.coeffs, np.zeros(op.levels.M_r))


def test_degenerate_section_stays_finite_on_both_routes(monkeypatch):
    # Walsh rows 64 and 65 are orthogonal to the 32 Haar columns up to
    # rounding (max |A| = 2.2e-18): nothing fits g, and the steps must not
    # grow with the smallness of A
    op = haar_op()
    omega = np.array([64, 65])
    g = np.array([1.0, -0.5])
    cfg = ReconstructionConfig(L=32, max_iter=400)
    results = []
    for bound in (reconstruct.DENSE_SECTION_ELEMENTS, 0):
        monkeypatch.setattr(reconstruct, "DENSE_SECTION_ELEMENTS", bound)
        results.append(solve_bpdn(op, omega, g, cfg))
    assert [res.dense_section for res in results] == [True, False]
    for res in results:
        assert np.isfinite(res.coeffs).all()
        assert not res.converged and res.iterations == cfg.max_iter
    assert results[0].feasibility_gap == results[1].feasibility_gap
    assert abs(results[0].feasibility_gap - np.linalg.norm(g)) <= 1e-6


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "matrix-free"])
def test_one_forward_and_one_adjoint_product_per_iteration(dense, monkeypatch):
    if not dense:
        monkeypatch.setattr(reconstruct, "DENSE_SECTION_ELEMENTS", 0)
    op = lowband_op()
    calls = {"apply": 0, "apply_adjoint": 0}
    for name in calls:
        method = getattr(op, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        setattr(op, name, counted)
    rng = np.random.default_rng(9)
    omega = np.sort(rng.choice(64, 40, replace=False))
    cfg = ReconstructionConfig(L=op.levels.M_r, max_iter=30)
    res = solve_bpdn(op, omega, rng.standard_normal(omega.size), cfg)
    assert res.dense_section == dense
    assert not res.converged and res.iterations == cfg.max_iter
    # the dense route builds A from one adjoint call per batch of rows, two
    # here, and its forward products read A's columns, so it calls no apply;
    # with the rule at 0 the column store holds nothing and every forward
    # product of a nonzero iterate runs on the transforms
    build = len(op.batches(omega.size)) if dense else 0
    assert build == (2 if dense else 0)
    forward = 0 if dense else res.iterations
    assert calls == {"apply": forward, "apply_adjoint": res.iterations + build}
    assert (res.applies, res.adjoints) == (forward, res.iterations)


def benchmark_shape_solve(q, budget, max_iter=60):
    # solve_bpdn at the shapes of the benchmark's solves and of criterion 8
    # (p = 4, J0 = 3, L = 2^12, Q = 15, signal g, scheme seed 0)
    op = CobOperator(build_basis(4, 3), LevelStructure(J0=3, r=9))
    levels = LevelStructure(J0=3, r=4, q=q)
    sparsity = tuple(
        min(16 >> (k - 1) if k > 1 else 8, int(d))
        for k, d in enumerate(np.diff(levels.N), start=1)
    )
    m = allocate_budget(
        SparsityProfile(sparsity), levels, budget, policy="uniform", full_first=True
    )
    scheme = draw_scheme(levels, m, 0)
    g = measure_signal(signal_jump(op.Q), scheme)
    return solve_bpdn(op, scheme, g, ReconstructionConfig(L=1 << 12, max_iter=max_iter))


def digest(coeffs):
    return hashlib.sha256(coeffs.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "q, budget, pinned",
    [(8, 512, "6712904d2afa3f86"), (3, 256, "22714011cacf7911")],
    ids=["wideband", "criterion-8"],
)
def test_matrix_free_solve_is_pinned(q, budget, pinned, monkeypatch):
    # 60 iterations on the transforms alone (the rule at 0 leaves the column
    # store no room); the digests are those of the allocating transforms,
    # which the solver's workspace reproduces bit for bit
    monkeypatch.setattr(reconstruct, "DENSE_SECTION_ELEMENTS", 0)
    res = benchmark_shape_solve(q, budget)
    assert not res.dense_section and res.iterations == 60
    assert digest(res.coeffs) == pinned


@pytest.mark.parametrize(
    "q, budget, pinned",
    [(1, 64, "3bf5c59af7027a67"), (3, 256, "f9b2f6547e6482f7")],
    ids=["lowband", "criterion-8"],
)
def test_dense_solve_is_pinned(q, budget, pinned):
    # 60 iterations under the default rule, which forms A at both shapes:
    # both products are matrix products with the section rows_dense builds
    res = benchmark_shape_solve(q, budget)
    assert res.dense_section and res.iterations == 60
    assert res.applies == 0 and res.adjoints == res.iterations
    assert digest(res.coeffs) == pinned


def test_column_store_solve_is_pinned(monkeypatch):
    # the wideband shape under the default rule runs matrix-free with the
    # column store; it agrees with the same solve on the transforms
    res = benchmark_shape_solve(8, 512)
    assert not res.dense_section and res.iterations == 60
    assert digest(res.coeffs) == "280c4831366b8623"
    assert 0 < res.applies < res.iterations and res.adjoints == res.iterations
    monkeypatch.setattr(reconstruct, "DENSE_SECTION_ELEMENTS", 0)
    ref = benchmark_shape_solve(8, 512)
    # the first iterates are zero, and their products need no column
    assert ref.adjoints == ref.iterations and res.applies < ref.applies <= ref.iterations
    assert np.linalg.norm(res.coeffs - ref.coeffs) <= 1e-13 * np.linalg.norm(ref.coeffs)


def recorded_applies(op):
    """Wrap op.apply; the returned list gets the support of each argument."""
    supports = []
    apply = op.apply

    def recorded(coeffs, *args, **kwargs):
        supports.append(np.flatnonzero(coeffs))
        return apply(coeffs, *args, **kwargs)

    op.apply = recorded
    return supports


def store_solve_and_reference(rule, monkeypatch):
    """A matrix-free lowband solve with DENSE_SECTION_ELEMENTS at rule(|omega| L),
    the same solve at rule 0 (on the transforms alone), and the supports of
    the apply arguments of each."""
    rng = np.random.default_rng(10)
    omega = np.sort(rng.choice(64, 40, replace=False))
    x0 = np.zeros(512)
    x0[rng.choice(64, 6, replace=False)] = rng.standard_normal(6)
    g = MeasurementVector(omega, lowband_op().apply(x0, omega), delta=1e-3)
    results = []
    for elements in (rule(omega.size, 512), 0):
        op = lowband_op()
        supports = recorded_applies(op)
        monkeypatch.setattr(reconstruct, "DENSE_SECTION_ELEMENTS", elements)
        res = solve_bpdn(op, omega, g, ReconstructionConfig(L=512, max_iter=200))
        assert not res.dense_section and len(supports) == res.applies
        results.append((res, supports))
    (res, supports), (ref, ref_supports) = results
    assert np.linalg.norm(res.coeffs - ref.coeffs) <= 1e-13 * np.linalg.norm(ref.coeffs)
    return res, supports, ref_supports


def test_column_store_forms_each_support_column_once(monkeypatch):
    # one apply per distinct column that ever enters the support, of a
    # one-hot vector, and no forward product on the transforms
    res, supports, ref_supports = store_solve_and_reference(lambda n, L: n * L - 1, monkeypatch)
    assert all(s.size == 1 for s in supports)
    formed = np.concatenate(supports)
    assert np.array_equal(np.sort(formed), np.unique(np.concatenate(ref_supports)))
    assert res.applies == formed.size and res.adjoints == res.iterations


def test_column_store_stops_at_its_cap(monkeypatch):
    # a rule of k |omega| caps the store at k columns; iterations whose
    # support needs another column take their forward product on the
    # transforms, and the solve still agrees with the transforms alone
    res, supports, ref_supports = store_solve_and_reference(lambda n, L: 3 * n, monkeypatch)
    assert np.unique(np.concatenate(ref_supports)).size > 3
    assert [s.size for s in supports[:3]] == [1, 1, 1] and len(supports) > 3
    stored = np.concatenate(supports[:3])
    assert all(np.setdiff1d(s, stored).size for s in supports[3:])
    assert res.applies == len(supports) and res.adjoints == res.iterations


def test_truncated_walsh_exact_for_finite_series():
    rng = np.random.default_rng(6)
    coarse = np.repeat(rng.standard_normal(8), 16)  # constant on 2^-3 cells
    samples = fwht_sequency(coarse)[:8]
    rec = truncated_walsh(samples, 7)
    assert np.max(np.abs(rec - coarse)) < 1e-12
    # the band-limited transform equals transforming the zero-padded grid
    for q in (7, 12, 15):
        for n in (1, 2, 3, 16, 32, 33, 64, 100, 256, 1 << q):
            if n > 1 << q:
                continue
            samples = rng.standard_normal(n)
            padded = np.zeros(1 << q)
            padded[:n] = samples
            assert np.array_equal(truncated_walsh(samples, q), ifwht_sequency(padded))
    with pytest.raises(ValueError):
        truncated_walsh(np.ones(16), 3)


def test_truncated_walsh_paper_errors():
    # reproduces the reported baseline errors at the budgets the paper's
    # captions attach them to: 0.078 for f at 32 samples, 0.085 for g at 64
    q = 12
    f = signal_smooth(q)
    g = signal_jump(q)
    err_f = relative_l2_error(truncated_walsh(fwht_sequency(f)[:32], q), f)
    err_g = relative_l2_error(truncated_walsh(fwht_sequency(g)[:64], q), g)
    assert abs(err_f - 0.078) <= 0.2 * 0.078
    assert abs(err_g - 0.085) <= 0.2 * 0.085


def test_relative_l2_error():
    ref = np.array([3.0, 4.0])
    assert relative_l2_error(ref, ref) == 0.0
    assert relative_l2_error(np.zeros(2), ref) == 1.0
    assert abs(relative_l2_error(1.1 * ref, ref) - 0.1) < 1e-12
    with pytest.raises(ValueError):
        relative_l2_error(ref, np.zeros(2))
    with pytest.raises(ValueError):
        relative_l2_error(ref, np.zeros(3))


def test_measure_signal_basics():
    q = 8
    const = np.full(1 << q, 2.0)
    mv = measure_signal(const, np.arange(10))
    assert abs(mv.values[0] - 2.0) < 1e-12
    assert np.max(np.abs(mv.values[1:])) < 1e-12
    walsh7 = np.array([wal_eval(7, DyadicPoint(j, q)) for j in range(1 << q)], float)
    mv = measure_signal(walsh7, np.array([7, 9]))
    assert abs(mv.values[0] - 1.0) < 1e-12 and abs(mv.values[1]) < 1e-12
    for bad in ([-1, 2], [0, 1 << q]):
        with pytest.raises(ValueError):
            measure_signal(const, np.array(bad))


def test_measure_signal_against_quadrature_oracle():
    # independent oracle: integrate f against Wal(n, .) on the coarsest grid
    # on which Wal(n, .) is constant, with exact antiderivatives per piece
    q = 12
    f = signal_smooth(q)
    mv = measure_signal(f, np.arange(16))
    for n in range(16):
        scale = max(n.bit_length(), 1)
        pieces = 1 << scale
        edges = np.arange(pieces + 1) / pieces
        anti = lambda x: np.sin(2 * np.pi * x) / (2 * np.pi) + 0.2 * np.sin(
            10 * np.pi * x
        ) / (10 * np.pi)
        total = 0.0
        for cell in range(pieces):
            sign = wal_eval(n, DyadicPoint(cell, scale))
            total += sign * (anti(edges[cell + 1]) - anti(edges[cell]))
        assert abs(mv.values[n] - total) < 1e-10


def test_measure_signal_noise_norm():
    q = 6
    f = signal_jump(q)
    mv = measure_signal(f, np.arange(12), delta=0.3, seed=9)
    clean = measure_signal(f, np.arange(12))
    assert abs(np.linalg.norm(mv.values - clean.values) - 0.3) < 1e-12
    again = measure_signal(f, np.arange(12), delta=0.3, seed=9)
    assert np.array_equal(mv.values, again.values)
