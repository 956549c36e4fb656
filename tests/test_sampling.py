import tracemalloc

import numpy as np
import pytest

from walshcs.sampling import (
    SamplingScheme,
    _draw_without_replacement,
    SparsityProfile,
    allocate_budget,
    draw_scheme,
    flip_pattern,
    load_scheme,
    save_scheme,
    allocation_weights,
)
from walshcs.wavelets import LevelStructure


def test_scheme_validation():
    lv = LevelStructure(J0=1, r=2)
    with pytest.raises(ValueError):
        draw_scheme(lv, (5, 1), 0)  # band capacity is 4
    with pytest.raises(ValueError):
        SamplingScheme(lv, (1, 1), [np.array([5]), np.array([5])], seed=0)
    with pytest.raises(ValueError):
        SamplingScheme(lv, (2, 0), [np.array([1, 1]), np.array([], dtype=int)], seed=0)


def test_scheme_leaves_caller_omegas_alone():
    lv = LevelStructure(J0=1, r=2)
    om = (np.array([1, 0]), np.array([7, 5]))
    s = SamplingScheme(lv, (2, 2), om, seed=0)
    assert [list(o) for o in om] == [[1, 0], [7, 5]]
    assert [list(o) for o in s.omegas] == [[0, 1], [5, 7]]


def test_full_sampling_is_everything():
    lv = LevelStructure(J0=1, r=2)
    for seed in (0, 5, 99):
        scheme = draw_scheme(lv, (4, 4), seed)
        assert np.array_equal(scheme.union, np.arange(8))


def test_determinism():
    lv = LevelStructure(J0=2, r=3)
    a = draw_scheme(lv, (3, 5, 9), 1234)
    b = draw_scheme(lv, (3, 5, 9), 1234)
    assert np.array_equal(a.union, b.union)
    c = draw_scheme(lv, (3, 5, 9), 1235)
    assert not np.array_equal(a.union, c.union)


def _pool_draw(gen, lo, hi, count):
    # reference: the dense partial Fisher-Yates over the whole band
    pool = np.arange(lo, hi, dtype=np.int64)
    for i in range(count):
        j = i + int(gen.integers(0, pool.size - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


def test_sparse_draw_matches_pool_draw():
    # the level structures, counts and seeds the suite draws schemes with
    cases = [
        (LevelStructure(J0=1, r=2), (4, 4), (0, 5, 99)),
        (LevelStructure(J0=1, r=2), (2, 1), range(200)),
        (LevelStructure(J0=2, r=1), (3,), range(200)),
        (LevelStructure(J0=2, r=3), (3, 5, 9), (1234, 1235)),
        (LevelStructure(J0=2, r=3, q=1), (4, 3, 10), (99,)),
        (LevelStructure(J0=3, r=5), (16, 8, 8, 8, 8), (7,)),
        (LevelStructure(J0=3, r=5), (16, 16, 32, 64, 128), (3,)),
    ]
    # the acceptance criteria's (R, q, budget) with uniform full-first splits
    for big_r, q, budget in ((5, 1, 32), (7, 1, 64), (7, 1, 256), (7, 2, 256), (7, 3, 256),
                             (5, 3, 64), (7, 8, 512)):
        levels = LevelStructure(J0=3, r=big_r - 3, q=q)
        m = allocate_budget(SparsityProfile((1,) * levels.r), levels, budget,
                            policy="uniform", full_first=True)
        cases.append((levels, m, range(10)))
    for levels, m, seeds in cases:
        n = levels.N
        for seed in seeds:
            gens = [np.random.Generator(np.random.Philox(key=np.uint64(seed))) for _ in range(2)]
            for k in range(1, levels.r + 1):
                args = (int(n[k - 1]), int(n[k]), m[k - 1])
                got = _draw_without_replacement(gens[0], *args)
                assert np.array_equal(got, _pool_draw(gens[1], *args))


def test_draw_memory_is_independent_of_band_width():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(0)))
    lo, hi = 1 << 22, 1 << 23  # a 2^22-wide band; a dense pool would take 32 MB
    tracemalloc.start()
    try:
        draws = _draw_without_replacement(gen, lo, hi, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.unique(draws).size == 512 and draws.min() >= lo and draws.max() < hi
    wide = LevelStructure(J0=3, r=2, q=35)  # last band 2^40 wide
    scheme = draw_scheme(wide, (16, 16), 0)
    assert scheme.union.size == 32 and scheme.union.max() < wide.N_r


def test_marginals_uniform():
    lv = LevelStructure(J0=1, r=2)
    counts = np.zeros(8)
    trials = 10000
    for seed in range(trials):
        counts[draw_scheme(lv, (2, 1), seed).union] += 1
    freq = counts / trials
    assert np.max(np.abs(freq[:4] - 0.5)) < 0.02
    assert np.max(np.abs(freq[4:] - 0.25)) < 0.02


def test_marginals_chi_square():
    from scipy import stats

    lv = LevelStructure(J0=2, r=1)  # band [0, 8), choose 3
    counts = np.zeros(8)
    trials = 10000
    for seed in range(trials):
        counts[draw_scheme(lv, (3,), seed).union] += 1
    stat, pvalue = stats.chisquare(counts)
    assert pvalue > 0.01


def test_flip_pattern():
    lv = LevelStructure(J0=3, r=5, q=0)  # N_r = 256
    scheme = draw_scheme(lv, (16, 8, 8, 8, 8), 7)
    flipped = flip_pattern(scheme)
    assert np.array_equal(np.sort(255 - flipped.union), scheme.union)
    again = flip_pattern(flipped)
    assert np.array_equal(again.union, scheme.union)
    full = draw_scheme(lv, tuple(np.diff(lv.N)), 3)
    assert np.array_equal(flip_pattern(full).union, full.union)
    one = SamplingScheme(lv, (1, 0, 0, 0, 0), [np.array([0])] + [np.array([], dtype=int)] * 4)
    assert flip_pattern(one).union.tolist() == [255]


def test_allocation_weights_two_levels():
    lv = LevelStructure(J0=4, r=2)
    w = allocation_weights(SparsityProfile((8, 0)), lv)
    assert abs(w[1] / w[0] - 2.0**-0.5) < 1e-14


def test_allocation_sums_and_policy():
    lv = LevelStructure(J0=3, r=5, q=0)
    prof = SparsityProfile((8, 4, 2, 2, 1))
    for budget in (23, 64, 150, 256):
        m = allocate_budget(prof, lv, budget, policy="weights")
        assert sum(m) == budget
        assert all(mk >= 1 for mk in m)
    m = allocate_budget(prof, lv, 64, policy="uniform", full_first=True)
    assert m == (16, 12, 12, 12, 12)
    with pytest.raises(ValueError):
        allocate_budget(prof, lv, 3, policy="weights")  # floors need r samples
    with pytest.raises(ValueError):
        allocate_budget(prof, lv, 300, policy="weights")  # beyond N_r
    single = allocate_budget(SparsityProfile((4,)), LevelStructure(J0=2, r=1), 6)
    assert single == (6,)


def test_allocation_monotone_in_sparsity():
    lv = LevelStructure(J0=3, r=4, q=2)
    base = (4, 3, 2, 1)
    m0 = allocate_budget(SparsityProfile(base), lv, 100, policy="weights")
    w0 = allocation_weights(SparsityProfile(base), lv)
    for k in range(4):
        bumped = list(base)
        bumped[k] += 3
        prof = SparsityProfile(tuple(bumped))
        # the ideal (pre-rounding, pre-clipping) share is exactly monotone
        w1 = allocation_weights(prof, lv)
        assert w1[k] / w1.sum() >= w0[k] / w0.sum() - 1e-12
        m1 = allocate_budget(prof, lv, 100, policy="weights")
        assert m1[k] >= m0[k] - 1  # integer rounding can shave at most one


def test_profile_validation():
    lv = LevelStructure(J0=1, r=2)
    with pytest.raises(ValueError):
        SparsityProfile((5, 1)).validate(lv)  # level capacity is 4
    with pytest.raises(ValueError):
        SparsityProfile((1, 1)).validate(lv)  # total below 3
    SparsityProfile((2, 1)).validate(lv)


def test_serialization_roundtrip(tmp_path):
    lv = LevelStructure(J0=2, r=3, q=1)
    scheme = draw_scheme(lv, (4, 3, 10), 99)
    path = tmp_path / "scheme.txt"
    save_scheme(scheme, path)
    loaded = load_scheme(path)
    assert loaded.levels == scheme.levels
    assert loaded.seed == 99
    assert np.array_equal(loaded.union, scheme.union)
    header = path.read_text().splitlines()[0]
    assert header.startswith("#") and "seed=99" in header
    assert loaded.m == scheme.m
    # an index outside [0, N_r) is rejected, not dropped
    header = "# J0=3 r=2 q=0 seed=1 m=16,3\n"
    inside = "".join(f"{i}\n" for i in [*range(16), 17, 20])
    path.write_text(header + inside + "999\n-4\n")
    with pytest.raises(ValueError):
        load_scheme(path)
    # per-level counts that differ from the header's m are rejected
    path.write_text(header + inside)
    with pytest.raises(ValueError):
        load_scheme(path)
    # a header without q or m is rejected by name
    path.write_text("# J0=3 r=2 seed=1\n" + inside)
    with pytest.raises(ValueError, match="q, m"):
        load_scheme(path)
