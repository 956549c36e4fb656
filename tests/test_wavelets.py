import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshcs._filter_table
from walshcs.walsh import Scratch, fwht_sequency
from walshcs.wavelets import (
    _SUPPORTED_ORDERS,
    LevelStructure,
    _band_apply,
    _band_transpose,
    _crossing_gram,
    _daubechies_mp,
    _edge_dps,
    _even_odd,
    _filter_table_text,
    _filters_for_order,
    _filters_mp,
    _matmul_lead,
    _refinement_matrix,
    build_basis,
    cascade_tabulate,
    daubechies_filter,
    dwt_forward,
    dwt_inverse,
    export_filters,
    import_filters,
    wavelet_filter_from_scaling,
)

# standard published extremal-phase coefficients, frozen as a cross-check
DB3 = [0.3326705529509569, 0.8068915093133388, 0.4598775021193313,
       -0.13501102001039084, -0.08544127388224149, 0.035226291882100656]
DB4 = [0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
       -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
       0.032883011666982945, -0.010597401784997278]


def _basis(p):
    return build_basis(p, (2 * p - 2).bit_length())  # minimal level: 2^J0 >= 2p - 1


def assert_matches_stack(batched, stacked):
    # a batch reaches BLAS through matrix-matrix instead of matrix-vector
    # products, whose sums may round differently: 1e-15 at unit scale
    assert np.max(np.abs(batched - stacked)) <= 1e-15 * max(1.0, np.max(np.abs(stacked)))


def test_filter_against_published_tables():
    assert np.max(np.abs(daubechies_filter(3) - DB3)) < 1e-10
    assert np.max(np.abs(daubechies_filter(4) - DB4)) < 1e-10


@pytest.mark.parametrize("p", [1, 3, 4, 8, 10])
def test_interior_filter_identities(p):
    h = daubechies_filter(p)
    assert h.size == 2 * p
    assert abs(h.sum() - np.sqrt(2.0)) < 1e-12
    for m in range(p):
        acc = sum(h[k] * h[k + 2 * m] for k in range(h.size - 2 * m))
        assert abs(acc - (1.0 if m == 0 else 0.0)) < 1e-12
    g = wavelet_filter_from_scaling(h)
    for d in range(p):
        moment = sum(g[i] * (i - p + 1) ** d for i in range(g.size))
        assert abs(moment) < 1e-9 * max(1.0, (2.0 * p) ** d)


@pytest.mark.parametrize("p", [1, 3, 4, 5, 6, 7, 8, 9, 10])
def test_crossing_gram_is_the_refinement_fixed_point(p):
    # G = C G C^T + D D^T to far below double precision, for the left edge
    # (h) and the right one (h reversed)
    with mp.workdps(_edge_dps(p)):
        h = _daubechies_mp(p)
        crossing = range(-p + 1, p - 1)
        for taps in (h, h[::-1]):
            g = _crossing_gram(taps, mp)
            assert (g.rows, g.cols) == (2 * p - 2, 2 * p - 2)
            c = _refinement_matrix(taps, crossing, crossing, mp)
            d = _refinement_matrix(taps, crossing, range(p - 1, 3 * p - 3), mp)
            resid = (c * g * c.T + d * d.T - g).tolist()
            assert max((abs(x) for row in resid for x in row), default=0) <= mp.mpf("1e-70")


# sha256 (first 16 hex digits) of the <f8 bytes of h, HL and HR
FILTER_DIGESTS = {
    1: "74741fc5139ef9f6",
    3: "efedca55feea6eca",
    4: "46b3b75e59899166",
    5: "0039d4636a018c9d",
    6: "c06c62925a7a2268",
    7: "41fbf8b2bccd66e1",
    8: "e65420df6702181d",
    9: "7a3f31b68139f961",
    10: "436c4363a94f5d3b",
}


@pytest.mark.parametrize("p", sorted(FILTER_DIGESTS))
def test_filters_are_pinned(p):
    # the table the bases read and the high-precision construction that
    # wrote it agree bit for bit and hash to the pinned digest
    table, reference = _filters_for_order(p), _filters_mp(p)
    for filters in (table, reference):
        digest = hashlib.sha256()
        for a in filters:
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert digest.hexdigest()[:16] == FILTER_DIGESTS[p]
    for a, b in zip(table, reference):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    # the checked-in file is the generator's text of what it holds, so with
    # the check above for every order it is the generator's text of the
    # construction
    held = {q: _filters_for_order(q) for q in _SUPPORTED_ORDERS}
    assert Path(walshcs._filter_table.__file__).read_text() == _filter_table_text(held)


def test_bases_run_without_mpmath():
    # a fresh interpreter imports the package and the CLI, builds every
    # supported order at its minimal level and applies its operator once
    # without importing mpmath
    code = textwrap.dedent(
        """
        import sys

        import numpy as np

        import walshcs
        import walshcs.cli
        from walshcs import CobOperator, LevelStructure, build_basis

        for p in walshcs.wavelets._SUPPORTED_ORDERS:
            J0 = (2 * p - 2).bit_length()
            op = CobOperator(build_basis(p, J0), LevelStructure(J0, 2))
            y = op.apply(np.ones(op.levels.M_r), np.arange(4))
            assert np.all(np.isfinite(y))
        assert "mpmath" not in sys.modules, "mpmath was imported"
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_build_basis_rejects_bad_orders():
    with pytest.raises(ValueError):
        build_basis(2, 2)
    with pytest.raises(ValueError):
        build_basis(4, 2)  # 2^2 < 2p-1
    with pytest.raises(ValueError):
        build_basis(11, 5)


def test_haar_reduces_to_translates():
    basis = _basis(1)
    for j in (0, 2):
        for n in range(1 << j):
            tab = cascade_tabulate(basis, j, n, 5)
            expect = np.zeros(32)
            width = 32 >> j
            expect[n * width : (n + 1) * width] = 2.0 ** (j / 2.0)
            assert np.max(np.abs(tab - expect)) < 1e-14
    wave = cascade_tabulate(basis, 0, 0, 3, kind="wavelet")
    assert np.max(np.abs(wave - np.array([1.0, 1, 1, 1, -1, -1, -1, -1]))) < 1e-14
    scal = cascade_tabulate(basis, 2, 1, 3, kind="scaling")
    assert np.max(np.abs(scal - np.array([0.0, 0, 2, 2, 0, 0, 0, 0]))) < 1e-14


@pytest.mark.parametrize("p", [3, 4, 8])
def test_gram_identity_fine_grid_oracle(p):
    # quadrature of tabulated functions is the independent route to the Gram
    basis = _basis(p)
    for j in (basis.J0, basis.J0 + 1, basis.J0 + 2):
        n0 = 1 << j
        q = j + 4
        tabs = np.array([cascade_tabulate(basis, j, n, q) for n in range(n0)])
        gram = tabs @ tabs.T / (1 << q)
        assert np.max(np.abs(gram - np.eye(n0))) < 1e-10


def test_edge_support_staggered():
    p = 4
    basis = _basis(p)
    q = 9
    cells_per_unit = 1 << (q - 3)
    for k in range(p):
        left = cascade_tabulate(basis, 3, k, q)
        nz = np.flatnonzero(np.abs(left) > 1e-12)
        assert nz[0] == 0
        assert nz[-1] < (2 * p - 1 - k) * cells_per_unit
        right = cascade_tabulate(basis, 3, (1 << 3) - 1 - k, q)
        nz = np.flatnonzero(np.abs(right) > 1e-12)
        assert nz[-1] == (1 << q) - 1
        assert nz[0] >= (1 << q) - (2 * p - 1 - k) * cells_per_unit


def test_interior_scaling_integral():
    basis = _basis(4)
    tab = cascade_tabulate(basis, 5, 12, 14)
    # cell-average tabulation integrates the surrogate exactly
    assert abs(tab.sum() / (1 << 14) - 2.0**-2.5) < 1e-6
    assert abs((tab**2).sum() / (1 << 14) - 1.0) < 1e-10


def test_cascade_argument_checks():
    basis = _basis(4)
    with pytest.raises(ValueError):
        cascade_tabulate(basis, 5, 0, 4)
    with pytest.raises(ValueError):
        cascade_tabulate(basis, 3, 8, 6)
    with pytest.raises(ValueError):
        cascade_tabulate(basis, 3, 0, 6, kind="other")


def test_refinement_fixed_point_oracle():
    # away from the p edge-coefficient cells, tabulations at successive
    # depths converge at the O(2^-(Q-j)) cascade rate with stable constant
    basis = _basis(4)
    p = basis.p
    ratios = []
    for q in (10, 12):
        coarse = cascade_tabulate(basis, 3, 5, q)
        fine = cascade_tabulate(basis, 3, 5, q + 2).reshape(-1, 4).mean(axis=1)
        dev = np.max(np.abs(coarse - fine)[p:-p])
        ratios.append(dev / 2.0 ** -(q - 3))
    assert all(r < 12.0 for r in ratios)
    assert abs(ratios[1] - ratios[0]) < 0.5 * ratios[0]


@pytest.mark.parametrize("p", [1, 3, 4, 5, 6, 7, 8, 9, 10])
@settings(max_examples=10, deadline=None)
@given(batch=st.lists(st.integers(1, 3), min_size=1, max_size=2), octaves=st.integers(1, 4))
def test_dwt_round_trip(p, batch, octaves):
    basis = _basis(p)
    rng = np.random.default_rng(10 + p)
    v = rng.standard_normal(1024)
    exp = dwt_forward(v, basis)
    back = dwt_inverse(exp, basis, 10)
    assert np.max(np.abs(back - v)) < 1e-10
    zero = dwt_forward(np.zeros(1 << basis.J0 + 2), basis)
    assert np.all(zero == 0.0)
    # the scaling block sits at J0, which must lie below the grid scale
    with pytest.raises(ValueError):
        dwt_forward(np.zeros(1 << basis.J0), basis)
    # a stack of grids transforms like its rows, one at a time
    q = basis.J0 + octaves
    stack = rng.standard_normal((*batch, 1 << q))
    exp = dwt_forward(stack, basis)
    rows = [dwt_forward(row, basis) for row in stack.reshape(-1, 1 << q)]
    assert_matches_stack(exp, np.reshape(rows, stack.shape))
    back = dwt_inverse(exp, basis, q + 1)
    rows_back = [dwt_inverse(e, basis, q + 1) for e in rows]
    assert back.shape == (*batch, 2 << q)
    assert_matches_stack(back, np.reshape(rows_back, back.shape))
    assert np.max(np.abs(dwt_inverse(exp, basis, q) - stack)) < 1e-10
    # an expansion cut at scale top skips the levels above and keeps the rest
    cut = dwt_forward(stack, basis, top=basis.J0 + 1)
    assert np.array_equal(cut, exp[..., : 2 << basis.J0])


def reference_dwt_forward(v, basis, top):
    # the level loop through the public two-scale maps, on fresh arrays
    q = v.shape[-1].bit_length() - 1
    c = v * 2.0 ** (-q / 2.0)
    out = np.empty(v.shape[:-1] + (1 << top,))
    for j in range(q - 1, basis.J0 - 1, -1):
        if j < top:
            out[..., 1 << j : 1 << (j + 1)] = basis.analysis(c, "wavelet")
        c = basis.analysis(c)
    out[..., : 1 << basis.J0] = c
    return out


def reference_dwt_inverse(coeffs, basis, q):
    top = coeffs.shape[-1].bit_length() - 1
    c = coeffs[..., : 1 << basis.J0].copy()
    for j in range(basis.J0, q):
        c2 = basis.synthesis(c)
        if j < top:
            c2 += basis.synthesis(coeffs[..., 1 << j : 1 << (j + 1)], "wavelet")
        c = c2
    return c * 2.0 ** (q / 2.0)


@pytest.mark.parametrize("p", [1, 3, 4, 8])
def test_dwt_equals_level_loop_with_and_without_scratch(p):
    # the DWTs with their levels in a Scratch, reused, or in fresh arrays
    # give the level loop's values bit for bit in every memory layout (the
    # band maps' matrix products round by the layout of what they read)
    basis = _basis(p)
    rng = np.random.default_rng(20 + p)
    q, top = basis.J0 + 5, basis.J0 + 3
    work = Scratch()
    stack = rng.standard_normal((2, 3, 1 << q))
    grids = (
        rng.standard_normal(1 << q),
        stack,
        np.asfortranarray(stack),
        stack.transpose(1, 0, 2),
        rng.standard_normal((3, 2 << q))[..., ::2],
    )
    for v in grids:
        expect = reference_dwt_forward(v, basis, top)
        assert np.array_equal(dwt_forward(v, basis, top=top), expect)
        assert np.array_equal(dwt_forward(v, basis, top=top, work=work), expect)
        coeffs = np.ascontiguousarray(expect)
        expect = reference_dwt_inverse(coeffs, basis, q)
        assert np.array_equal(dwt_inverse(coeffs, basis, q), expect)
        assert np.array_equal(dwt_inverse(coeffs, basis, q, work=work), expect)


def strided_band_apply(c, band, step, out, product):
    # the band map on the interleaved rows, each tap writing every step-th
    # row: the reference the polyphase body must equal bit for bit
    taps, left, right = band
    p = left.shape[0]
    n0 = c.shape[0]
    n1 = step * n0
    out[...] = 0.0
    out[: left.shape[1]] += _matmul_lead(left.T, c[:p])
    out[n1 - right.shape[1] :] += _matmul_lead(right.T, c[n0 - p :][::-1])
    if n0 > 2 * p:
        mid = c[p : n0 - p]
        product = product[: n0 - 2 * p]
        for i, tap in enumerate(taps):
            t = i - p + 1
            np.multiply(mid, tap, product)
            out[step * p + t : step * (n0 - p) + t : step] += product
    return out


def strided_band_transpose(v, band, step, out, product):
    taps, left, right = band
    p = left.shape[0]
    n1 = v.shape[0]
    n0 = n1 // step
    out[...] = 0.0
    if n0 > 2 * p:
        interior = out[p : n0 - p]
        product = product[: n0 - 2 * p]
        for i, tap in enumerate(taps):
            t = i - p + 1
            np.multiply(v[step * p + t : step * (n0 - p) + t : step], tap, product)
            interior += product
    out[:p] += _matmul_lead(left, v[: left.shape[1]])
    out[n0 - p :] += _matmul_lead(right, v[n1 - right.shape[1] :])[::-1]
    return out


def band_map_inputs(rng, n):
    # values along the leading axis: 1-D, batched in C and Fortran order and
    # strided, with zeros of both signs among them
    stack = rng.standard_normal((n, 2, 3))
    stack[rng.random(stack.shape) < 0.2] = 0.0
    stack[rng.random(stack.shape) < 0.2] = -0.0
    return (
        stack[:, 0, 0].copy(),
        stack[:, 0, :].copy(),
        stack,
        np.asfortranarray(stack),
        stack.transpose(0, 2, 1),
        np.concatenate([stack, stack])[::2],
        stack[:, 1, :],
    )


@pytest.mark.parametrize("p", _SUPPORTED_ORDERS)
def test_polyphase_band_maps_equal_strided_bodies(p):
    # both directions of every level map (from the edge-only level n0 = 2p,
    # whose wavelets are the dedicated completion, up) and of the average
    # maps, against the strided bodies, byte for byte: signed zeros included
    basis = _basis(p)
    rng = np.random.default_rng(30 + p)
    sizes = (1, 2, 64) if p == 1 else (2 * p, 4 * p, 64)
    maps = [(basis._level_map(n0, kind), 2, n0) for n0 in sizes for kind in ("scaling", "wavelet")]
    maps += [(basis._average_map(d), 1, n0) for d in (0, 1, 3) for n0 in (max(4 * p - 2, 2), 64)]
    work = Scratch()
    for band, step, n0 in maps:
        for c in band_map_inputs(rng, n0):
            fine = (step * n0,) + c.shape[1:]
            expect = strided_band_apply(c, band, step, np.empty(fine), np.empty(c.shape))
            got = _band_apply(c, band, step, np.empty(fine), work)
            assert got.tobytes() == expect.tobytes()
        for v in band_map_inputs(rng, step * n0):
            coarse = (n0,) + v.shape[1:]
            expect = strided_band_transpose(v, band, step, np.empty(coarse), np.empty(coarse))
            phases = v[None] if step == 1 else _even_odd(v, work)
            got = _band_transpose(v, phases, band, np.empty(coarse), work)
            assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("p", [1, 3, 4, 5, 6, 7, 8, 9, 10])
def test_two_scale_map_orthogonal_and_transposed(p):
    basis = _basis(p)
    rng = np.random.default_rng(p)
    # every power-of-two level size up to 64 the basis allows (Haar from 1),
    # so both sides of the edge-wavelet switch at 2 n0 = 6p - 2 where p has both
    for n0 in [1 << k for k in range(7) if (1 << k) >= 2 * p or p == 1]:
        blocks = {kind: basis.synthesis(np.eye(n0), kind) for kind in ("scaling", "wavelet")}
        t = np.vstack([blocks["scaling"], blocks["wavelet"]])
        assert t.shape == (2 * n0, 2 * n0)
        assert np.max(np.abs(t @ t.T - np.eye(2 * n0))) < 1e-13
        v = rng.standard_normal((3, 2 * n0))
        tol = 1e-15 * max(1.0, np.max(np.linalg.norm(v, axis=-1)))
        for kind, block in blocks.items():
            assert np.max(np.abs(basis.analysis(v, kind) - v @ block.T)) <= tol


@pytest.mark.parametrize("p", [1, 3, 4, 5, 6, 7, 8, 9, 10])
def test_average_map_matches_refined_identity(p):
    # the banded B_d read off the reference level against refining the
    # identity d levels at once and averaging, at the smallest level the
    # operator applies it to and at one above the reference level: bitwise
    # for d <= 1, beyond that the one-shot refinement rounds differently
    # (measured at most 1.3e-15, Haar at d = 7)
    basis = _basis(p)
    for n in (2 << basis.J0, 16 * p):
        for d in (0, 1, 3, 7):
            fine = np.eye(n)
            for _ in range(d):
                fine = basis.synthesis(fine)
            brute = fine.reshape(n, n, 1 << d).sum(axis=-1) * 2.0 ** (-d / 2)
            band = basis.average(np.eye(n), d)
            assert np.max(np.abs(band - brute)) <= (0.0 if d <= 1 else 2e-15)
            assert np.array_equal(basis.average_adjoint(np.eye(n), d), band.T)


def test_dwt_matches_basis_matrix_at_length_64():
    basis = _basis(3)
    q = 6
    cols = []
    for n in range(1 << basis.J0):
        cols.append(cascade_tabulate(basis, basis.J0, n, q))
    for j in range(basis.J0, q):
        for n in range(1 << j):
            cols.append(cascade_tabulate(basis, j, n, q, kind="wavelet"))
    mat = np.array(cols).T  # grid x coefficients
    rng = np.random.default_rng(11)
    v = rng.standard_normal(1 << q)
    exp = dwt_forward(v, basis)
    direct = mat.T @ v / (1 << q)
    assert np.max(np.abs(exp - direct)) < 1e-10


def test_polynomial_reproduction_interior():
    q = 10
    t = (np.arange(1 << q) + 0.5) / (1 << q)
    for p in (3, 4, 8):
        basis = _basis(p)
        exp = dwt_forward(t, basis)
        for j in range(basis.J0, q):
            w = exp[1 << j : 2 << j]
            if w.size > 2 * p:
                assert np.max(np.abs(w[p : w.size - p])) < 1e-8


def test_mra_nesting():
    basis = _basis(4)
    q = 12
    fine_tabs = np.array([cascade_tabulate(basis, 4, n, q) for n in range(16)])
    for n in (0, 2, 5, 7):
        f = cascade_tabulate(basis, 3, n, q)
        coeffs = fine_tabs @ f / (1 << q)
        assert np.linalg.norm(f - coeffs @ fine_tabs) <= 1e-10 * np.linalg.norm(f)


def test_walsh_decay_of_clipped_pieces():
    # unit-interval pieces of the scaling function decay like 1/z under the
    # sequency transform: the fitted constant in |spec(z)| * z stabilizes
    # instead of growing across dyadic decades up to z = 2^10
    basis = _basis(4)
    p = basis.p
    level = 5
    q = level + 10
    tab = cascade_tabulate(basis, level, 12, q)  # interior translate
    cells = 1 << (q - level)
    start = (12 - p + 1) * cells
    for piece in range(2 * p - 1):
        seg = tab[start + piece * cells : start + (piece + 1) * cells]
        if np.max(np.abs(seg)) == 0.0:
            continue
        spec = np.abs(fwht_sequency(seg))
        prod = spec[1:] * np.arange(1, spec.size)
        low = np.max(prod[: 1 << 7])
        assert np.max(prod) <= 1.6 * low


def test_level_structure_vectors():
    lv = LevelStructure(J0=3, r=5, q=2)
    assert list(lv.M) == [0, 16, 32, 64, 128, 256]
    assert list(lv.N) == [0, 16, 32, 64, 128, 1024]
    assert lv.M_r == 256 and lv.N_r == 1024
    with pytest.raises(ValueError):
        LevelStructure(J0=-1, r=2)
    with pytest.raises(ValueError):
        LevelStructure(J0=3, r=0)


def test_dwt_inverse_rejects_bad_coefficient_counts():
    # 2^top coefficients with J0 < top <= Q, top read off the length
    basis = _basis(3)  # J0 = 3
    assert dwt_inverse(np.zeros(32), basis, 5).shape == (32,)
    for n, q in ((33, 6), (1 << basis.J0, 5), (64, 5)):
        with pytest.raises(ValueError):
            dwt_inverse(np.zeros(n), basis, q)


def test_filter_export_roundtrip(tmp_path):
    basis = _basis(4)
    path = tmp_path / "filters.csv"
    export_filters(basis, path)
    loaded = import_filters(path)
    assert np.max(np.abs(loaded["interior_scaling"] - basis.h)) < 1e-15
    assert np.max(np.abs(loaded["left_scaling_2"] - basis.HL[2])) < 1e-15
    assert np.max(np.abs(loaded["right_wavelet_0"] - basis.GR[0])) < 1e-15
