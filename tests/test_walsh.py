import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshcs.walsh import (
    KACZMARZ,
    KRONECKER,
    PALEY,
    DyadicPoint,
    SequencyIndex,
    Scratch,
    WalshPolynomial,
    _hadamard,
    _sequency_perm,
    bit_reverse,
    fwht_sequency,
    gray,
    gray_inverse,
    ifwht_sequency,
    ordering_convert,
    wal_eval,
    walsh_poly_eval,
    walsh_shift_identity_check,
)


def bitloop_oracle(n, num, scale):
    """Sequency evaluation straight from the defining exponent sum:
    parity of sum_k (n_k + n_{k+1}) x_{k+1} with x_1 the half-weight bit."""
    total = 0
    for k in range(scale):
        nk = (n >> k) & 1
        nk1 = (n >> (k + 1)) & 1
        xk1 = (num >> (scale - 1 - k)) & 1
        total += (nk + nk1) * xk1
    return -1 if total % 2 else 1


def reference_hadamard_inplace(v):
    # The plain butterfly that walsh._hadamard must match bit for bit: stage
    # s = 0 .. J-1 adds and subtracts values 2^s apart, on a transform-axis-
    # first copy of a batch (a 1-D v is used in place).
    shape, n = v.shape, v.shape[-1]
    w = np.ascontiguousarray(v.reshape(-1, n).T)
    width = w.shape[1]
    h = 1
    while h < n:
        w = w.reshape(n // (2 * h), 2, h * width)
        a = w[:, 0, :] + w[:, 1, :]
        b = w[:, 0, :] - w[:, 1, :]
        w[:, 0, :] = a
        w[:, 1, :] = b
        h *= 2
    return w.reshape(n, width).T.reshape(shape)


orderings = st.sampled_from((KACZMARZ, PALEY, KRONECKER))


@st.composite
def widths_and_indices(draw):
    bits = draw(st.integers(0, 62))
    return bits, draw(st.integers(0, (1 << bits) - 1))


@st.composite
def dyadic_points(draw):
    scale = draw(st.integers(0, 62))
    return DyadicPoint(draw(st.integers(0, (1 << scale) - 1)), scale)


def test_dyadic_point_validation():
    with pytest.raises(ValueError):
        DyadicPoint(4, 2)
    with pytest.raises(ValueError):
        DyadicPoint(-1, 2)


def test_constant_and_zero_arguments():
    for j in range(16):
        assert wal_eval(0, DyadicPoint(j, 4)) == 1
    for n in range(16):
        assert wal_eval(n, DyadicPoint(0, 4)) == 1


def test_against_bitloop_oracle():
    for n in range(64):
        for j in range(64):
            assert wal_eval(n, DyadicPoint(j, 6)) == bitloop_oracle(n, j, 6)
    # the example point 3/8 at sequency 5
    assert wal_eval(5, DyadicPoint(3, 3)) == bitloop_oracle(5, 3, 3)


def test_kaczmarz_sign_change_count():
    for n in range(64):
        vals = [wal_eval(n, DyadicPoint(j, 10)) for j in range(1 << 10)]
        changes = sum(a != b for a, b in zip(vals, vals[1:]))
        assert changes == n


def test_negative_index_extension():
    x = DyadicPoint(5, 4)
    for n in range(1, 8):
        assert wal_eval(-n, x) == -wal_eval(n, x)


def test_scaling_property_paley():
    # Wal(2^j z, x) = Wal(z, 2^j x mod 1) holds for the Paley-form kernel
    for z in range(64):
        for j in range(3):
            for num in range(64):
                lhs = wal_eval(SequencyIndex(z << j, PALEY), DyadicPoint(num, 6))
                rhs = wal_eval(SequencyIndex(z, PALEY), DyadicPoint((num << j) & 63, 6))
                assert lhs == rhs


def test_multiplicative_identity_all_orderings():
    rng = np.random.default_rng(0)
    for ordering in (KACZMARZ, PALEY, KRONECKER):
        for _ in range(500):
            z = int(rng.integers(0, 256))
            a = int(rng.integers(0, 256))
            b = int(rng.integers(0, 256))
            zi = SequencyIndex(z, ordering, 8 if ordering == KRONECKER else None)
            lhs = wal_eval(zi, DyadicPoint(a, 8)) * wal_eval(zi, DyadicPoint(b, 8))
            assert lhs == wal_eval(zi, DyadicPoint(a ^ b, 8))


@settings(max_examples=200, deadline=None)
@given(width_and_index=widths_and_indices(), frm=orderings, to=orderings)
def test_ordering_convert_identity_and_roundtrip(width_and_index, frm, to):
    assert ordering_convert(0, KACZMARZ, PALEY) == 0
    assert ordering_convert(0, PALEY, KRONECKER, bits=4) == 0
    for n in range(1 << 10):
        assert ordering_convert(ordering_convert(n, KACZMARZ, PALEY), PALEY, KACZMARZ) == n
    # any pair of orderings at any width up to 62 bits: the index stays in
    # the width and converts back to itself
    bits, n = width_and_index
    m = ordering_convert(n, frm, to, bits=bits)
    assert 0 <= m < 1 << bits
    assert ordering_convert(m, to, frm, bits=bits) == n


@settings(max_examples=50, deadline=None)
@given(
    width_and_index=widths_and_indices(),
    frm=orderings,
    to=orderings,
    points=st.lists(dyadic_points(), min_size=1, max_size=8),
)
def test_ordering_convert_pointwise_agreement(width_and_index, frm, to, points):
    pairs = [
        (KACZMARZ, PALEY),
        (PALEY, KACZMARZ),
        (KACZMARZ, KRONECKER),
        (KRONECKER, KACZMARZ),
        (PALEY, KRONECKER),
    ]
    for n in range(32):
        for a, b in pairs:
            m = ordering_convert(n, a, b, bits=5)
            zi = SequencyIndex(n, a, 5 if a == KRONECKER else None)
            zo = SequencyIndex(m, b, 5 if b == KRONECKER else None)
            for j in range(32):
                x = DyadicPoint(j, 5)
                assert wal_eval(zi, x) == wal_eval(zo, x)
    # the same function at points of any scale, for widths up to 62 bits
    bits, n = width_and_index
    m = ordering_convert(n, frm, to, bits=bits)
    zi = SequencyIndex(n, frm, bits if frm == KRONECKER else None)
    zo = SequencyIndex(m, to, bits if to == KRONECKER else None)
    for x in points:
        assert wal_eval(zi, x) == wal_eval(zo, x)


def test_ordering_convert_bijection():
    for d in (4, 8, 12):
        image = {ordering_convert(n, KACZMARZ, KRONECKER, bits=d) for n in range(1 << d)}
        assert image == set(range(1 << d))


def test_kronecker_range_check():
    with pytest.raises(ValueError):
        SequencyIndex(16, KRONECKER, 4)
    with pytest.raises(ValueError):
        SequencyIndex(3, KRONECKER)


def test_fwht_trivial_examples():
    out = fwht_sequency(np.full(8, 2.5))
    assert abs(out[0] - 2.5) < 1e-15 and np.max(np.abs(out[1:])) < 1e-15
    delta = np.zeros(8)
    delta[5] = 1.0
    out = fwht_sequency(delta)
    expect = np.array([wal_eval(n, DyadicPoint(5, 3)) for n in range(8)]) / 8.0
    assert np.max(np.abs(out - expect)) < 1e-15


@settings(max_examples=20, deadline=None)
@given(batch=st.lists(st.integers(0, 3), min_size=1, max_size=2))
def test_fwht_matches_naive_oracle(batch):
    rng = np.random.default_rng(1)
    for small in (3, 5):
        n = 1 << small
        w = np.array(
            [[wal_eval(i, DyadicPoint(j, small)) for j in range(n)] for i in range(n)],
            dtype=float,
        )
        v = rng.standard_normal(n)
        assert np.max(np.abs(fwht_sequency(v) - w @ v / n)) < 1e-12
        assert np.max(np.abs(ifwht_sequency(fwht_sequency(v)) - v)) < 1e-12
    for scale in range(17):
        n = 1 << scale
        perm = _sequency_perm(scale)
        inverse = np.argsort(perm)
        references = {
            lambda v: _hadamard(v, Scratch()): lambda v: reference_hadamard_inplace(v.copy()),
            fwht_sequency: lambda v: np.take(reference_hadamard_inplace(v.copy()), perm, axis=-1) / n,
            ifwht_sequency: lambda c: reference_hadamard_inplace(np.take(c, inverse, axis=-1)),
        }
        stack = rng.standard_normal((*batch, n))
        inputs = (
            rng.standard_normal(n),
            stack,
            rng.standard_normal((*batch, 2 * n))[..., 1::2],  # strided
            np.asfortranarray(stack),
        )
        for x in inputs:
            before = x.copy()
            for transform, reference in references.items():
                got = transform(x)
                assert got.shape == x.shape
                assert np.array_equal(got, reference(x))
                # the transforms work on a copy, never on the caller's array
                assert np.array_equal(x, before)
        # a stack transforms exactly like its rows, one at a time
        rows = stack.reshape(-1, n)
        for transform in (fwht_sequency, ifwht_sequency):
            one_by_one = np.reshape([transform(row) for row in rows], stack.shape)
            assert np.array_equal(transform(stack), one_by_one)


@pytest.mark.parametrize("batch", [(), (1,), (3,), (2, 2)])
def test_scratch_rows_match_the_full_transforms(batch):
    # a Scratch with sequency rows makes the transforms return, and read,
    # exactly those values of the full transforms; reusing it, also for
    # another batch shape, leaves a first result unchanged
    rng = np.random.default_rng(5)
    for scale in (0, 1, 6, 11):
        n = 1 << scale
        rows = rng.choice(n, max(1, n // 3), replace=False)
        work = Scratch(rows, scale)
        x = rng.standard_normal((*batch, n))
        c = rng.standard_normal((*batch, rows.size))
        full = np.zeros((*batch, n))
        full[..., rows] = c
        first_fwht = fwht_sequency(x, work)
        assert np.array_equal(first_fwht, fwht_sequency(x)[..., rows])
        first_ifwht = ifwht_sequency(c, work).copy()
        assert np.array_equal(first_ifwht, ifwht_sequency(full))
        fwht_sequency(rng.standard_normal(x.shape), work)
        ifwht_sequency(rng.standard_normal((5, rows.size)), work)
        assert np.array_equal(ifwht_sequency(c, work), first_ifwht)
        assert np.array_equal(first_fwht, fwht_sequency(x)[..., rows])
        with pytest.raises(ValueError):
            fwht_sequency(np.zeros((*batch, 2 * n)), work)
        with pytest.raises(ValueError):
            ifwht_sequency(np.zeros((*batch, rows.size + 1)), work)


def test_scratch_rejects_bad_rows():
    for rows, j in (([0, 2], None), ([[0, 1]], 2), ([-1], 2), ([4], 2)):
        with pytest.raises(ValueError):
            Scratch(rows, j)


def test_sequency_perm_matches_scalar_bit_reverse():
    for j in range(13):
        expect = [bit_reverse(gray(n), j) for n in range(1 << j)]
        assert _sequency_perm(j).tolist() == expect


def test_fwht_parseval_scaling():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(256)
    c = fwht_sequency(v)
    assert abs(np.sum(c**2) - np.sum(v**2) / 256.0) < 1e-12


def test_fwht_rejects_bad_length():
    for transform in (fwht_sequency, ifwht_sequency):
        for bad in (np.zeros(6), np.zeros((2, 0)), np.float64(1.0)):
            with pytest.raises(ValueError):
                transform(bad)
        # an empty batch is no error and keeps its shape
        assert transform(np.zeros((0, 8))).shape == (0, 8)


def test_walsh_polynomial_trivial_and_random():
    const = WalshPolynomial(0, [1.0])
    for j in range(16):
        assert walsh_poly_eval(const, DyadicPoint(j, 4)) == 1.0
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(5)
    poly = WalshPolynomial(7, coeffs)
    for j in range(32):
        x = DyadicPoint(j, 5)
        direct = sum(
            c * wal_eval(SequencyIndex(7 + i, PALEY), x) for i, c in enumerate(coeffs)
        )
        assert abs(walsh_poly_eval(poly, x) - direct) < 1e-14


def test_walsh_polynomial_grid_parseval():
    rng = np.random.default_rng(4)
    for _ in range(100):
        width = int(rng.integers(1, 17))
        offset = int(rng.integers(0, 300))
        two_l = 1
        while two_l < width:
            two_l *= 2
        two_l <<= int(rng.integers(0, 2))
        coeffs = rng.standard_normal(width)
        poly = WalshPolynomial(offset, coeffs)
        scale = two_l.bit_length() - 1
        total = sum(
            walsh_poly_eval(poly, DyadicPoint(j, scale)) ** 2 for j in range(two_l)
        )
        assert abs(total / two_l - np.sum(coeffs**2)) < 1e-10


def test_shift_identity():
    f = np.zeros(8)
    f[:4] = 1.0
    assert walsh_shift_identity_check(f, 0) == 0.0
    assert walsh_shift_identity_check(f, 1) <= 1e-12
    rng = np.random.default_rng(5)
    g = rng.standard_normal(16)
    assert walsh_shift_identity_check(g, 3) <= 1e-12


def test_gray_codes():
    for n in range(1 << 12):
        assert gray_inverse(gray(n)) == n
