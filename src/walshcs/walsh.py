"""Walsh functions on [0,1), their orderings, and fast sequency-ordered transforms.

All function evaluation is exact integer bit arithmetic on dyadic rationals;
floating point only enters through transform data.  The sequency (Kaczmarz)
ordering is canonical here: a sequency index n yields a function with exactly
n sign changes on [0,1).  Paley and Kronecker indices are converted at the
boundary.

Bit conventions (fixed and validated by the sign-change property, not taken
from any single formula): an index n has bits n_k (k >= 0, LSB first) and a
point x in [0,1) has fractional bits x_1 x_2 ... (x_1 has weight 1/2).

    paley(n, x)    = (-1)^(sum_k n_k * x_{k+1})
    kaczmarz(n, x) = paley(gray(n), x),  gray(n) = n XOR (n >> 1)
    kronecker(n, d, x) = paley(bitrev_d(n), x)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_SCALE = 62

KACZMARZ = "kaczmarz"
PALEY = "paley"
KRONECKER = "kronecker"
_ORDERINGS = (KACZMARZ, PALEY, KRONECKER)


def gray(n):
    """Binary-reflected Gray code of a non-negative integer."""
    return n ^ (n >> 1)


def gray_inverse(n):
    """Inverse of the binary-reflected Gray code."""
    m = n
    shift = 1
    while (m >> shift) > 0:
        m ^= m >> shift
        shift *= 2
    return m


def bit_reverse(n, width):
    """Reverse the lowest `width` bits of n (n must fit in `width` bits)."""
    if n >> width:
        raise ValueError(f"index {n} does not fit in {width} bits")
    r = 0
    for _ in range(width):
        r = (r << 1) | (n & 1)
        n >>= 1
    return r


@dataclass(frozen=True)
class DyadicPoint:
    """A dyadic rational numerator * 2^(-scale) in [0, 1)."""

    numerator: int
    scale: int

    def __post_init__(self):
        if not 0 <= self.scale <= MAX_SCALE:
            raise ValueError(f"scale must be in [0, {MAX_SCALE}], got {self.scale}")
        if not 0 <= self.numerator < (1 << self.scale):
            raise ValueError("numerator must satisfy 0 <= numerator < 2^scale")

    @property
    def value(self):
        return self.numerator / (1 << self.scale)


@dataclass(frozen=True)
class SequencyIndex:
    """Walsh function index in one of the three orderings.

    The Kronecker ordering needs the bit length d of the largest index in
    play; the indexed function changes with d, which is why it is carried
    here rather than passed around separately.
    """

    value: int
    ordering: str = KACZMARZ
    bits: int | None = None

    def __post_init__(self):
        if self.ordering not in _ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.ordering == KRONECKER:
            if self.bits is None:
                raise ValueError("Kronecker ordering requires a bit length")
            if not 0 <= self.value < (1 << self.bits):
                raise ValueError(
                    f"Kronecker index {self.value} out of range for {self.bits} bits"
                )


def _paley_sign(n, x):
    # parity of sum_k n_k * x_{k+1}; bit k of bitrev(numerator) is x_{k+1}
    masked = n & bit_reverse(x.numerator, x.scale)
    return -1 if bin(masked).count("1") & 1 else 1


def wal_eval(z, x):
    """Evaluate a Walsh function, returning +1 or -1 exactly.

    Parameters
    ----------
    z : SequencyIndex or int
        Plain integers are interpreted in the Kaczmarz (sequency) ordering.
        Negative integers use the odd extension Wal(-z, x) = -Wal(z, x).
    x : DyadicPoint
    """
    if isinstance(z, SequencyIndex):
        n, ordering, bits = z.value, z.ordering, z.bits
    else:
        n, ordering, bits = int(z), KACZMARZ, None
    sign = 1
    if n < 0:
        sign, n = -1, -n
    if ordering == KACZMARZ:
        return sign * _paley_sign(gray(n), x)
    if ordering == PALEY:
        return sign * _paley_sign(n, x)
    return sign * _paley_sign(bit_reverse(n, bits), x)


def ordering_convert(n, from_ordering, to_ordering, bits=None):
    """Convert an index between orderings so it names the same function.

    `bits` is required whenever the Kronecker ordering is involved.
    """
    for ordering in (from_ordering, to_ordering):
        if ordering not in _ORDERINGS:
            raise ValueError(f"unknown ordering {ordering!r}")
    if KRONECKER in (from_ordering, to_ordering) and bits is None:
        raise ValueError("Kronecker conversions require a bit length")
    if n < 0:
        raise ValueError("ordering conversion is defined for n >= 0")
    # go through Paley as the hub
    if from_ordering == KACZMARZ:
        p = gray(n)
    elif from_ordering == PALEY:
        p = n
    else:
        p = bit_reverse(n, bits)
    if to_ordering == KACZMARZ:
        return gray_inverse(p)
    if to_ordering == PALEY:
        return p
    return bit_reverse(p, bits)


def _check_length(shape):
    if not shape:
        raise ValueError("transforms need at least one axis")
    n = shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return n.bit_length() - 1


def _butterflies(w, bits, stages, t):
    # Sylvester stages s in `stages` over the leading 2^bits of the contiguous
    # array w: pairs 2^s apart along that axis; t is scratch of w.size / 2.
    n, run = 1 << bits, w.size >> bits
    for s in stages:
        w = w.reshape(n >> (s + 1), 2, run << s)
        a, b = w[:, 0, :], w[:, 1, :]
        d = t[: a.size].reshape(a.shape)
        np.subtract(a, b, out=d)
        a += b
        b[...] = d


class Scratch:
    """Arrays that repeated transforms reuse, one per name, and the sequency
    rows that the sequency transforms keep.

    array(name, shape) hands out a C-ordered view of the first prod(shape)
    values of the flat array kept under name, grown when more are asked
    for; it keeps its values, and so does a transform result that lives in
    it, until its name is asked for again.  Given rows, sequency indices
    below 2^J kept folded into Hadamard order (perm[rows], see
    _sequency_perm), fwht_sequency of a (..., 2^J) array returns only its
    values at those rows, and ifwht_sequency reads (..., |rows|)
    coefficients at them, the others being zero (of a repeated row it keeps
    one value).  band is the least k with every row below 2^k; the rows
    then fold to multiples of 2^(J-k), and band_rows holds them divided by
    2^(J-k), their Hadamard positions at the length 2^k.  Whoever passes a
    Scratch to a transform owns it.
    """

    def __init__(self, rows=None, J=None):
        self._flat = {}
        self.J, self.rows = J, None
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if J is None or rows.ndim != 1:
                raise ValueError("sequency rows are a 1-D index set at a length 2^J")
            if rows.size and (rows.min() < 0 or rows.max() >> J):
                raise ValueError(f"sequency rows must lie in [0, 2^{J})")
            self.rows = _sequency_perm(J)[rows]
            self.band = int(rows.max(initial=0)).bit_length()
            self.band_rows = self.rows >> (J - self.band)

    def array(self, name, shape):
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _hadamard(v, work):
    """Sylvester (natural) order Hadamard transform along the last axis of v,
    in the arrays of the Scratch work, O(N log N); v is read, never written.

    Stage s = 0 .. J-1 adds and subtracts the values 2^s apart, with the same
    two operations per element in any memory layout, so the layout changes
    the speed, never a sum or its rounding.  In index order the early stages
    of one vector would add runs of 1, 2, 4 values; a transposing copy first
    puts the low k = J // 2 index bits on the leading axis, so their stages
    add runs of 2^(J-k) * batch values or more.  A second copy restores index
    order (transform axis first) for the other J - k stages, which add runs
    of 2^k * batch or more.  One half-size buffer serves every stage.  The
    result is a view of the array "hadamard.second".
    """
    shape, n = v.shape, v.shape[-1]
    j = n.bit_length() - 1
    k = j // 2
    width = math.prod(shape[:-1])
    half = work.array("hadamard.half", (n * width // 2,))
    w = work.array("hadamard.first", (1 << k, n >> k, width))
    np.copyto(w, v.reshape(width, n >> k, 1 << k).transpose(2, 1, 0))
    _butterflies(w, k, range(k), half)
    second = work.array("hadamard.second", (n >> k, 1 << k, width))
    np.copyto(second, w.transpose(1, 0, 2))
    _butterflies(second, j, range(k, j), half)
    return second.reshape(n, width).T.reshape(shape)


_PERM_CACHE = {}


def _sequency_perm(j):
    # out[n] = hadamard[perm[n]] realizes the Kaczmarz row ordering
    if j not in _PERM_CACHE:
        g = gray(np.arange(1 << j, dtype=np.int64))
        perm = np.zeros_like(g)
        for b in range(j):  # bit_reverse(g, j), all indices at once
            perm |= ((g >> b) & 1) << (j - 1 - b)
        _PERM_CACHE[j] = perm
    return _PERM_CACHE[j]


def _hadamard_rows(j, work):
    """Where the Hadamard transform of length 2^j holds the sequency rows of
    the Scratch work: all of them, in order, when work has none."""
    if work.rows is None:
        return _sequency_perm(j)
    if j != work.J:
        raise ValueError(f"sequency rows at length 2^{work.J}, transform length 2^{j}")
    return work.rows


def fwht_sequency(v, work=None):
    """Sequency-ordered Walsh-Hadamard transform with quadrature scaling.

    out[n] = 2^(-J) * sum_j v[j] * Wal(n, j / 2^J).  When v holds cell
    averages of a function on the 2^J uniform grid, out[n] is the exact
    integral of that piecewise-constant function against Wal(n, .).
    Acts along the last axis; leading axes are a batch.  Given a Scratch,
    the transform runs in its arrays and returns out at its rows (if it has
    any) only; the result is a fresh array either way.
    """
    v = np.asarray(v, dtype=float)
    j = _check_length(v.shape)
    work = Scratch() if work is None else work
    rows, width = _hadamard_rows(j, work), math.prod(v.shape[:-1])
    out = np.empty(v.shape[:-1] + rows.shape)
    # gathered along the transform axis of the (2^J, batch) array _hadamard
    # holds: np.take along the last axis of its view copies that array first
    hadamard = _hadamard(v, work).reshape(width, 1 << j).T
    np.divide(hadamard[rows].T, 1 << j, out=out.reshape(width, rows.size))
    return out


def ifwht_sequency(c, work=None):
    """Inverse of fwht_sequency: v[j] = sum_n c[n] * Wal(n, j / 2^J),
    along the last axis.  Given a Scratch with rows, c holds the
    coefficients at its rows (the others are zero) and J is the Scratch's;
    given any Scratch, the result lives in it.

    Rows below 2^k with k < J (the Scratch's band) give a v constant on
    runs of 2^(J-k) values (Wal(n, .) with n < 2^k is constant on cells of
    width 2^-k), so the transform runs at the length 2^k and repeats each
    value 2^(J-k) times.  At 2^J the first J - k butterfly stages only add
    and subtract zeros, which leaves every value as it is but a -0.0, which
    turns +0.0 in all but the last value of its run: coefficients with a
    -0.0 among them run at 2^J, so the result is the same bit for bit."""
    c = np.asarray(c, dtype=float)
    work = Scratch() if work is None else work
    if work.rows is None:
        j = _check_length(c.shape)
    elif c.shape[-1:] == work.rows.shape:
        j = work.J
    else:
        raise ValueError(f"coefficients at {work.rows.size} rows, got shape {c.shape}")
    if work.rows is None or work.band == j or np.signbit(c[c == 0.0]).any():
        k, rows = j, _hadamard_rows(j, work)
    else:
        k, rows = work.band, work.band_rows
    grid = work.array("sequency.grid", c.shape[:-1] + (1 << k,))
    grid[...] = 0.0
    grid.T[rows] = c.T  # along the last axis, without an Ellipsis index
    v = _hadamard(grid, work)
    if k == j:
        return v
    # the values repeated into the grid, in the layout _hadamard returns at 2^J
    width = math.prod(c.shape[:-1])
    grid = work.array("sequency.grid", (1 << k, 1 << (j - k), width))
    grid[...] = v.reshape(width, 1 << k).T[:, None, :]
    return grid.reshape(1 << j, width).T.reshape(c.shape[:-1] + (1 << j,))


@dataclass(frozen=True)
class WalshPolynomial:
    """Finite combination sum_{j=A}^{B} coeffs[j-A] * Wal(j, .).

    Defaults to the Paley-form kernel: the grid Parseval identity for a
    shifted index window (the window {A..B} restricted to a 2L-point grid
    staying orthonormal whenever 2L >= B - A + 1) is exact in that form,
    whereas the sequency relabeling breaks index-window contiguity (e.g.
    gray(1) = gray(2) mod 2).
    """

    offset: int
    coeffs: np.ndarray = field(repr=False)
    ordering: str = PALEY

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if self.ordering not in (KACZMARZ, PALEY):
            raise ValueError("Walsh polynomials support kaczmarz or paley ordering")


def walsh_poly_eval(poly, x):
    """Evaluate a Walsh polynomial at a dyadic point."""
    total = 0.0
    for i, a in enumerate(poly.coeffs):
        if a != 0.0:
            total += a * wal_eval(SequencyIndex(poly.offset + i, poly.ordering), x)
    return total


def walsh_shift_identity_check(f_samples, t, s_indices=None, s_scale=None):
    """Max deviation in the transform shift identity over a set of points.

    For f given as cell averages at scale J and an integer shift t, compares
    the transform of the copy of f living on [t, t+1) against
    Wal(t, s) * (transform of f), at points s = m / 2^s_scale.  Both sides
    are direct summations; the deviation is zero up to rounding whenever the
    bit conventions are self-consistent.
    """
    f = np.asarray(f_samples, dtype=float)
    big_j = _check_length(f.shape)
    if t < 0:
        raise ValueError("shift t must be a non-negative integer")
    if s_scale is None:
        s_scale = big_j
    if s_indices is None:
        s_indices = range(1 << min(s_scale, 10))
    q = big_j + s_scale
    if q > MAX_SCALE or t >= (1 << s_scale):
        raise ValueError("shift or scale too large for exact evaluation")
    worst = 0.0
    scale_n = 1 << big_j
    for m in s_indices:
        lhs = 0.0
        plain = 0.0
        for jj in range(scale_n):
            lhs += f[jj] * wal_eval(m, DyadicPoint((t << big_j) + jj, q))
            plain += f[jj] * wal_eval(m, DyadicPoint(jj, q))
        lhs /= scale_n
        plain /= scale_n
        rhs = plain * wal_eval(m, DyadicPoint(t << big_j, q))
        worst = max(worst, abs(lhs - rhs))
    return worst
