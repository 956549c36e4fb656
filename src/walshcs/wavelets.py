"""Boundary-corrected Daubechies wavelet bases on [0,1].

The filters come from this module's own high-precision construction, not
from published tables.  Its double-precision output for every supported
order is stored in _filter_table.py, which every basis reads, so no basis
runs or imports mpmath; test_filters_are_pinned checks the table against the
construction bit for bit, and from the repository root

    PYTHONPATH=src python3 -c "from walshcs.wavelets import _filter_table_text as t; print(t(), end='')" > src/walshcs/_filter_table.py

rewrites it.

The interior filter comes from spectral factorization in high precision.
Edge scaling functions start from binomial combinations of scaling-function
translates clipped to the interval.  The Gram matrix G of the clipped
translates that cross the edge is the matrix fixed point
G = C G C^T + D D^T of the refinement relation (C: taps onto finer crossing
translates, D: taps onto finer interior ones), solved to working precision,
and a staggered Gram-Schmidt (boundary inward) orthonormalizes the
candidates.  Edge wavelets complete the two-scale synthesis map to an
orthogonal one.  All discrete transforms built here are
orthogonal to rounding error.

Index conventions: the interior filter h[i] lives on offsets t = i - p + 1
for t = -p+1 .. p, so the scaling function has support [-p+1, p] and the
translate phi(. - s) at level j is interior to [0,1] exactly when
p-1 <= s <= 2^j - p.  Basis order within a level is p left-edge functions,
interior translates s = p .. 2^j - p - 1, then p right-edge functions
mirrored; the translates s = p-1 and s = 2^j - p flush against the edges
are the two dropped interior functions.
"""

from __future__ import annotations

import math
import textwrap
from dataclasses import dataclass, field

import numpy as np

from .walsh import Scratch

_SUPPORTED_ORDERS = (1, 3, 4, 5, 6, 7, 8, 9, 10)


def _edge_dps(p):
    # the clipped-translate system loses roughly kappa ~ (binomial growth)
    # digits for large p; generous working precision keeps the rounded
    # filters exact to double
    return 50 + 12 * p


def _daubechies_mp(p):
    """High-precision extremal-phase filter as a list of mpmath floats."""
    import mpmath as mp

    if p == 1:
        with mp.workdps(_edge_dps(p)):
            r = 1 / mp.sqrt(2)
            return [r, r]
    with mp.workdps(_edge_dps(p)):
        # z^(p-1) * P((2 - z - 1/z) / 4) as an ordinary polynomial, where
        # P(y) = sum_k binom(p-1+k, k) y^k is the Daubechies polynomial
        poly = [mp.mpf(0)] * (2 * p - 1)
        for k in range(p):
            c = mp.binomial(p - 1 + k, k) / mp.mpf(4) ** k
            # (2 - z - 1/z)^k = sum_m (-1)^m binom(2k, k+m) z^m
            for m in range(-k, k + 1):
                poly[m + p - 1] += c * ((-1) ** abs(m) * mp.binomial(2 * k, k + m))
        roots = mp.polyroots(
            [poly[i] for i in range(2 * p - 2, -1, -1)], maxsteps=2000, extraprec=200
        )
        inside = [r for r in roots if abs(r) < 1]
        if len(inside) != p - 1:
            raise RuntimeError("spectral factorization failed to split root pairs")
        # sqrt(2) * ((1+z)/2)^p * prod (z - r_i)/(1 - r_i), extremal phase
        coeffs = [mp.mpf(1)]
        for r in inside:
            nxt = [mp.mpf(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= r * c
            coeffs = nxt
        norm = mp.mpf(1)
        for r in inside:
            norm *= 1 - r
        coeffs = [c / norm for c in coeffs]
        binom = [mp.binomial(p, i) / mp.mpf(2) ** p for i in range(p + 1)]
        h = [mp.mpf(0)] * (2 * p)
        for i, c in enumerate(coeffs):
            for j, b in enumerate(binom):
                h[i + j] += c * b
        # the inside-circle factor yields the reversed extremal-phase filter
        out = [mp.re(mp.sqrt(2) * x) for x in h][::-1]
    return out


def daubechies_filter(p):
    """Orthonormal Daubechies (extremal phase) scaling filter of order p.

    Returns a fresh length-2p filter normalized so that sum(h) = sqrt(2):
    the spectral factorization of _daubechies_mp in high precision, rounded
    to double and read from _filter_table.py.  Index i corresponds to
    offset t = i - p + 1.
    """
    if p not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported wavelet order {p} (allowed: {_SUPPORTED_ORDERS})")
    return _filters_for_order(p)[0]


def wavelet_filter_from_scaling(h):
    """Alternating flip g[t] = (-1)^t h[1-t] on the centered window."""
    p = h.size // 2
    g = np.empty_like(h)
    for i in range(h.size):
        t = i - p + 1
        g[i] = (-1) ** (t & 1) * h[(1 - t) + p - 1]
    return g


def _refinement_matrix(h, coarse, fine, mp):
    """Taps h[u - 2s] from the translates s in `coarse` onto the translates
    u in `fine` one level finer, as an mp.matrix (zero off the support)."""
    p = len(h) // 2
    r = mp.zeros(len(coarse), len(fine))
    for i, s in enumerate(coarse):
        for j, u in enumerate(fine):
            if -p + 1 <= u - 2 * s <= p:
                r[i, j] = h[u - 2 * s + p - 1]
    return r


def _crossing_gram(h, mp):
    """Gram matrix G of the scaling-function translates m = -p+1 .. p-2
    clipped to [0, inf), the ones that cross 0, for a high-precision filter h.

    Refinement gives the fixed point G = C G C^T + D D^T: C holds the taps
    onto the finer translates that also cross 0, D the taps onto the finer
    translates u = p-1 .. 3p-4 inside [0, inf), which are orthonormal
    (translates ending before 0 vanish).  I - kron(C, C) is inverted once in
    double precision; each of five passes corrects G by its image of the
    fixed-point residual taken in working precision.
    """
    p = len(h) // 2
    crossing = range(-p + 1, p - 1)
    if not crossing:  # Haar: no translate crosses 0
        return mp.zeros(0)
    c = _refinement_matrix(h, crossing, crossing, mp)
    d = _refinement_matrix(h, crossing, range(p - 1, 3 * p - 3), mp)
    dd = d * d.T
    c_f = np.array(c.tolist(), dtype=float)
    ainv = np.linalg.inv(np.eye(c_f.size) - np.kron(c_f, c_f))
    g = mp.zeros(len(crossing))
    for _ in range(5):
        resid = np.array((c * g * c.T + dd - g).tolist(), dtype=float).ravel()
        g += mp.matrix((ainv @ resid).reshape(g.rows, g.cols))
    return g


def _edge_system(h, mp):
    """Left-edge construction for a centered high-precision filter.

    Returns HL as a float array: the p x (3p-1) refinement block of the
    orthonormal edge scaling functions (expanded in clipped translates
    s = -p+1 .. p-1 at their own level).  Columns 0..p-1 target the
    finer-level edge functions, columns p..3p-2 the finer interior
    translates u = p..3p-2.
    """
    p = len(h) // 2
    shifts = range(-p + 1, p)
    fine = range(-p + 1, 3 * p - 1)
    ns, nc = len(shifts), 2 * p - 2
    # the clipped translates from -p+1 upward have Gram matrix blockdiag(G, I)
    gram = mp.eye(len(fine))
    gram[:nc, :nc] = _crossing_gram(h, mp)
    gram_s = gram[:ns, :ns]

    def dot(a, b, gram):
        return (a.T * gram * b)[0]

    # staggered orthonormalization from the boundary inward (k = p-1 first);
    # column k of d is edge function k in the translates `shifts`
    d = mp.zeros(ns, p)
    for k in range(p - 1, -1, -1):
        v = mp.matrix([math.comb(p - 1 - s, k) if p - 1 - s >= k else 0 for s in shifts])
        for _ in range(2):
            for k2 in range(p - 1, k, -1):
                v -= dot(d[:, k2], v, gram_s) * d[:, k2]
            v /= mp.sqrt(dot(v, v, gram_s))
        d[:, k] = v

    # refinement onto the finer level, whose first ns clipped translates
    # carry the finer edge functions with the same coefficients d
    chat = _refinement_matrix(h, shifts, fine, mp).T * d
    he = chat.T * gram[:, :ns] * d
    hl = np.zeros((p, 3 * p - 1))
    residual_worst = 0.0
    for k in range(p):
        hl[k, :p] = [float(x) for x in he[k, :]]
        interior = chat[2 * p - 1 :, k]
        hl[k, p:] = [float(x) for x in interior]
        # the edge block plus kept interior translates must absorb everything
        res = (
            dot(chat[:, k], chat[:, k], gram)
            - mp.fsum(x**2 for x in he[k, :])
            - mp.fsum(x**2 for x in interior)
        )
        residual_worst = max(residual_worst, abs(float(res)))
    if residual_worst > 1e-18:
        raise RuntimeError("edge refinement does not close; construction invalid")
    return hl


def _complete_orthonormal(q, scan_order, count):
    """Deterministic completion of orthonormal columns by residual sweeps."""
    found = []
    for i in scan_order:
        r = np.zeros(q.shape[0])
        r[i] = 1.0
        for _ in range(2):  # two modified Gram-Schmidt passes
            r -= q @ (q.T @ r)
            for w in found:
                r -= w * (w @ r)
        nrm = np.linalg.norm(r)
        if nrm > 1e-6:
            r /= nrm
            lead = np.flatnonzero(np.abs(r) > 1e-10)[0]
            if r[lead] < 0:
                r = -r
            found.append(r)
            if len(found) == count:
                return found
    raise RuntimeError("orthonormal completion failed to find enough vectors")


@dataclass
class WaveletBasis:
    """Orthonormal boundary-corrected Daubechies basis of order p on [0,1].

    Valid from the minimal level J0 (2^J0 >= 2p-1) upward.  Levels so small
    that the two edge regions share finer-level translates get a dedicated
    orthonormal completion of their wavelet space, cached per level size.
    """

    p: int
    J0: int
    h: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    HL: np.ndarray = field(repr=False)
    HR: np.ndarray = field(repr=False)
    GL: np.ndarray = field(repr=False)
    GR: np.ndarray = field(repr=False)
    _edge_wavelet_cache: dict = field(default_factory=dict, repr=False)
    _average_map_cache: dict = field(default_factory=dict, repr=False)

    @property
    def filter_width(self):
        return 3 * self.p - 1

    def _level_map(self, n0, kind):
        """The level -> level+1 map of `kind` ('scaling' or 'wavelet') at
        level size n0, as (taps, left, right): interior taps and two
        p x width edge blocks over the first and last width finer
        coefficients; right acts on the mirrored coefficients."""
        p = self.p
        taps = self.h if kind == "scaling" else self.g
        if n0 == 1 and p == 1:
            return taps, taps[None], np.zeros((1, 0))
        if n0 < 2 * p:
            raise ValueError(f"level size {n0} below minimum 2p = {2 * p}")
        if kind == "scaling":
            return taps, self.HL, self.HR[:, ::-1]
        if 2 * n0 >= 6 * p - 2:
            return taps, self.GL, self.GR[:, ::-1]
        return (taps, *self._edge_wavelets(n0))

    # -- structured banded maps ---------------------------------------------
    # Both directions act along the last axis; leading axes are a batch.

    def synthesis(self, c, kind="scaling"):
        """Apply the level -> level+1 map of `kind` to coefficients c."""
        c = np.asarray(c, dtype=float).T
        out = np.empty((2 * c.shape[0],) + c.shape[1:])
        return _band_apply(c, self._level_map(c.shape[0], kind), 2, out, Scratch()).T

    def analysis(self, v, kind="scaling"):
        """Transpose of synthesis (level+1 -> level)."""
        v = np.asarray(v, dtype=float).T
        out = np.empty((v.shape[0] // 2,) + v.shape[1:])
        work = Scratch()
        band = self._level_map(out.shape[0], kind)
        return _band_transpose(v, _even_odd(v, work), band, out, work).T

    def _average_map(self, depth):
        """B_depth as (taps, left, right) like _level_map: 2p - 1 interior
        taps on offsets -p+1 .. p-1 and p x (2p - 1) edge blocks.  It takes
        scale-j grid values to the scale-j cell averages of the same
        function's grid values depth octaves finer, at every level of at
        least 4p - 2 coefficients (2 for Haar).  Read off a reference level
        of 8p coefficients through a comb of unit vectors whose footprints
        never meet, by B_d = 2^(-1/2) (pair sums) B_(d-1) (one refinement);
        refining d levels at once would let the rounding error grow with d.
        Cached per depth."""
        if depth not in self._average_map_cache:
            p = self.p
            n, width = 8 * p, 2 * p - 1
            edge = np.arange(p)
            comb = np.zeros((p, n))
            comb[edge, edge] = comb[edge, n - 1 - edge] = comb[0, n // 2] = 1.0
            if depth:
                fine = self.average(self.synthesis(comb), depth - 1)
                comb = fine.reshape(p, n, 2).sum(axis=-1) * 2.0**-0.5
            taps = comb[0, n // 2 - p + 1 : n // 2 + p]
            self._average_map_cache[depth] = (taps, comb[:, :width], comb[:, n - width :])
        return self._average_map_cache[depth]

    def average(self, v, depth, work=None):
        """B_depth along the last axis of scale-j grid values v: the scale-j
        cell averages of the function's grid values depth octaves finer.
        Given a Scratch, the result lives in it."""
        v = np.asarray(v, dtype=float).T
        work = Scratch() if work is None else work
        return _band_apply(v, self._average_map(depth), 1, work.array("average", v.shape), work).T

    def average_adjoint(self, w, depth, work=None):
        """Transpose of average."""
        w = np.asarray(w, dtype=float).T
        work = Scratch() if work is None else work
        out = work.array("average_adjoint", w.shape)
        return _band_transpose(w, w[None], self._average_map(depth), out, work).T

    def _edge_wavelets(self, n0):
        """Edge wavelets of the level of size n0, as rows over the 2 * n0
        finer coefficients: the orthonormal completion of the scaling and
        interior wavelet columns of the two-scale map, p at the left edge
        and then p at the right (cached per level size)."""
        if n0 not in self._edge_wavelet_cache:
            p = self.p
            gi = np.zeros((2 * n0, max(n0 - 2 * p, 0)))
            for j, pos in enumerate(range(p, n0 - p)):
                gi[2 * pos - p + 1 : 2 * pos + p + 1, j] = self.g
            q = np.hstack([self.synthesis(np.eye(n0)).T, gi])
            left = _complete_orthonormal(q, range(2 * n0), p)
            q2 = np.column_stack([q, *left])
            right = _complete_orthonormal(q2, range(2 * n0 - 1, -1, -1), p)
            self._edge_wavelet_cache[n0] = (np.array(left), np.array(right))
        return self._edge_wavelet_cache[n0]


def _matmul_lead(m, x):
    """m @ x contracting the leading axis of x, whatever axes follow it."""
    return (x.T @ m.T).T


# A banded map as (taps, left, right) of _level_map or _average_map: n0
# coefficients go to step * n0 values; interior coefficient s adds
# taps[i] * c[s] at step * s + i - p + 1, the first p coefficients (the p
# rows of left) go through the left block and the last p, mirrored, through
# the right one.  Both directions act on the leading axis, write their
# result into out, which they return, and take their working arrays from
# the Scratch work.  They run in polyphase form, on a (step, n0, ...) array
# whose phase i holds the values at the rows i, i + step, ... (for step 1,
# the values themselves), so that tap i reads, or adds into, one contiguous
# run of rows of phase (i - p + 1) mod step.  _band_transpose is given the
# phases of what it reads (dwt_forward splits each level once for both of
# its maps); _band_apply accumulates the phases of what it writes and
# interleaves them into out once.  Every value gets the same operations in
# the same order as on the interleaved rows: zero, the edge blocks, then
# the taps in order, each product of a tap with the interior formed in the
# array "band" of work; the edge blocks' matrix products read the values as
# given, since their rounding depends on the layout of what they read.  The
# bodies index the leading axis with plain slices, which numpy resolves
# faster than slices behind an Ellipsis.


def _even_odd(v, work):
    """The phases of the values v of a step-2 map: its even and odd rows
    (leading axis) in the C-ordered array "band.phases" of the Scratch work."""
    n0 = v.shape[0] // 2
    phases = work.array("band.phases", (2, n0) + v.shape[1:])
    np.copyto(phases, v.reshape((n0, 2) + v.shape[1:]).swapaxes(0, 1))
    return phases


def _add_rows(phases, start, block):
    """Add block, the values at the rows start, start + 1, ..., to the
    phases that hold those rows."""
    step = len(phases)
    for i, phase in enumerate(phases):
        first = (i - start) % step
        rows = block[first::step]
        lo = (start + first) // step
        phase[lo : lo + rows.shape[0]] += rows


def _band_apply(c, band, step, out, work):
    taps, left, right = band
    p = left.shape[0]
    n0 = c.shape[0]
    phases = out[None] if step == 1 else work.array("band.phases", (step,) + c.shape)
    phases[...] = 0.0
    _add_rows(phases, 0, _matmul_lead(left.T, c[:p]))
    _add_rows(phases, step * n0 - right.shape[1], _matmul_lead(right.T, c[n0 - p :][::-1]))
    if n0 > 2 * p:
        mid = c[p : n0 - p]
        product = work.array("band", mid.shape)
        for i, tap in enumerate(taps):
            t = i - p + 1
            lo = p + t // step
            np.multiply(mid, tap, product)
            phases[t % step, lo : lo + n0 - 2 * p] += product
    if step > 1:
        for i, phase in enumerate(phases):
            out[i::step] = phase
    return out


def _band_transpose(v, phases, band, out, work):
    taps, left, right = band
    p = left.shape[0]
    step = len(phases)
    n1 = v.shape[0]
    n0 = n1 // step
    out[...] = 0.0
    if n0 > 2 * p:
        interior = out[p : n0 - p]
        product = work.array("band", interior.shape)
        for i, tap in enumerate(taps):
            t = i - p + 1
            lo = p + t // step
            np.multiply(phases[t % step, lo : lo + n0 - 2 * p], tap, product)
            interior += product
    out[:p] += _matmul_lead(left, v[: left.shape[1]])
    out[n0 - p :] += _matmul_lead(right, v[n1 - right.shape[1] :])[::-1]
    return out


def _filters_mp(p):
    """(h, HL, HR) of order p from the high-precision construction, rounded
    to double: the reference that _filter_table.py stores."""
    import mpmath as mp

    with mp.workdps(_edge_dps(p)):
        h_mp = _daubechies_mp(p)
        hl = _edge_system(h_mp, mp)
        hr = _edge_system(list(reversed(h_mp)), mp)
    return np.array([float(x) for x in h_mp]), hl, hr


def _filter_table_text(filters=None):
    """Source text of _filter_table.py for `filters`, a map from order to
    (h, HL, HR), by default _filters_mp of every supported order.  Each
    float is written by repr, which parses back to the same bits."""
    if filters is None:
        filters = {p: _filters_mp(p) for p in _SUPPORTED_ORDERS}

    def row(values, indent):
        pad = " " * indent
        text = ", ".join(repr(float(x)) for x in values)
        return textwrap.fill(f"({text}),", 88, initial_indent=pad, subsequent_indent=pad + " ")

    lines = [
        '"""Boundary-corrected Daubechies filters (h, HL, HR) by order, written by',
        "walshcs.wavelets._filter_table_text from the high-precision construction",
        "of that module.  Do not edit; regenerate from the repository root with",
        "",
        "    PYTHONPATH=src python3 -c \"from walshcs.wavelets import _filter_table_text as t;"
        " print(t(), end='')\" > src/walshcs/_filter_table.py",
        '"""',
        "",
        "FILTERS = {",
    ]
    for p, (h, hl, hr) in filters.items():
        lines += [f"    {p}: (", row(h, 8)]
        for block in (hl, hr):
            lines += ["        (", *(row(r, 12) for r in block), "        ),"]
        lines.append("    ),")
    return "\n".join(lines + ["}", ""])


def _filters_for_order(p):
    """(h, HL, HR) of order p as fresh arrays read from _filter_table.py."""
    # imported here, so that the generator above runs while the table is rewritten
    from ._filter_table import FILTERS

    return tuple(np.array(a) for a in FILTERS[p])


def build_basis(p, J0):
    """Construct the boundary-corrected basis of order p with minimal level J0.

    Requires 2^J0 >= 2p-1 and p in {1, 3, 4, ..., 10}; for p = 1 the result
    is exactly the Haar system on [0,1].
    """
    if p not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported wavelet order {p} (allowed: {_SUPPORTED_ORDERS})")
    if J0 < 0 or (1 << J0) < 2 * p - 1:
        raise ValueError(f"need 2^J0 >= {2 * p - 1} for order {p}, got J0 = {J0}")
    h, hl, hr = _filters_for_order(p)
    g = wavelet_filter_from_scaling(h)
    basis = WaveletBasis(
        p=p,
        J0=J0,
        h=h,
        g=g,
        HL=hl,
        HR=hr,
        GL=np.zeros((p, 3 * p - 1)),
        GR=np.zeros((p, 3 * p - 1)),
    )
    # edge wavelet filters from a reference level where the edges decouple
    n_ref = 1 << max(math.ceil(math.log2(4 * p)), 2)
    left, right = basis._edge_wavelets(n_ref)
    width = basis.filter_width
    if max(np.max(np.abs(left[:, width:])), np.max(np.abs(right[:, :-width]))) > 1e-11:
        raise RuntimeError("edge wavelet support exceeded the expected window")
    basis.GL[:] = left[:, :width]
    basis.GR[:] = right[:, -width:][:, ::-1]
    return basis


@dataclass(frozen=True)
class LevelStructure:
    """Dyadic level partition of coefficients (M) and samples (N).

    M = (0, 2^(J0+1), ..., 2^(J0+r)); N matches it except that its last
    band extends to 2^(J0+r+q) for an oversampling exponent q >= 0.  The
    first block pairs the level-J0 scaling and wavelet coefficients; block
    k >= 2 is the wavelet level J0 + k - 1.
    """

    J0: int
    r: int
    q: int = 0

    def __post_init__(self):
        if self.J0 < 0 or self.r < 1 or self.q < 0:
            raise ValueError("need J0 >= 0, r >= 1, q >= 0")
        if self.J0 + self.r + self.q > 40:
            raise ValueError("level structure too large")

    @property
    def M(self):
        return np.array([0] + [1 << (self.J0 + k) for k in range(1, self.r + 1)])

    @property
    def N(self):
        n = [0] + [1 << (self.J0 + k) for k in range(1, self.r)]
        n.append(1 << (self.J0 + self.r + self.q))
        return np.array(n)

    @property
    def M_r(self):
        return 1 << (self.J0 + self.r)

    @property
    def N_r(self):
        return 1 << (self.J0 + self.r + self.q)


def dwt_forward(samples, basis, top=None, work=None):
    """Full discrete wavelet analysis of cell averages on a dyadic grid.

    Returns the 2^top L2([0,1]) coefficients: scaling block at level
    basis.J0, then wavelet levels below `top` (default the grid scale; the
    levels at or above it are not analysed, which makes this the transpose
    of dwt_inverse of 2^top coefficients).  Exact inverse of dwt_inverse at
    the same scale.  Acts along the last axis; leading axes are a batch.
    Given a Scratch, the intermediate levels live in it; the coefficients
    returned are a fresh array either way.
    """
    v = np.asarray(samples, dtype=float)
    n = v.shape[-1] if v.ndim else 0
    if n == 0 or n & (n - 1):
        raise ValueError("grid vector length must be a power of two")
    big_q = n.bit_length() - 1
    r0 = basis.J0
    top = big_q if top is None else top
    if not r0 < top <= big_q:
        raise ValueError("expansion scale must satisfy J0 < top <= Q")
    work = Scratch() if work is None else work
    # c in v's memory order, as v * scale would be (numpy's order K): the
    # band maps' matrix products round by the layout of what they read
    order = sorted(range(v.ndim), key=lambda axis: -abs(v.strides[axis]))
    c = work.array("dwt_forward", tuple(v.shape[axis] for axis in order))
    c = np.multiply(v, 2.0 ** (-big_q / 2.0), out=c.transpose(np.argsort(order))).T
    # the levels in the band maps' layout: even and odd scaling ones, wavelets
    scalings = [work.array(f"dwt_forward.{i}", (n // 2,) + c.shape[1:]) for i in range(2)]
    wavelets = work.array("dwt_forward.wavelet", (1 << (top - 1),) + c.shape[1:])
    out = np.empty(v.shape[:-1] + (1 << top,))
    for j in range(big_q - 1, r0 - 1, -1):
        phases = _even_odd(c, work)
        if j < top:
            wavelet = wavelets[: 1 << j]
            _band_transpose(c, phases, basis._level_map(1 << j, "wavelet"), wavelet, work)
            out[..., 1 << j : 1 << (j + 1)] = wavelet.T
        scaling = scalings[j % 2][: 1 << j]
        c = _band_transpose(c, phases, basis._level_map(1 << j, "scaling"), scaling, work)
    out[..., : 1 << r0] = c.T
    return out


def dwt_inverse(coeffs, basis, Q, work=None):
    """Cell averages at scale Q of the function with the 2^top coefficients
    along the last axis of coeffs, ordered as dwt_forward returns them
    (J0 < top <= Q; wavelet levels at or above top are treated as zero).
    Given a Scratch, the intermediate levels and the result live in it."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[-1] if coeffs.ndim else 0
    r0 = basis.J0
    top = n.bit_length() - 1
    if n & (n - 1) or not r0 < top <= Q:
        raise ValueError(
            f"need 2^top coefficients with J0 = {r0} < top <= Q = {Q}, got {n}"
        )
    work = Scratch() if work is None else work
    c = work.array("dwt_inverse", coeffs.shape[:-1] + (1 << r0,))
    c[...] = coeffs[..., : 1 << r0]
    c = c.T
    # the levels in the band maps' layout: even and odd scaling ones, wavelets
    scalings = [work.array(f"dwt_inverse.{i}", (1 << Q,) + c.shape[1:]) for i in range(2)]
    wavelets = work.array("dwt_inverse.wavelet", (1 << top,) + c.shape[1:])
    for j in range(r0, Q):
        c2 = scalings[j % 2][: 2 << j]
        _band_apply(c, basis._level_map(1 << j, "scaling"), 2, c2, work)
        if j < top:
            wavelet = coeffs[..., 1 << j : 1 << (j + 1)].T
            c2 += _band_apply(
                wavelet, basis._level_map(1 << j, "wavelet"), 2, wavelets[: 2 << j], work
            )
        c = c2
    c *= 2.0 ** (Q / 2.0)
    return c.T


def cascade_tabulate(basis, j, n, Q, kind="scaling"):
    """Grid-cell averages of one basis function on the 2^Q dyadic grid.

    Iterates the two-scale refinement Q - j times; exact for Haar and
    O(2^-(Q-j)) accurate in sup norm for Lipschitz members away from the
    boundary.  In the p outermost cells at each end the iteration reports
    the fine-level edge coefficients scaled like cell values (the edge
    functions are not averaging kernels), an O(1) pointwise discrepancy of
    O(2^-Q) total mass; integrals, Gram quadrature and Walsh pairings are
    unaffected at the stated rates.
    """
    if Q < j:
        raise ValueError("grid exponent Q must be at least the level j")
    if not 0 <= n < (1 << j):
        raise ValueError(f"shift index {n} out of range at level {j}")
    if kind not in ("scaling", "wavelet"):
        raise ValueError("kind must be 'scaling' or 'wavelet'")
    if basis.p > 1 and (1 << j) < 2 * basis.p:
        raise ValueError(f"level {j} below the basis minimum for p = {basis.p}")
    e = np.zeros(1 << j)
    e[n] = 1.0
    if kind == "wavelet":
        if Q == j:
            raise ValueError("a level-j wavelet needs grid exponent Q >= j + 1")
        c = basis.synthesis(e, "wavelet")
        start = j + 1
    else:
        c = e
        start = j
    for lev in range(start, Q):
        c = basis.synthesis(c)
    return c * 2.0 ** (Q / 2.0)


def export_filters(basis, path):
    """Write all filters as CSV, one per row, 17 significant digits."""
    rows = [("interior_scaling", basis.h), ("interior_wavelet", basis.g)]
    rows += [(f"left_scaling_{k}", basis.HL[k]) for k in range(basis.p)]
    rows += [(f"right_scaling_{k}", basis.HR[k]) for k in range(basis.p)]
    rows += [(f"left_wavelet_{k}", basis.GL[k]) for k in range(basis.p)]
    rows += [(f"right_wavelet_{k}", basis.GR[k]) for k in range(basis.p)]
    with open(path, "w") as fh:
        for name, values in rows:
            fh.write(name + "," + ",".join(f"{v:.17g}" for v in values) + "\n")


def import_filters(path):
    """Read a filter CSV back into a name -> array mapping."""
    out = {}
    with open(path) as fh:
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) > 1:
                out[parts[0]] = np.array([float(x) for x in parts[1:]])
    return out
