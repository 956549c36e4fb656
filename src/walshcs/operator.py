"""Matrix-free change-of-basis operator between Walsh samples and wavelets.

Entries are u[i, j] = <Wal(i, .), basis function j>, evaluated on a fine
dyadic grid of cell averages: synthesis tabulates the wavelet side as a
piecewise-constant surrogate at scale Q, and because Wal(i, .) with
i < 2^Q is constant on the grid cells, the sequency transform of that
surrogate gives the inner products exactly (the only error is the
surrogate itself, O(2^-(Q-R)) for order p >= 3 and zero for Haar).
Forward and adjoint applications are exact transposes of each other.

Band identity: Wal(n, .) with n < 2^m is constant on the cells of width
2^-m, so its integral against the scale-Q surrogate equals its integral
against the surrogate's cell averages at scale m.  apply therefore works at
the scale m = max(bit length of max omega, scale of the last coefficient):
it synthesizes up to level m, applies the banded map B_(Q-m) of the basis
(WaveletBasis.average: the scale-m cell averages of the surrogate refined to
scale Q) and runs the sequency transform at 2^m.  This is the same linear
map as the full-grid route, not an approximation of it; only the rounding
differs (about 1e-15 relative).  apply_adjoint is its transpose: scatter at
2^m, inverse transform, B^T, analysis from level m, skipping the wavelet
levels at or above L.  When a sample reaches 2^(Q-1), m = Q, B is the
identity and is not applied, and the full-grid operations run unchanged.

Workspace: a caller that takes many products at one index set (an
iterative solver, the Lanczos steps of analysis.tail_norm) builds one
Workspace and passes it to apply and apply_adjoint, with the omega (and L)
it was built for; another omega or L raises.  It checks omega once, fixes
m and keeps every 2^m-sized array the transforms need in a walsh.Scratch,
so the products allocate nothing of grid size; the Scratch holds omega
folded into the Hadamard order of the sequency transform, so apply gathers
|omega| values and apply_adjoint scatters them onto a zeroed grid.
Whoever builds a Workspace owns it; CobOperator keeps no state.  A product
with a Workspace runs the same floating-point operations in the same order
as one without (which builds a fresh Workspace for the call), so the two
are equal bit for bit, and no array returned is one the Workspace holds.
The one exception: a Workspace built with dense=True also holds the
section P_omega U P_L, formed once by rows_dense, and apply_adjoint on it
is one matrix product with that section, equal to the transforms up to
rounding only; apply always runs the transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walsh import Scratch, fwht_sequency, ifwht_sequency
from .wavelets import dwt_forward, dwt_inverse

SECTION_GUARD = 1 << 12
# grid values one batched transform call holds (1 MB); see CobOperator.batches.
# Small enough that a rows_dense build (4 rows a batch at Q = 15) stays small
# beside the section it fills
BATCH_ELEMENTS = 1 << 17


class SizeGuardError(ValueError):
    """Raised when a dense request exceeds the configured size guard."""


@dataclass
class MeasurementVector:
    """Walsh samples at an ordered index set, with a noise radius."""

    indices: np.ndarray
    values: np.ndarray
    delta: float = 0.0

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError("indices and values must be 1-D and equally long")
        if self.delta < 0:
            raise ValueError("noise radius must be non-negative")


def default_grid_exponent(levels):
    """Q large enough for all samples plus three octaves of margin on the
    reconstruction side."""
    return max(
        levels.N_r.bit_length() - 1,
        (levels.M_r.bit_length() - 1) + 3,
    )


class CobOperator:
    """Finite sections of the Walsh-by-wavelet change-of-basis operator.

    Rows are 0-based sequency indices (row 0 is the constant function);
    columns follow the level ordering: scaling block at J0 first, then
    wavelet levels.  Column count is levels.M_r; rows live below 2^Q.
    synthesize, apply and apply_adjoint act along the last axis of their
    coefficient or value arrays; leading axes are a batch.
    """

    def __init__(self, basis, levels, Q=None):
        if levels.J0 != basis.J0:
            raise ValueError("level structure and basis must share J0")
        self.basis = basis
        self.levels = levels
        q_min = default_grid_exponent(levels)
        self.Q = q_min if Q is None else int(Q)
        if self.Q < q_min:
            raise ValueError(f"grid exponent {self.Q} below required {q_min}")
        self.n_grid = 1 << self.Q

    # -- fast paths ---------------------------------------------------------

    def _padded(self, coeffs, scratch):
        """A coefficient array (length <= M_r) zero-padded to length 2^top,
        where top (see _top) is the scale just above its last coefficient,
        in the array "padded" of scratch."""
        coeffs = np.asarray(coeffs, dtype=float)
        n = coeffs.shape[-1]
        if n > self.levels.M_r:
            raise ValueError("coefficient vector longer than the level structure")
        full = scratch.array("padded", coeffs.shape[:-1] + (1 << self._top(n),))
        full[..., n:] = 0.0
        full[..., :n] = coeffs
        return full

    def _top(self, n):
        """Scale of the expansion holding the first n coefficients."""
        return min(self.Q, max(self.levels.J0 + 1, (n - 1).bit_length()))

    def synthesize(self, coeffs):
        """Grid cell averages of the coefficient array (length <= M_r).

        The array is padded up to the level holding its last coefficient;
        dwt_inverse treats the levels above it as zero."""
        return dwt_inverse(self._padded(coeffs, Scratch()), self.basis, self.Q)

    def apply(self, coeffs, omega, work=None):
        """Walsh samples of the synthesized expansion at the indices omega,
        computed at the working scale m from the cell averages B_(Q-m) of
        the surrogate (see the module docstring).  work is a Workspace built
        for this omega and coefficient count, or None for a fresh one."""
        if work is None:
            work = Workspace(self, omega, max(np.shape(coeffs)[-1], 1))
        else:
            work.check(omega)
        full = self._padded(coeffs, work.scratch)
        if full.shape[-1] != 1 << work.top:
            raise ValueError("coefficient count and workspace end at different scales")
        grid = dwt_inverse(full, self.basis, work.m, work.scratch)
        if work.m < self.Q:
            grid = self.basis.average(grid, self.Q - work.m, work.scratch)
        return fwht_sequency(grid, work.scratch)

    def apply_adjoint(self, values, omega, L=None, work=None):
        """Exact transpose of apply, truncated to the first L coefficients
        (default M_r); wavelet levels at or above L are not analysed.  L may
        reach past the level structure up to the tabulated band 2^Q, whose
        columns the analysis reports sum over.  work is a Workspace built
        for this omega and L, or None for a fresh one."""
        if work is None:
            work = Workspace(self, omega, L)
        else:
            work.check(omega, L)
        if work.section is not None:
            return values @ work.section
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != work.omega.shape:
            raise ValueError("values and omega must have matching shapes")
        grid = ifwht_sequency(values, work.scratch)
        if work.m < self.Q:
            grid = self.basis.average_adjoint(grid, self.Q - work.m, work.scratch)
        return dwt_forward(grid, self.basis, top=work.top, work=work.scratch)[..., : work.L]

    def _check_omega(self, omega):
        omega = np.asarray(omega, dtype=np.int64)
        if omega.ndim != 1:
            raise ValueError("omega must be a 1-D index set")
        if omega.size and (omega.min() < 0 or omega.max() >= self.n_grid):
            raise ValueError(f"omega indices must lie in [0, 2^{self.Q})")
        # apply_adjoint scatters onto the grid, where a repeat keeps one value
        ordered = np.sort(omega)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("omega indices must not repeat")
        return omega

    def batches(self, count):
        """Slices cutting [0, count) into batches of rows or columns whose
        transforms hold about BATCH_ELEMENTS grid values each."""
        step = max(1, BATCH_ELEMENTS >> self.Q)
        return [slice(a, min(a + step, count)) for a in range(0, count, step)]

    # -- dense access -------------------------------------------------------

    def column(self, j, N):
        """Column j over the rows below N, or for an index array one column per
        index stacked along the first axis: one apply of one-hot rows (no
        cache), which runs on the full 2^Q grid only for N above 2^(Q-1).
        Like rows_dense, more than SECTION_GUARD^2 entries raise."""
        j = np.asarray(j, dtype=np.int64)
        if j.size and (j.min() < 0 or j.max() >= self.levels.M_r):
            raise ValueError(f"column index outside the level structure [0, {self.levels.M_r})")
        if not 0 <= N <= self.n_grid:
            raise ValueError(f"row count must lie in [0, 2^{self.Q}], got {N}")
        if j.size * N > SECTION_GUARD * SECTION_GUARD:
            raise SizeGuardError("requested column block exceeds the size guard")
        one_hot = j[..., None] == np.arange(j.max(initial=0) + 1)
        return self.apply(one_hot, np.arange(N))

    def section_dense(self, N, M):
        """Dense section of rows < N and columns < M, read from batches of
        columns (each read afresh)."""
        if N > SECTION_GUARD or M > SECTION_GUARD:
            raise SizeGuardError(
                f"requested {N} x {M} section exceeds the {SECTION_GUARD} guard"
            )
        if not 0 <= N <= self.n_grid or M > self.levels.M_r:
            raise ValueError("section outside the tabulated operator range")
        out = np.empty((N, M))
        for batch in self.batches(M):
            out[:, batch] = self.column(np.arange(M)[batch], N).T
        return out

    def rows_dense(self, rows, M):
        """The sampled section P_rows U P_M as a dense |rows| x M array, from
        adjoint calls on unit samples over batches of rows (see batches).
        rows is checked as apply checks it: repeats and indices off the grid
        raise."""
        rows = self._check_omega(rows)
        if rows.size * M > SECTION_GUARD * SECTION_GUARD:
            raise SizeGuardError("requested row block exceeds the size guard")
        out = np.empty((rows.size, M))
        for batch in self.batches(rows.size):
            k = batch.stop - batch.start
            out[batch] = self.apply_adjoint(np.eye(k), rows[batch], L=M)
        return out


class Workspace:
    """What the products of one CobOperator at one index set reuse (see the
    module docstring): omega, checked once, the coefficient count L
    (default M_r), the scale top of the first L coefficients, the working
    scale m and a walsh.Scratch for the transforms, whose sequency rows are
    omega at 2^m; with dense=True also the section P_omega U P_L formed by
    rows_dense, which apply_adjoint multiplies by."""

    def __init__(self, op, omega, L=None, dense=False):
        self.omega = op._check_omega(omega)
        self.L = op.levels.M_r if L is None else int(L)
        if not 1 <= self.L <= op.n_grid:
            raise ValueError(f"L must lie in [1, 2^{op.Q}], got {self.L}")
        self.section = op.rows_dense(self.omega, self.L) if dense else None
        self.top = op._top(self.L)
        self.m = max(self.top, int(self.omega.max(initial=0)).bit_length())
        self.scratch = Scratch(self.omega, self.m)

    def check(self, omega, L=None):
        """Raise unless omega, and L if given, are this Workspace's; its own
        omega (the solver's) passes by identity, without a compare."""
        same = omega is self.omega or np.array_equal(omega, self.omega)
        if not same or L not in (None, self.L):
            raise ValueError("omega or L differs from the workspace's")


def write_matrix_csv(matrix, path):
    """RFC-4180-style CSV with '.' decimal separator, 17 significant digits."""
    np.savetxt(path, np.atleast_2d(matrix), fmt="%.17g", delimiter=",")


def write_pgm(matrix, path, clip_percentile=99.0):
    """8-bit binary PGM of |matrix|, dark = large magnitude.

    Magnitudes are clipped at the given percentile before scaling, which
    keeps a few dominant entries from washing out the block structure.
    """
    mags = np.abs(np.asarray(matrix, dtype=float))
    cap = np.percentile(mags, clip_percentile)
    if cap <= 0:
        cap = mags.max() if mags.max() > 0 else 1.0
    scaled = np.minimum(mags / cap, 1.0)
    pixels = (255 - np.round(255 * scaled)).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
