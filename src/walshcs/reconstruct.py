"""l1 reconstruction from subsampled Walsh measurements.

solve_bpdn minimizes ||xi||_1 subject to ||A xi - g||_2 <= delta for the
sampled operator A = P_Omega U P_L, with a first-order primal-dual
splitting: the l1 term enters through soft thresholding and the constraint
through Euclidean projection onto the delta-ball around g, both in closed
form.  A is a row-and-column section of the orthogonal U, so ||A|| <= 1
and the steps tau = sigma = 0.95 need no estimate.  The truncated Walsh
series baseline and the error metric live here as well.

A reaches the iteration by one of two routes, chosen from its size alone.
When |Omega| * L is at most DENSE_SECTION_ELEMENTS (2^20 values, 8 MB),
the solver forms A once (CobOperator.rows_dense of omega); above it, the
products run the matrix-free transforms.  The solver's A, a
_SampledSection, picks the route when it is built and holds the solve's
one operator.Workspace, which holds the formed A on the dense route and
the transforms' buffers on both; omega is checked once, when the Workspace
is built.  The adjoint product runs every iteration, as one
CobOperator.apply_adjoint with that Workspace.  The forward product reads
only the columns of A in the iterate's support S, as x[S] @ C[S]: the
iterates are sparse (a few dozen of 4096 coefficients in the benchmark's
solves), and few columns ever enter S.  On the dense route C is the formed
A.  On the matrix-free route a column is formed by one apply of a unit
vector the first time it enters S and kept, in order of first use, in a
store of at most DENSE_SECTION_ELEMENTS values; an iteration whose S needs
more columns than fit takes its forward product on the transforms.  The
routes apply the same linear map and differ by rounding only (coefficients
a few 1e-15 relative after 1200 iterations); the result's dense_section
field says which one ran, applies counts the iteration's apply calls and
adjoints its adjoint products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operator import MeasurementVector, Workspace
from .walsh import fwht_sequency, ifwht_sequency

# |Omega| * L up to which solve_bpdn forms the sampled section explicitly
# (float64 values, 8 MB), and the most values the matrix-free route's column
# store holds.  The bound is set by memory and build time, not by speed: the
# section and its build batches add to the solve's peak memory (64 x 4096,
# 2 MB: +2.1 MB on a 47 MB process).  Measured with one BLAS thread, 1200
# iterations: at 256 x 4096 the 8 MB section takes about 0.2 s to build and
# the solve, build included, 1.0 s against 1.6 s matrix-free; at 512 x 4096
# the 16 MB section would take 0.9-1.0 s to build and grow the peak by a
# third, although its iterations still beat the matrix-free ones (whose
# adjoint product runs the transforms) by about 2.4x.
DENSE_SECTION_ELEMENTS = 1 << 20


class NumericalError(RuntimeError):
    """Raised when an iteration produces non-finite values."""


@dataclass
class ReconstructionConfig:
    """Solver parameters; defaults follow the reference experiments
    (L = 2^12 coefficients, effectively noiseless delta)."""

    L: int = 1 << 12
    delta: float = 1e-8
    max_iter: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        if self.L < 1 or self.L & (self.L - 1):
            raise ValueError("truncation dimension L must be a power of two")
        if self.delta < 0 or self.tol <= 0 or self.max_iter < 1:
            raise ValueError("invalid solver configuration")


@dataclass
class ReconstructionResult:
    coeffs: np.ndarray
    iterations: int
    objective: float
    feasibility_gap: float
    converged: bool
    objective_trace: np.ndarray = field(default=None, repr=False)
    # True when the iteration ran on the explicit sampled section
    dense_section: bool = False
    # apply calls of the iteration, for columns of A and for forward
    # products on the transforms, and its adjoint products, one per iteration
    applies: int = 0
    adjoints: int = 0


def _soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


class _SampledSection:
    """solve_bpdn's A = P_omega U P_L (omega nonempty) by its two products
    on one Workspace, formed (dense) when it has at most
    DENSE_SECTION_ELEMENTS values.  store holds the columns of A that the
    forward products read, as rows: all of them when dense, else at most
    cap, with slot mapping a coefficient index to its row (-1 before the
    column is formed).  applies counts apply calls."""

    def __init__(self, op, omega, L):
        self.op = op
        self.applies = 0
        cap = DENSE_SECTION_ELEMENTS // omega.size
        self.dense = cap >= L
        self.work = Workspace(op, omega, L, dense=self.dense)
        if self.dense:
            self.store = self.work.section.T
        else:
            self.cap = cap
            self.store = np.empty((0, omega.size))
            self.slot = np.full(L, -1)
            self.formed = 0
            self.unit = np.zeros(L)

    def adjoint(self, y):
        """A^T y: y @ A with the formed A, or on the transforms."""
        return self.op.apply_adjoint(y, self.work.omega, work=self.work)

    def product(self, x):
        """A x as x[S] @ C[S] over the support S of x, forming the columns
        that enter S while the store has room; on the transforms when S
        still needs a column the store could not take."""
        support = np.flatnonzero(x)
        if self.dense:
            return x[support] @ self.store[support]
        rows = self.slot[support]
        new = support[rows < 0]
        if new.size:
            for j in new[: self.cap - self.formed]:
                self._form(j)
            rows = self.slot[support]
            if rows.min() < 0:
                self.applies += 1
                return self.op.apply(x, self.work.omega, work=self.work)
        return x[support] @ self.store[rows]

    def _form(self, j):
        # grown by doubling, never allocated at the cap up front: the
        # wideband benchmark's solves need 40-50 columns of a 2048 cap
        if self.formed == len(self.store):
            grown = np.empty((min(self.cap, max(64, 2 * self.formed)), self.store.shape[1]))
            grown[: self.formed] = self.store
            self.store = grown
        self.unit[j] = 1.0
        self.store[self.formed] = self.op.apply(self.unit, self.work.omega, work=self.work)
        self.unit[j] = 0.0
        self.slot[j] = self.formed
        self.formed += 1
        self.applies += 1


def solve_bpdn(op, omega, g, cfg=None):
    """Minimize ||xi||_1 subject to ||P_Omega U P_L xi - g||_2 <= delta.

    omega may be a SamplingScheme or an index array; g a MeasurementVector
    taken at omega or a plain vector.  A MeasurementVector's positive delta
    wins over the config's, which applies when it is zero or g is plain.
    Non-convergence within max_iter is flagged on the result, never silent.
    The sampled section is formed explicitly when |omega| * L is at most
    DENSE_SECTION_ELEMENTS and applied matrix-free otherwise (see
    _SampledSection).  Each iteration makes one adjoint product and one
    forward product, the latter from the columns of A in the iterate's
    support.
    """
    cfg = cfg or ReconstructionConfig()
    if hasattr(omega, "union"):
        omega = omega.union
    omega = np.asarray(omega, dtype=np.int64)
    if isinstance(g, MeasurementVector):
        if not np.array_equal(g.indices, omega):
            raise ValueError("measurement indices differ from omega")
        delta = g.delta if g.delta > 0 else cfg.delta
        g = g.values
    else:
        delta = cfg.delta
    g = np.asarray(g, dtype=float)
    if g.shape != omega.shape:
        raise ValueError("measurement vector and omega must have equal lengths")
    L = min(cfg.L, op.levels.M_r)
    if omega.size == 0:
        return ReconstructionResult(
            coeffs=np.zeros(L),
            iterations=0,
            objective=0.0,
            feasibility_gap=float(np.linalg.norm(g) - delta),
            converged=True,
            objective_trace=np.zeros(1),
            dense_section=True,
        )
    section = _SampledSection(op, omega, L)
    # A is a row-and-column section of the orthogonal U: tau sigma ||A||^2 <= 0.9025
    tau = sigma = 0.95

    x = np.zeros(L)
    # A x and A x_bar, kept beside x so that no product is taken twice
    ax = ax_bar = np.zeros(omega.size)
    y = np.zeros(omega.size)
    g_norm = max(np.linalg.norm(g), 1.0)
    best_obj = math.inf
    trace = []
    obj_prev = math.inf
    converged = False
    iterations = cfg.max_iter
    check_every = 10
    for it in range(1, cfg.max_iter + 1):
        # dual: prox of the conjugate of the delta-ball indicator
        w = y + sigma * ax_bar - sigma * g
        wn = np.linalg.norm(w)
        y = w * max(0.0, 1.0 - sigma * delta / wn) if wn > 0 else w
        # primal: soft thresholding
        x_new = _soft_threshold(x - tau * section.adjoint(y), tau)
        if not np.isfinite(x_new).all():
            raise NumericalError(f"solver produced non-finite iterates at step {it}")
        ax_new = section.product(x_new)
        ax_bar = 2.0 * ax_new - ax  # A (2 x_new - x), by linearity
        x, ax = x_new, ax_new
        if it % check_every == 0 or it == cfg.max_iter:
            resid = np.linalg.norm(ax - g)
            feas = max(0.0, resid - delta) / g_norm
            obj = float(np.abs(x).sum())
            if feas <= cfg.tol:
                best_obj = min(best_obj, obj)
            trace.append(best_obj if best_obj < math.inf else math.nan)
            rel_change = abs(obj - obj_prev) / max(obj, 1.0)
            obj_prev = obj
            if feas <= cfg.tol and rel_change <= cfg.tol:
                converged = True
                iterations = it
                break
    return ReconstructionResult(
        coeffs=x,
        iterations=iterations,
        objective=float(np.abs(x).sum()),
        feasibility_gap=float(np.linalg.norm(ax - g)) - delta,
        converged=converged,
        objective_trace=np.array(trace),
        dense_section=section.dense,
        applies=section.applies,
        adjoints=it,
    )


def truncated_walsh(samples_first_n, Q):
    """Inverse sequency transform of the zero-padded first-N sample vector.

    Walsh functions below 2^k are constant on cells of width 2^-k, so the
    transform runs at the smallest such 2^k and each value is repeated over
    the 2^(Q-k) grid cells of its cell."""
    samples = np.asarray(samples_first_n, dtype=float)
    if samples.size > (1 << Q):
        raise ValueError("more samples than grid cells")
    k = max(samples.size - 1, 0).bit_length()
    padded = np.zeros(1 << k)
    padded[: samples.size] = samples
    return np.repeat(ifwht_sequency(padded), 1 << (Q - k))


def relative_l2_error(estimate, reference):
    """||estimate - reference||_2 / ||reference||_2 on equal-length grids."""
    estimate = np.asarray(estimate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if estimate.shape != reference.shape:
        raise ValueError("grids must have equal length")
    ref_norm = np.linalg.norm(reference)
    if ref_norm == 0.0:
        raise ValueError("reference signal is zero; relative error undefined")
    return float(np.linalg.norm(estimate - reference) / ref_norm)


def measure_signal(f_grid, omega, delta=0.0, seed=None):
    """Walsh samples of a cell-average signal at the indices omega, with
    optional additive noise of exact l2 norm delta in a seeded direction."""
    f_grid = np.asarray(f_grid, dtype=float)
    if hasattr(omega, "union"):
        omega = omega.union
    omega = np.asarray(omega, dtype=np.int64)
    coeffs = fwht_sequency(f_grid)
    if omega.size and (omega.min() < 0 or omega.max() >= coeffs.size):
        raise ValueError("omega index outside the sample grid")
    values = coeffs[omega]
    if delta > 0:
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(omega.size)
        values = values + z * (delta / np.linalg.norm(z))
    return MeasurementVector(indices=omega, values=values, delta=delta)
