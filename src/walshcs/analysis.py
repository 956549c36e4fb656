"""Numerical verification suite: coherence, sparsity, tails, balancing.

All `infinite` quantities (block-row coherence over every column, the
orthogonal-complement factors in the balancing check, column-norm tails)
are evaluated over the operator's full tabulated band of 2^Q columns.  For
the discrete surrogate operator this band is complete - its columns carry
no mass beyond 2^Q - so what remains unaccounted is the surrogate error of
the wavelet tabulation itself, not a truncated sum.  Callers read the band
as 2^op.Q to judge that approximation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operator import Workspace

# M_r up to which relative_sparsity_exact enumerates supports and signs
ENUMERATION_CAP = 16
# grid exponent of the tabulation analytic_constants differentiates
CONSTANTS_GRID_EXPONENT = 12


@dataclass
class CoherenceReport:
    """Local coherences mu(k, l), their tail variant, and fitted constants."""

    levels: object
    mu: np.ndarray
    mu_inf: np.ndarray
    mu_row: np.ndarray
    fitted_constant: float
    ratios: np.ndarray
    bound_shape: np.ndarray


def coherence_report(op):
    """Coherence table of the operator over its full tabulated band.

    mu[k-1, l-1] is the (k, l) local coherence; mu_inf[k-1] uses columns
    beyond M_(r-1) as the tail block (the oversampling supremum is
    approximated by the largest materialized band, the 2^Q columns of the
    module docstring).
    """
    lv = op.levels
    r = lv.r
    m = lv.M
    n = lv.N
    block_max = np.zeros((r, r))
    tail_max = np.zeros(r)
    row_max = np.zeros(r)
    for k in range(1, r + 1):
        band = np.arange(int(n[k - 1]), int(n[k]))
        for batch in op.batches(band.size):
            a = np.abs(op.rows_dense(band[batch], 1 << op.Q))
            row_max[k - 1] = max(row_max[k - 1], a.max())
            tail_max[k - 1] = max(tail_max[k - 1], a[:, int(m[r - 1]) :].max())
            for l in range(1, r + 1):
                seg = a[:, int(m[l - 1]) : int(m[l])]
                block_max[k - 1, l - 1] = max(block_max[k - 1, l - 1], seg.max())
    mu = np.sqrt(block_max**2 * row_max[:, None] ** 2)
    mu_inf = np.sqrt(tail_max**2 * row_max**2)
    shape = np.array(
        [
            [2.0 ** -(lv.J0 + k - 1) * 2.0 ** (-abs(k - l) / 2.0) for l in range(1, r + 1)]
            for k in range(1, r + 1)
        ]
    )
    ratios = mu / shape
    return CoherenceReport(
        levels=lv,
        mu=mu,
        mu_inf=mu_inf,
        mu_row=row_max**2,
        fitted_constant=float(ratios.max()),
        ratios=ratios,
        bound_shape=shape,
    )


def relative_sparsity_exact(op, s):
    """Exact per-level relative sparsities by vertex enumeration.

    Maximizes ||P_band_k U eta||^2 over eta with exactly s_l nonzeros per
    level and unit sup norm; the maximum of a convex function over that box
    sits at a sign vertex, so supports and signs are enumerated.  Requires
    M_r <= ENUMERATION_CAP.
    """
    lv = op.levels
    if lv.M_r > ENUMERATION_CAP:
        raise ValueError(
            f"M_r = {lv.M_r} exceeds the enumeration cap {ENUMERATION_CAP}; use the bound instead"
        )
    s = tuple(int(v) for v in s)
    if len(s) != lv.r:
        raise ValueError("sparsity vector must match the level count")
    m = lv.M
    n = lv.N
    a = op.section_dense(int(n[-1]), int(m[-1]))
    level_sets = []
    for k in range(1, lv.r + 1):
        idx = range(int(m[k - 1]), int(m[k]))
        if s[k - 1] > len(idx):
            raise ValueError(f"s_{k} exceeds the size of level {k}")
        level_sets.append(list(itertools.combinations(idx, s[k - 1])))
    best = np.zeros(lv.r)
    for support_combo in itertools.product(*level_sets):
        support = [j for combo in support_combo for j in combo]
        if not support:
            continue
        cols = a[:, support]
        for signbits in range(1 << (len(support) - 1)):
            eta = np.ones(len(support))
            for b in range(len(support) - 1):
                if (signbits >> b) & 1:
                    eta[b + 1] = -1.0
            v = cols @ eta
            for k in range(1, lv.r + 1):
                nk = float(np.sum(v[int(n[k - 1]) : int(n[k])] ** 2))
                if nk > best[k - 1]:
                    best[k - 1] = nk
    return best


def relative_sparsity_bound(levels, s, constant):
    """Bound shape 2 * constant * sum_l 2^(-|k-l|/2) s_l for each k."""
    s = np.asarray(s, dtype=float)
    k = np.arange(1, levels.r + 1)
    return np.array(
        [2.0 * constant * np.sum(2.0 ** (-np.abs(kk - k) / 2.0) * s) for kk in k]
    )


@dataclass
class SparsityReport:
    """Per-level relative sparsities with their bound values.

    exact holds the enumerated S_k on small instances and is None when the
    instance exceeds the enumeration cap; sigma is the best s-in-levels
    approximation error of the supplied coefficients, when given.
    """

    s: tuple
    exact: np.ndarray | None
    bound: np.ndarray
    constant: float
    sigma: float | None = None


def sparsity_report(op, s, constant=1.0, coeffs=None):
    """Bundle exact-or-bounded relative sparsities for the operator's levels."""
    lv = op.levels
    exact = relative_sparsity_exact(op, s) if lv.M_r <= ENUMERATION_CAP else None
    bound = relative_sparsity_bound(lv, s, constant)
    sigma = None
    if coeffs is not None:
        sigma = sigma_sM(coeffs, lv, s)
    return SparsityReport(
        s=tuple(int(v) for v in s), exact=exact, bound=bound, constant=constant,
        sigma=sigma,
    )


def _check_section(op, N, M, max_cols):
    """Reject rows < N, columns < M outside [0, 2^Q] x [0, max_cols]."""
    if not (0 <= N <= 1 << op.Q and 0 <= M <= max_cols):
        raise ValueError("section outside the tabulated operator range")


def tail_norm(op, N, M):
    """||P_N-perp U P_M||_2 over the tabulated band.

    The square root of the top eigenvalue of the normal map
    v -> P_M U^T P_N-perp U v, found matrix-free by Lanczos with full
    reorthogonalization from a fixed start.  It stops once the top Ritz
    pair's residual bound beta_k |s_k| falls to rounding level, on an
    invariant subspace (beta_k = 0), or after M steps."""
    _check_section(op, N, M, op.levels.M_r)
    full = np.arange(1 << op.Q)
    if M == 0 or N == full.size:
        return 0.0
    work = Workspace(op, full, M)
    v = np.random.default_rng(7).standard_normal(M)
    basis = [v / np.linalg.norm(v)]
    alpha, beta = [], []
    for _ in range(M):
        g = op.apply(basis[-1], full, work=work)
        g[:N] = 0.0
        w = op.apply_adjoint(g, full, work=work)
        alpha.append(basis[-1] @ w)
        q = np.array(basis)
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= (q @ w) @ q
        b = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        if b * abs(s[-1, -1]) <= 16 * np.finfo(float).eps * theta[-1] or b == 0.0:
            break
        beta.append(b)
        basis.append(w / b)
    sv = math.sqrt(max(theta[-1], 0.0))
    return sv if sv > 1e-14 else 0.0


@dataclass
class BalancingReport:
    """Row-sum-norm near-isometry check of the uneven finite section."""

    N: int
    M: int
    K: float
    s: int
    norm_head: float
    norm_tail: float
    threshold_head: float
    threshold_tail: float
    passes: bool


def balancing_check(op, N, M, K, s):
    """Strong balancing check at (N, M) for oversampling factor K and
    total sparsity s; both operator norms are sup row sums, with the
    complement part evaluated over the full tabulated band."""
    _check_section(op, N, M, op.levels.M_r)
    n_grid = 1 << op.Q
    rows_n = np.arange(N)
    abs_acc = np.zeros(n_grid)
    head = np.empty((M, M))
    for batch in op.batches(M):
        # U* P_N U e_j for a batch of columns j
        w = op.apply_adjoint(op.column(np.arange(M)[batch], N), rows_n, L=n_grid)
        abs_acc += np.abs(w).sum(axis=0)
        head[:, batch] = w[:, :M].T
    norm_head = float(np.max(np.abs(head - np.eye(M)).sum(axis=1)))
    norm_tail = float(abs_acc[M:].max()) if n_grid > M else 0.0
    threshold_head = 0.125 / math.sqrt(math.log(4.0 * math.sqrt(s) * K * M))
    threshold_tail = 0.125
    return BalancingReport(
        N=N,
        M=M,
        K=K,
        s=s,
        norm_head=norm_head,
        norm_tail=norm_tail,
        threshold_head=threshold_head,
        threshold_tail=threshold_tail,
        passes=(norm_head <= threshold_head and norm_tail <= threshold_tail),
    )


def column_tail_norms(op, N):
    """Norms ||P_N U e_m||_2 for every column m below the band 2^Q."""
    band = 1 << op.Q
    _check_section(op, N, band, band)
    rows = np.arange(N)
    acc = np.zeros(band)
    for batch in op.batches(N):
        acc += (op.rows_dense(rows[batch], band) ** 2).sum(axis=0)
    return np.sqrt(acc)


def m_tilde(op, N, K, s):
    """First index beyond which every column tail norm of P_N U stays under
    1 / (32 K sqrt(s)); errors out if the band never crosses it."""
    norms = column_tail_norms(op, N)
    threshold = 1.0 / (32.0 * K * math.sqrt(s))
    envelope = np.maximum.accumulate(norms[::-1])[::-1]
    below = np.flatnonzero(envelope <= threshold)
    if below.size == 0:
        raise RuntimeError(
            f"column tails never fall under {threshold:.3e} within the band "
            f"2^{op.Q} (smallest envelope {envelope.min():.3e}); enlarge Q or K*sqrt(s)"
        )
    return int(below[0])


def sigma_sM(coeffs, levels, s):
    """l1 distance to the nearest vector with at most s_k nonzeros per level
    (per-level hard thresholding is the exact minimizer)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size != levels.M_r:
        raise ValueError("coefficient vector must fill the level structure")
    s = tuple(int(v) for v in s)
    if len(s) != levels.r:
        raise ValueError("sparsity vector must match the level count")
    total = 0.0
    m = levels.M
    for k in range(1, levels.r + 1):
        block = np.abs(coeffs[int(m[k - 1]) : int(m[k])])
        if s[k - 1] < block.size:
            total += float(np.sort(block)[: block.size - s[k - 1]].sum())
    return total


def analytic_constants(basis):
    """Analytic counterparts of the fitted constants, for side-by-side
    reporting: C_mu = (2 p C)^2 and C_rs = (16p - 8)^2 C^2 with C the sup of
    |phi'| over the mother scaling function and wavelet (estimated by finite
    differences on a fine tabulation; p = 1 has no derivative bound)."""
    from .wavelets import cascade_tabulate

    p = basis.p
    if p == 1:
        return {"C_phi_psi": math.inf, "C_mu": math.inf, "C_rs": math.inf}
    level = basis.J0 + 1
    pos = 2 * p  # interior translate at the doubled minimal level
    sup_grad = 0.0
    for kind in ("scaling", "wavelet"):
        tab = cascade_tabulate(basis, level, pos, CONSTANTS_GRID_EXPONENT, kind=kind)
        # undo the 2^(level/2) amplitude and 2^level argument scalings
        grad = np.abs(np.diff(tab)) * (1 << CONSTANTS_GRID_EXPONENT) / (1 << level)
        grad /= 2.0 ** (level / 2.0)
        sup_grad = max(sup_grad, float(grad.max()))
    return {
        "C_phi_psi": sup_grad,
        "C_mu": (2.0 * p * sup_grad) ** 2,
        "C_rs": (16.0 * p - 8.0) ** 2 * sup_grad**2,
    }


def write_coherence_csv(report, path):
    """(k, l, value, bound-shape, ratio) rows; l = 0 encodes the tail column."""
    lv = report.levels
    with open(path, "w") as fh:
        fh.write("k,l,value,bound_shape,ratio\n")
        for k in range(1, lv.r + 1):
            for l in range(1, lv.r + 1):
                fh.write(
                    f"{k},{l},{report.mu[k - 1, l - 1]:.17g},"
                    f"{report.bound_shape[k - 1, l - 1]:.17g},"
                    f"{report.ratios[k - 1, l - 1]:.17g}\n"
                )
            fh.write(f"{k},0,{report.mu_inf[k - 1]:.17g},,\n")
