"""The benchmark's workloads: set-up, inputs from a seed, one task, checks.

Every call into walshcs goes through a module attribute (`sampling.draw_scheme`,
`cli.main`) so that the tracer's wrappers see it.  NOTES.md says why each
workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import OUT
from walshcs import cli, operator, reconstruct, sampling, signals, wavelets

REFS = Path(__file__).resolve().parent / "refs" / "analyze.json"

# criterion 7 of the acceptance suite: signal g, p = 4, J0 = 3, R = 7
ORDER, J0, R = 4, 3, 7
SOLVE_L = 1 << 12
SOLVE_MAX_ITER = 1200
CS_ERROR_GATE = 0.06  # criterion 7 gate for g

ANALYZE_ORDERS = (4, 8)
ANALYZE_N = 1024
ANALYZE_BUDGETS = (64, 128, 256, 512)

# Analysis outputs must match the recorded references to this relative
# tolerance; entries below ABS_FLOOR times the largest magnitude of their
# column or vector are compared at that floor, because numerically-zero
# entries carry no relative precision.
RTOL = 1e-9
ABS_FLOOR = 1e-12
PGM_MEAN_RTOL = 1e-6
MATRIX_SAMPLES = 256


@dataclass
class SolveContext:
    op: object
    signal: np.ndarray
    levels: object
    sparsity: tuple


@dataclass
class SolveOutcome:
    coeffs: np.ndarray
    grid: np.ndarray
    cs_error: float
    iterations: int
    converged: bool
    feasibility_gap: float


class SolveWorkload:
    """Criterion-7 reconstructions: draw -> measure -> solve_bpdn -> synthesize -> error."""

    def __init__(self, name, q, budget):
        self.name = name
        self.q = q
        self.budget = budget

    def setup(self):
        basis = wavelets.build_basis(ORDER, J0)
        op = operator.CobOperator(basis, wavelets.LevelStructure(J0=J0, r=SOLVE_L.bit_length() - 1 - J0))
        signal = signals.make_signal("g", op.Q)
        levels = wavelets.LevelStructure(J0=J0, r=R - J0, q=self.q)
        sparsity = tuple(
            min(16 >> (k - 1) if k > 1 else 8, int(d))
            for k, d in enumerate(np.diff(levels.N), start=1)
        )
        # one application each way fills the transforms' lazy caches, which
        # every user pays once per process
        omega = np.arange(levels.N_r - 1, levels.N_r)
        op.apply_adjoint(op.apply(np.zeros(1), omega), omega, L=SOLVE_L)
        return SolveContext(op=op, signal=signal, levels=levels, sparsity=sparsity)

    def make_input(self, seed, index):
        """Seed of the sampling scheme of the index-th reconstruction."""
        return seed * 1000 + index

    def task(self, ctx, scheme_seed):
        m = sampling.allocate_budget(
            sampling.SparsityProfile(ctx.sparsity), ctx.levels, self.budget,
            policy="uniform", full_first=True,
        )
        scheme = sampling.draw_scheme(ctx.levels, m, scheme_seed)
        g = reconstruct.measure_signal(ctx.signal, scheme)
        cfg = reconstruct.ReconstructionConfig(L=SOLVE_L, max_iter=SOLVE_MAX_ITER)
        result = reconstruct.solve_bpdn(ctx.op, scheme, g, cfg)
        grid = ctx.op.synthesize(result.coeffs)
        return SolveOutcome(
            coeffs=result.coeffs,
            grid=grid,
            cs_error=reconstruct.relative_l2_error(grid, ctx.signal),
            iterations=int(result.iterations),
            converged=bool(result.converged),
            feasibility_gap=float(result.feasibility_gap),
        )

    def check(self, ctx, scheme_seed, outcome):
        problems = []
        if not (np.isfinite(outcome.coeffs).all() and np.isfinite(outcome.grid).all()):
            problems.append("non-finite reconstruction")
        if not outcome.cs_error <= CS_ERROR_GATE:
            problems.append(f"cs_error {outcome.cs_error} above {CS_ERROR_GATE}")
        return problems


class AnalyzeWorkload:
    """`walshcs analyze` and `walshcs matrix` at N = ANALYZE_N for p = 4 and p = 8, in-process."""

    name = "analyze"

    def __init__(self):
        self._refs = None

    def setup(self):
        # the CLI builds its bases itself; building them here fills the
        # filter cache (mpmath) that every command of the process shares
        for p in ANALYZE_ORDERS:
            wavelets.build_basis(p, cli.minimal_level(p))
        return None

    def make_input(self, seed, index):
        """Sample budget handed to `analyze`; it sets K in the balancing check."""
        return ANALYZE_BUDGETS[(seed + index) % len(ANALYZE_BUDGETS)]

    def task(self, ctx, budget):
        out = Path(tempfile.mkdtemp(prefix="analyze-", dir=OUT))
        try:
            printed = run_analysis(budget, out)
        except BaseException:
            shutil.rmtree(out)
            raise
        return out, printed

    def check(self, ctx, budget, outcome):
        out, printed = outcome
        try:
            if self._refs is None:
                self._refs = json.loads(REFS.read_text())
            return compare_analysis(self._refs, budget, out, printed)
        finally:
            shutil.rmtree(out)


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload("solve-lowband", q=1, budget=64),
        SolveWorkload("solve-wideband", q=8, budget=512),
        AnalyzeWorkload(),
    )
}


def run_analysis(budget, out):
    """The analyze task: four CLI commands; returns what each printed."""
    printed = {}
    for p in ANALYZE_ORDERS:
        common = ["--order", str(p), "--N", str(ANALYZE_N), "--out", str(out)]
        for argv in (["analyze", *common, "--budget", str(budget)], ["matrix", *common]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise RuntimeError(f"walshcs {' '.join(argv)} exited with {code}")
            printed[f"{argv[0]}_p{p}"] = buf.getvalue()
    return printed


# -- output checks ----------------------------------------------------------


def small_csv_names(p):
    return [f"{kind}_p{p}_N{ANALYZE_N}.csv" for kind in ("coherence", "sparsity", "balancing")]


def matrix_stem(p):
    return f"matrix_p{p}_N{ANALYZE_N}"


def read_matrix_csv(path):
    text = path.read_text()
    rows = text.count("\n")
    values = np.array(text.replace("\n", ",").split(",")[:-1], dtype=float)
    return values.reshape(rows, -1)


def matrix_digest(matrix):
    """What the references keep of a dense section: its largest magnitude,
    row l1 norms, squared column norms and entries at fixed positions."""
    rng = np.random.default_rng(0)
    positions = rng.integers(0, matrix.shape, size=(MATRIX_SAMPLES, 2))
    return {
        "shape": list(matrix.shape),
        "max_abs": float(np.abs(matrix).max()),
        "row_abs_sum": np.abs(matrix).sum(axis=1).tolist(),
        "col_sq_sum": (matrix**2).sum(axis=0).tolist(),
        "positions": positions.tolist(),
        "samples": matrix[positions[:, 0], positions[:, 1]].tolist(),
    }


def read_pgm(path):
    data = path.read_bytes()
    header_end = 0
    for _ in range(3):
        header_end = data.index(b"\n", header_end) + 1
    return data[:header_end].decode("ascii"), np.frombuffer(data[header_end:], dtype=np.uint8)


def pgm_digest(path):
    header, pixels = read_pgm(path)
    return {"header": header, "size": int(pixels.size), "mean": float(pixels.mean())}


def _close(values, reference, scale):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return values.shape == reference.shape and bool(
        np.all(np.abs(values - reference) <= RTOL * np.abs(reference) + ABS_FLOOR * scale)
    )


def _parse_cells(text):
    return [line.split(",") for line in text.strip().split("\n")]


def compare_csv_text(name, text, reference):
    """Equal headers and empty cells; numbers within RTOL (floor per column)."""
    got, ref = _parse_cells(text), _parse_cells(reference)
    if len(got) != len(ref) or got[0] != ref[0] or any(len(a) != len(b) for a, b in zip(got, ref)):
        return [f"{name}: layout differs from the reference"]
    problems = []
    for col in range(len(ref[0])):
        got_col = [row[col] for row in got[1:]]
        ref_col = [row[col] for row in ref[1:]]
        if [c == "" for c in got_col] != [c == "" for c in ref_col]:
            problems.append(f"{name}: empty cells differ in column {ref[0][col]}")
            continue
        g = [float(c) for c in got_col if c]
        r = [float(c) for c in ref_col if c]
        scale = max((abs(v) for v in r), default=0.0)
        if not _close(g, r, scale):
            problems.append(f"{name}: column {ref[0][col]} differs from the reference")
    return problems


def compare_analysis(refs, budget, out, printed):
    problems = []
    by_budget = refs["by_budget"][str(budget)]
    for p in ANALYZE_ORDERS:
        for name in small_csv_names(p):
            problems += compare_csv_text(name, (out / name).read_text(), by_budget[name])
        if printed[f"analyze_p{p}"] != refs["printed"][f"analyze_p{p}"]:
            problems.append(f"analyze p={p} printed other constants than the reference")
        stem = matrix_stem(p)
        if printed[f"matrix_p{p}"].strip() != str(out / f"{stem}.pgm"):
            problems.append(f"matrix p={p} did not report its image path")
        problems += compare_matrix(stem, read_matrix_csv(out / f"{stem}.csv"), refs["matrix"][stem])
        problems += compare_pgm(stem, out / f"{stem}.pgm", refs["pgm"][stem])
    return problems


def compare_matrix(stem, matrix, ref):
    if list(matrix.shape) != ref["shape"]:
        return [f"{stem}.csv: shape {matrix.shape} differs from {ref['shape']}"]
    got = matrix_digest(matrix)
    problems = []
    for key in ("max_abs", "row_abs_sum", "col_sq_sum", "samples"):
        scale = ref["max_abs"] ** 2 if key == "col_sq_sum" else ref["max_abs"]
        if not _close(got[key], ref[key], scale):
            problems.append(f"{stem}.csv: {key} differs from the reference")
    return problems


def compare_pgm(stem, path, ref):
    got = pgm_digest(path)
    if got["header"] != ref["header"] or got["size"] != ref["size"]:
        return [f"{stem}.pgm: header or size differs from the reference"]
    if abs(got["mean"] - ref["mean"]) > PGM_MEAN_RTOL * ref["mean"]:
        return [f"{stem}.pgm: mean pixel {got['mean']} differs from {ref['mean']}"]
    return []


def record_references(work_dir):
    """Run the analyze task once per budget and return the reference document."""
    refs = {"by_budget": {}, "printed": {}, "matrix": {}, "pgm": {}}
    for budget in ANALYZE_BUDGETS:
        out = Path(tempfile.mkdtemp(prefix="refs-", dir=work_dir))
        try:
            printed = run_analysis(budget, out)
            refs["by_budget"][str(budget)] = {
                name: (out / name).read_text() for p in ANALYZE_ORDERS for name in small_csv_names(p)
            }
            for p in ANALYZE_ORDERS:
                refs["printed"][f"analyze_p{p}"] = printed[f"analyze_p{p}"]
                stem = matrix_stem(p)
                refs["matrix"][stem] = matrix_digest(read_matrix_csv(out / f"{stem}.csv"))
                refs["pgm"][stem] = pgm_digest(out / f"{stem}.pgm")
        finally:
            shutil.rmtree(out)
    return refs
