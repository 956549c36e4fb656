"""Experiment harness: operator heatmaps, sampling patterns, reconstructions,
error curves, the flip test, and analysis reports, all emitted as CSV plus
PGM images so every figure has its exact numeric data next to it.

Configuration is a flat key=value text file overridden by command-line
flags; every command is reproducible bit for bit from (config, seed).
Exit codes: 0 success, 2 configuration or usage error, 3 numerical
failure, 4 size-guard violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, reconstruct, sampling, signals
from .operator import CobOperator, SizeGuardError, write_matrix_csv, write_pgm
from .reconstruct import NumericalError, ReconstructionConfig
from .wavelets import LevelStructure, build_basis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GUARD = 4


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "signal": "g",
    "order": 4,
    "J0": None,  # minimal level for the order unless overridden
    "R": 7,
    "q": 1,
    "budget": 256,
    "policy": "uniform",
    "full_first": True,
    "seed": 0,
    "delta": 1e-8,
    "L": 1 << 12,
    "max_iter": 5000,
    "tol": 1e-6,
    "clip": 99.0,
    "s": None,  # per-level sparsity estimate for analyze / weighted policy
}


def _colon_list(raw):
    """Per-level sparsities written as colon-separated integers."""
    return tuple(int(v) for v in raw.split(":"))


def _parse_value(key, raw):
    if key in ("signal", "policy"):
        return raw
    if key in ("full_first",):
        return raw.lower() in ("1", "true", "yes", "on")
    if key in ("delta", "tol", "clip"):
        return float(raw)
    if key == "s":
        return _colon_list(raw)
    return int(raw)


def load_config(path=None, overrides=None, defaults=None):
    """DEFAULTS, then a command's own defaults, then the file at path, then
    the overrides that are not None."""
    cfg = {**DEFAULTS, **(defaults or {})}
    if path:
        try:
            with open(path) as fh:
                for line in fh:
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"bad config line: {line!r}")
                    key, raw = (part.strip() for part in line.split("=", 1))
                    if key not in DEFAULTS:
                        raise ConfigError(f"unknown config key {key!r}")
                    cfg[key] = _parse_value(key, raw)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    if cfg["J0"] is None:
        cfg["J0"] = minimal_level(cfg["order"])
    return cfg


def minimal_level(p):
    j = 0
    while (1 << j) < 2 * p - 1:
        j += 1
    return j


def default_sparsity(levels):
    # a generic geometric guess: dense first block, thinning out above
    first = min(1 << levels.J0, levels.M[1] - levels.M[0])
    s = [int(first)]
    for k in range(2, levels.r + 1):
        s.append(max(1, int(first) >> (k - 1)))
    return tuple(s)


def _experiment_pieces(cfg):
    """Shared setup: operator, sampling levels and scheme, rasterized signal."""
    p, j0 = cfg["order"], cfg["J0"]
    if j0 < minimal_level(p):
        raise ConfigError(f"J0={j0} too small for order {p}")
    if cfg["R"] <= j0:
        raise ConfigError("need R > J0")
    samp_levels = LevelStructure(J0=j0, r=cfg["R"] - j0, q=cfg["q"])
    solve_r = max(cfg["L"].bit_length() - 1 - j0, samp_levels.r + samp_levels.q)
    op = CobOperator(build_basis(p, j0), LevelStructure(J0=j0, r=solve_r, q=0))
    sig = signals.make_signal(cfg["signal"], op.Q)
    s = cfg["s"] or default_sparsity(samp_levels)
    profile = sampling.SparsityProfile(s)
    m = sampling.allocate_budget(
        profile,
        samp_levels,
        cfg["budget"],
        policy=cfg["policy"],
        full_first=cfg["full_first"],
    )
    scheme = sampling.draw_scheme(samp_levels, m, cfg["seed"])
    return op, samp_levels, scheme, sig


def _solver_config(cfg):
    return ReconstructionConfig(
        L=cfg["L"], delta=cfg["delta"], max_iter=cfg["max_iter"], tol=cfg["tol"]
    )


def _reconstruct_once(op, scheme, sig, cfg):
    """(result, synthesized grid, relative error, measurements) of one solve."""
    g = reconstruct.measure_signal(sig, scheme, delta=0.0)
    result = reconstruct.solve_bpdn(op, scheme, g, _solver_config(cfg))
    grid = op.synthesize(result.coeffs)
    return result, grid, reconstruct.relative_l2_error(grid, sig), g


def _truncated_walsh(op, scheme, sig):
    """Truncated Walsh baseline from the first |scheme| samples, and its error."""
    tw = reconstruct.truncated_walsh(
        reconstruct.measure_signal(sig, np.arange(scheme.total)).values, op.Q
    )
    return tw, reconstruct.relative_l2_error(tw, sig)


def _summary_line(path, record):
    with open(path, "w") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _overrides(args):
    """The command's flags that set configuration keys."""
    return {key: value for key, value in vars(args).items() if key in DEFAULTS}


def _power_of_two_exponent(n, low, floor):
    """The exponent of an N that must be a power of two of at least 2^low
    (floor names that bound in the error)."""
    if n < 1 or n & (n - 1):
        raise ConfigError(f"N values must be powers of two, got {n}")
    big = n.bit_length() - 1
    if big < low:
        raise ConfigError(f"N = {n} is below {floor}")
    return big


def cmd_matrix(args):
    cfg = load_config(args.config, _overrides(args))
    n = args.N
    if n < 1:
        raise ConfigError(f"N must be at least 1, got {n}")
    p, j0 = cfg["order"], cfg["J0"]
    basis = build_basis(p, j0)
    r = max(n.bit_length() - 1 - j0, 1)
    levels = LevelStructure(J0=j0, r=r, q=0)
    op = CobOperator(basis, levels)
    section = op.section_dense(n, min(n, levels.M_r))
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, f"matrix_p{p}_N{n}")
    write_matrix_csv(section, base + ".csv")
    write_pgm(section, base + ".pgm", clip_percentile=cfg["clip"])
    print(base + ".pgm")
    return EXIT_OK


def cmd_analyze(args):
    cfg = load_config(args.config, _overrides(args), {"q": 0, "budget": 64})
    p, j0, q = cfg["order"], cfg["J0"], cfg["q"]
    # the sampling band N_r = 2^(J0 + r + q) of a structure with r >= 1 levels
    big = _power_of_two_exponent(args.N, j0 + 1 + q, f"2^(J0 + 1 + q) = {1 << (j0 + 1 + q)}")
    basis = build_basis(p, j0)
    levels = LevelStructure(J0=j0, r=big - j0 - q, q=q)
    op = CobOperator(basis, levels)
    os.makedirs(args.out, exist_ok=True)
    rep = analysis.coherence_report(op)
    analysis.write_coherence_csv(rep, os.path.join(args.out, f"coherence_p{p}_N{args.N}.csv"))
    s = cfg["s"] or default_sparsity(levels)
    total_s = max(sum(s), 3)
    profile = sampling.SparsityProfile(s)
    m = sampling.allocate_budget(profile, levels, min(cfg["budget"], levels.N_r))
    k_factor = float(np.max(np.diff(levels.N) / np.maximum(np.array(m), 1)))
    weights = sampling.allocation_weights(profile, levels)
    with open(os.path.join(args.out, f"sparsity_p{p}_N{args.N}.csv"), "w") as fh:
        fh.write("k,s_k,levels_weight,exact_S_k\n")
        exact = analysis.sparsity_report(op, s).exact
        for k in range(1, levels.r + 1):
            tail = f",{exact[k - 1]:.17g}" if exact is not None else ","
            fh.write(f"{k},{s[k - 1]},{weights[k - 1]:.17g}{tail}\n")
    big_m = levels.M_r
    rows = []
    for big_n in sorted({levels.N_r, min(2 * levels.N_r, 1 << op.Q)}):
        tn = analysis.tail_norm(op, big_n, min(big_m, big_n))
        bal = analysis.balancing_check(op, big_n, min(big_m, big_n), K=max(k_factor, 1.0), s=total_s)
        rows.append(
            (big_n, min(big_m, big_n), tn, bal.norm_head, bal.norm_tail,
             bal.threshold_head, bal.threshold_tail, int(bal.passes))
        )
    with open(os.path.join(args.out, f"balancing_p{p}_N{args.N}.csv"), "w") as fh:
        fh.write("N,M,tail_norm,norm_head,norm_tail,threshold_head,threshold_tail,passes\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    consts = analysis.analytic_constants(basis)
    print(
        f"coherence fitted constant: {rep.fitted_constant:.6g} "
        f"(analytic C_mu = {consts['C_mu']:.6g}, C_rs = {consts['C_rs']:.6g}, "
        f"from sup-gradient {consts['C_phi_psi']:.6g})"
    )
    return EXIT_OK


def cmd_reconstruct(args):
    cfg = load_config(args.config, _overrides(args))
    op, levels, scheme, sig = _experiment_pieces(cfg)
    result, grid, err, g = _reconstruct_once(op, scheme, sig, cfg)
    os.makedirs(args.out, exist_ok=True)
    tag = f"{cfg['signal']}_p{cfg['order']}_N{levels.N_r}_m{scheme.total}_seed{cfg['seed']}"
    write_matrix_csv(grid.reshape(1, -1), os.path.join(args.out, f"rec_{tag}.csv"))
    write_matrix_csv(
        result.coeffs.reshape(1, -1), os.path.join(args.out, f"coeffs_{tag}.csv")
    )
    tw, tw_err = _truncated_walsh(op, scheme, sig)
    write_matrix_csv(tw.reshape(1, -1), os.path.join(args.out, f"tw_{tag}.csv"))
    sampling.save_scheme(scheme, os.path.join(args.out, f"pattern_{tag}.txt"))
    record = {
        "signal": cfg["signal"],
        "N": int(levels.N_r),
        "budget": scheme.total,
        "m": list(scheme.m),
        "cs_error": err,
        "tw_error": tw_err,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "dense_section": bool(result.dense_section),
        "applies": result.applies,
        "adjoints": result.adjoints,
        "feasibility_gap": result.feasibility_gap,
        "seed": cfg["seed"],
    }
    _summary_line(os.path.join(args.out, f"summary_{tag}.json"), record)
    # non-convergence is flagged in the summary; only gross infeasibility
    # (the solve did not get anywhere near the data) is a hard failure
    g_norm = float(np.linalg.norm(g.values))
    if result.feasibility_gap > 0.1 * max(1.0, g_norm):
        print(json.dumps(record), file=sys.stderr)
        return EXIT_NUMERICAL
    print(json.dumps(record))
    return EXIT_OK


def _error_table(cfg, column, changes, path):
    """One reconstruction per (label, config change): a CSV of the label
    under the given column name with the CS and truncated-Walsh errors."""
    rows = []
    for label, change in changes:
        sub = {**cfg, **change}
        op, _, scheme, sig = _experiment_pieces(sub)
        err = _reconstruct_once(op, scheme, sig, sub)[2]
        rows.append((label, err, _truncated_walsh(op, scheme, sig)[1]))
    with open(path, "w") as fh:
        fh.write(f"{column},cs_error,tw_error\n")
        for label, cs, tw in rows:
            fh.write(f"{label},{cs:.17g},{tw:.17g}\n")
    print(path)
    return EXIT_OK


def cmd_errorcurve(args):
    cfg = load_config(args.config, _overrides(args))
    os.makedirs(args.out, exist_ok=True)
    changes = []
    for n in args.N_list:
        big = _power_of_two_exponent(n, cfg["R"], "the coefficient bandwidth 2^R")
        changes.append((n, {"q": big - cfg["R"]}))
    path = os.path.join(
        args.out, f"errorcurve_{cfg['signal']}_m{cfg['budget']}_seed{cfg['seed']}.csv"
    )
    return _error_table(cfg, "N", changes, path)


def cmd_fliptest(args):
    cfg = load_config(args.config, _overrides(args))
    op, levels, scheme, sig = _experiment_pieces(cfg)
    flipped = sampling.flip_pattern(scheme)
    os.makedirs(args.out, exist_ok=True)
    grid, err = _reconstruct_once(op, scheme, sig, cfg)[1:3]
    grid_f, err_f = _reconstruct_once(op, flipped, sig, cfg)[1:3]
    tag = f"{cfg['signal']}_N{levels.N_r}_m{scheme.total}_seed{cfg['seed']}"
    write_matrix_csv(grid.reshape(1, -1), os.path.join(args.out, f"flip_straight_{tag}.csv"))
    write_matrix_csv(grid_f.reshape(1, -1), os.path.join(args.out, f"flip_flipped_{tag}.csv"))
    sampling.save_scheme(flipped, os.path.join(args.out, f"flip_pattern_{tag}.txt"))
    record = {
        "structured_error": err,
        "flipped_error": err_f,
        "ratio": err_f / err if err > 0 else float("inf"),
        "seed": cfg["seed"],
    }
    _summary_line(os.path.join(args.out, f"flip_summary_{tag}.json"), record)
    print(json.dumps(record))
    return EXIT_OK


def cmd_sweep(args):
    cfg = load_config(args.config, _overrides(args))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(
        args.out, f"sweep_{cfg['signal']}_N{1 << (cfg['R'] + cfg['q'])}_seed{cfg['seed']}.csv"
    )
    changes = [(budget, {"budget": budget}) for budget in args.budget_list]
    return _error_table(cfg, "budget", changes, path)


def _add_common(sub, with_experiment=True):
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--out", default="out", help="output directory")
    if with_experiment:
        sub.add_argument("--signal", choices=None, help="f, g, or a CSV file path")
        sub.add_argument("--order", type=int, help="wavelet order p")
        sub.add_argument("--J0", type=int, help="minimal wavelet level")
        sub.add_argument("--R", type=int, help="coefficient bandwidth exponent")
        sub.add_argument("--q", type=int, help="oversampling exponent")
        sub.add_argument("--budget", type=int, help="total number of samples")
        sub.add_argument("--policy", choices=("uniform", "weights"))
        sub.add_argument("--full-first", dest="full_first", action="store_true", default=None)
        sub.add_argument("--no-full-first", dest="full_first", action="store_false")
        sub.add_argument("--seed", type=int)
        sub.add_argument("--delta", type=float)
        sub.add_argument("--L", type=int, help="solver truncation dimension")
        sub.add_argument("--s", type=_colon_list, help="per-level sparsities, colon separated")


def build_parser():
    parser = argparse.ArgumentParser(prog="walshcs", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    m = subs.add_parser("matrix", help="dense operator section heatmap")
    _add_common(m, with_experiment=False)
    m.add_argument("--order", type=int)
    m.add_argument("--J0", type=int)
    m.add_argument("--N", type=int, default=256)
    m.set_defaults(func=cmd_matrix)

    a = subs.add_parser("analyze", help="coherence / balancing reports")
    _add_common(a, with_experiment=False)
    a.add_argument("--order", type=int)
    a.add_argument("--J0", type=int)
    a.add_argument("--q", type=int)
    a.add_argument("--N", type=int, default=256)
    a.add_argument("--budget", type=int)
    a.add_argument("--s", type=_colon_list)
    a.set_defaults(func=cmd_analyze)

    r = subs.add_parser("reconstruct", help="measure, solve, compare to TW")
    _add_common(r)
    r.set_defaults(func=cmd_reconstruct)

    e = subs.add_parser("errorcurve", help="error vs sampling bandwidth N")
    _add_common(e)
    e.add_argument("--N-list", dest="N_list", type=lambda v: [int(x) for x in v.split(",")],
                   required=True, help="comma-separated sampling bandwidths")
    e.set_defaults(func=cmd_errorcurve)

    f = subs.add_parser("fliptest", help="structured vs flipped pattern")
    _add_common(f)
    f.set_defaults(func=cmd_fliptest)

    s = subs.add_parser("sweep", help="error vs sample budget at fixed N")
    _add_common(s)
    s.add_argument("--budget-list", dest="budget_list",
                   type=lambda v: [int(x) for x in v.split(",")], required=True)
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
