"""Command-line front end.

Subcommands: ``synth`` (generate a problem), ``decompose`` (run a solver on
a matrix file), ``background`` (split an image stack into background and
foreground frames), ``anomaly`` (flag outlier columns), ``bench`` (wall-time
scaling runs).  Every command writes a ``manifest.json`` next to its
outputs echoing the full configuration, seed, tool version, and wall time,
so any artifact can be regenerated from its manifest, and the environment
that produced the numbers: the numpy version, its BLAS, the CPU count and
affinity, and the BLAS thread variables.

Exit codes: 0 success (and solver convergence), 1 a solve produced a
non-finite iterate (nothing is written), 2 usage or argument error (such as
a ``--lambda`` or ``--lambda-sweep`` that ``--method`` would ignore), 3
iteration-cap exit of ``decompose``, ``background`` or ``anomaly`` with
outputs still written, 4 I/O or file-format error.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import _check_threshold, compute_metrics, anomaly_detect, \
    benchmark_csv, linear_fit_r2, scaling_benchmark, top_m_columns
from .dataio import FormatError, load_frame_stack, read_matrix, write_frame, \
    write_matrix, write_report
from .datagen import make_problem
from .solvers import DivergenceError, SolverConfig, lambda_sweep, solve_fffp, solve_ialm, \
    solve_uffp

USAGE_ERROR = 2
ITERATION_CAP_EXIT = 3
IO_ERROR = 4

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _environment():
    """What a number depends on beyond the inputs: float64 solves call dgemm
    and float32 ones sgemm, from the BLAS that numpy was built with."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": None if affinity is None else len(affinity),
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _write_manifest(out_dir, args, inputs, outputs, start):
    """Write ``manifest.json``, whose ``config`` echoes every parsed argument."""
    manifest = {
        "command": args.command,
        "config": {key: value for key, value in vars(args).items() if key != "func"},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": args.seed,
        "version": __version__,
        "wall_time": time.perf_counter() - start,
        "environment": _environment(),
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _finish(out, args, inputs, outputs, start, report, cfg, **blocks):
    """Write ``report.json`` (the report, ``cfg`` and the ``metrics``/``extra``
    ``blocks``) and the manifest; return the solve command's exit code:
    0, or ITERATION_CAP_EXIT when the solve stopped at ``cfg.max_iter``."""
    report_path = out / "report.json"
    write_report(report_path, report, config=cfg, **blocks)
    _write_manifest(out, args, inputs, outputs + [report_path], start)
    return 0 if report.converged else ITERATION_CAP_EXIT


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_from_args(args):
    # anomaly has no --lambda: it runs fffp, which has no weight
    return SolverConfig(
        k=args.k,
        lam=getattr(args, "lam", SolverConfig.lam),
        tol=args.tol,
        max_iter=args.max_iter,
        seed=args.seed,
    )


def _check_method_flags(args):
    """Refuse fffp or uffp without ``--k``, a weight flag that ``--method`` would
    ignore, and uffp without a weight (ValueError, so exit 2); run before any
    input is read or generated.  ialm reads no ``--k``.  ``bench`` has no
    ``--lambda-sweep``, so its messages do not name it."""
    if args.k is None and args.method != "ialm":
        raise ValueError("--method %s needs --k" % args.method)
    sweep = getattr(args, "lambda_sweep", None)  # None: the command has no such flag
    if sweep and (args.method != "uffp" or args.lam is not None):
        raise ValueError("--lambda-sweep needs --method uffp and no --lambda")
    if args.lam is not None and args.method == "fffp":
        raise ValueError("--method fffp has no weight; drop --lambda")
    if args.method == "uffp" and args.lam is None and not sweep:
        raise ValueError("--method uffp needs --lambda%s"
                         % ("" if sweep is None else " or --lambda-sweep"))


def cmd_synth(args):
    start = time.perf_counter()
    problem = make_problem(args.d, args.n, args.rank, args.fraction, seed=args.seed)
    out = _out_dir(args)
    paths = [out / "X.ffpm", out / "L_star.ffpm", out / "S_star.ffpm"]
    for path, matrix in zip(paths, (problem.x, problem.l_star, problem.s_star)):
        write_matrix(path, matrix)
    _write_manifest(out, args, [], paths, start)
    return 0


def _solve_with_method(x, args, cfg):
    """Dispatch one decomposition; returns ``(low_rank, s, report, extra)``, where
    ``low_rank`` is ialm's dense l or the factors of fffp and uffp."""
    if args.lambda_sweep:
        entries, selected = lambda_sweep(x, cfg)
        chosen = entries[selected]
        sweep_table = [
            {"lam": e.lam, "rank": e.report.final_rank,
             "residual": e.report.final_residual, "iterations": e.report.iterations,
             "converged": e.report.converged, "density": e.report.sparsity_ratio,
             "sparse_l1": e.report.sparse_l1}
            for e in entries
        ]
        extra = {"sweep": sweep_table, "selected_lam": chosen.lam}
        return chosen.factors, chosen.s, chosen.report, extra
    # built per call, so a rebinding of the module's solver names is seen
    solve = {"fffp": solve_fffp, "uffp": solve_uffp, "ialm": solve_ialm}[args.method]
    return (*solve(x, cfg), {})


def _score(args, low_rank, report):
    """``compute_metrics`` against ``--truth`` if given.  The truth is read after
    the solve, so a sweep does not hold it; it and the dense factored L,
    formed only to score it, are dropped on return."""
    if not args.truth:
        return compute_metrics(report, None)
    l = low_rank if args.method == "ialm" else low_rank.dense()
    return compute_metrics(report, l, l_star=read_matrix(args.truth))


def cmd_decompose(args):
    _check_method_flags(args)
    cfg = _config_from_args(args)
    start = time.perf_counter()
    x = read_matrix(args.input)
    low_rank, s, report, extra = _solve_with_method(x, args, cfg)
    # scored before any write, so a truth that cannot be read or does not
    # match leaves nothing under --out
    metrics = _score(args, low_rank, report)

    out = _out_dir(args)
    parts = ([("L", low_rank)] if args.method == "ialm" else
             [("U", low_rank.u), ("C", low_rank.c), ("V", low_rank.v)])
    outputs = []
    for name, matrix in parts + [("S", s)]:
        path = out / ("%s.ffpm" % name)
        write_matrix(path, matrix)
        outputs.append(path)
    return _finish(out, args, [args.input], outputs, start, report, cfg,
                   metrics=metrics, extra=extra)


def cmd_background(args):
    _check_method_flags(args)
    cfg = _config_from_args(args)
    start = time.perf_counter()
    stack = load_frame_stack(args.frames, args.downsample)
    low_rank, s, report, extra = _solve_with_method(stack.matrix, args, cfg)

    # frames are formed one at a time, so no (d, n) array is added to the
    # input and the solve's outputs
    uc = None if args.method == "ialm" else low_rank.u @ low_rank.c
    out = _out_dir(args)
    outputs = []
    for j, name in enumerate(stack.frame_names):
        stem = Path(name).stem
        bg_path = out / ("background_%s.pgm" % stem)
        fg_path = out / ("foreground_%s.pgm" % stem)
        background = low_rank[:, j] if uc is None else uc @ low_rank.v[j]
        write_frame(background, stack.frame_height, stack.frame_width, bg_path)
        write_frame(np.abs(s[:, j]), stack.frame_height, stack.frame_width, fg_path)
        outputs += [bg_path, fg_path]

    return _finish(out, args, [args.frames], outputs, start, report, cfg,
                   metrics=compute_metrics(report, None), extra=extra)


def cmd_anomaly(args):
    cfg = _config_from_args(args)
    # refuse a bad --threshold or --top-m before reading: neither check needs
    # the input, since min(top_m, n) never exceeds n
    if args.threshold is not None:
        _check_threshold(args.threshold)
    elif args.top_m < 0:
        raise ValueError("--top-m must be nonnegative, got %d" % args.top_m)
    start = time.perf_counter()
    x = read_matrix(args.input)
    top_m = min(args.top_m, x.shape[1])
    factors, s, report = solve_fffp(x, cfg)
    # top-m mode thresholds at inf, then takes the m highest scores
    result = anomaly_detect(s, np.inf if args.threshold is None else args.threshold)
    scores, flagged = result.scores, result.flagged
    if args.threshold is None:
        flagged = top_m_columns(scores, top_m)

    out = _out_dir(args)
    scores_path = out / "scores.csv"
    lines = ["index,score"] + ["%d,%.17g" % (j, score) for j, score in enumerate(scores)]
    scores_path.write_text("\n".join(lines) + "\n")
    flagged_path = out / "flagged.csv"
    flagged_path.write_text("\n".join(["index"] + [str(j) for j in flagged]) + "\n")
    return _finish(out, args, [args.input], [scores_path, flagged_path], start, report, cfg,
                   extra={"flagged": [int(j) for j in flagged]})


def cmd_bench(args):
    _check_method_flags(args)
    start = time.perf_counter()
    factors = [float(f) for f in args.factors.split(",") if f.strip()]
    base = {"d": args.base_d, "n": args.base_n, "r": args.rank,
            "fraction": args.fraction, "seed": args.seed}
    rows = scaling_benchmark(base, args.axis, factors, args.iters, method=args.method,
                             k=args.k, lam=args.lam, repeats=args.repeats, seed=args.seed)
    r2 = linear_fit_r2(rows)

    out = _out_dir(args)
    csv_path = out / "scaling.csv"
    csv_path.write_text(benchmark_csv(rows))
    fit_path = out / "fit.json"
    fit_json = None if np.isnan(r2) else r2  # a single row has no line to fit
    fit_path.write_text(json.dumps({"r2": fit_json, "rows": rows}, indent=2) + "\n")
    print("linear fit R^2 = %.4f over %d sizes" % (r2, len(rows)))

    _write_manifest(out, args, [], [csv_path, fit_path], start)
    return 0


def _add_method_flags(parser, **method):
    """``--method`` (``method`` holds its ``required`` or ``default``),
    ``--lambda`` and ``--lambda-sweep``."""
    parser.add_argument("--method", choices=("fffp", "uffp", "ialm"), **method)
    parser.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam,
                        help="balance weight (uffp; ialm derives a default)")
    parser.add_argument("--lambda-sweep", action="store_true",
                        help="sweep the uffp weight over a data-scaled grid")


def _add_solver_flags(parser, k_default=None):
    parser.add_argument("--k", type=int, default=k_default,
                        help="factor width (upper bound on the recovered rank); ialm reads none")
    parser.add_argument("--tol", type=float, default=SolverConfig.tol,
                        help="relative-residual stop threshold")
    parser.add_argument("--max-iter", type=int, default=SolverConfig.max_iter,
                        help="iteration cap")
    parser.add_argument("--seed", type=int, default=SolverConfig.seed,
                        help="seed of the randomized start and of ialm's range finder")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robustpca",
        description="Decompose matrices into low-rank plus sparse parts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic problem with ground truth")
    synth.add_argument("--d", type=int, required=True, help="rows")
    synth.add_argument("--n", type=int, required=True, help="columns")
    synth.add_argument("--rank", type=int, required=True, help="true rank of the low-rank part")
    synth.add_argument("--fraction", type=float, required=True, help="corrupted-entry fraction")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output directory")
    synth.set_defaults(func=cmd_synth)

    dec = commands.add_parser("decompose", help="run a solver on a matrix file")
    dec.add_argument("input", help="matrix file (.ffpm or .csv)")
    _add_method_flags(dec, required=True)
    dec.add_argument("--truth", default=None, help="ground-truth low-rank matrix for recovery error")
    dec.add_argument("--out", required=True)
    _add_solver_flags(dec)
    dec.set_defaults(func=cmd_decompose)

    bg = commands.add_parser("background", help="split an image stack into background/foreground")
    bg.add_argument("frames", help="directory of equally sized .pgm frames")
    _add_method_flags(bg, default="fffp")
    bg.add_argument("--downsample", type=int, default=1,
                    help="keep every f-th pixel along each axis")
    bg.add_argument("--out", required=True)
    _add_solver_flags(bg)
    bg.set_defaults(func=cmd_background)

    anom = commands.add_parser("anomaly", help="flag outlier columns by sparse-part norms")
    anom.add_argument("input", help="matrix file (.ffpm or .csv)")
    anom.add_argument("--threshold", type=float, default=None,
                      help="flag columns whose score reaches this value")
    anom.add_argument("--top-m", type=int, default=10,
                      help="flag the m highest-scoring columns when no threshold is given")
    anom.add_argument("--out", required=True)
    _add_solver_flags(anom, k_default=1)
    anom.set_defaults(func=cmd_anomaly)

    bench = commands.add_parser("bench", help="measure wall time against problem size")
    bench.add_argument("--axis", choices=("samples", "dimension"), required=True)
    bench.add_argument("--factors", required=True, help="comma-separated ascending scales")
    bench.add_argument("--method", choices=("fffp", "uffp", "ialm"), default="fffp")
    bench.add_argument("--base-d", type=int, default=1000)
    bench.add_argument("--base-n", type=int, default=1000)
    bench.add_argument("--rank", type=int, default=5, help="true rank of the generated problems")
    bench.add_argument("--fraction", type=float, default=0.05)
    bench.add_argument("--k", type=int, default=5)
    bench.add_argument("--lambda", dest="lam", type=float, default=None)
    bench.add_argument("--iters", type=int, default=50, help="fixed iteration count per run")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except FormatError as exc:
        print("robustpca: format error: %s" % exc, file=sys.stderr)
        return IO_ERROR
    except OSError as exc:
        print("robustpca: I/O error: %s" % exc, file=sys.stderr)
        return IO_ERROR
    except DivergenceError as exc:
        print("robustpca: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("robustpca: %s" % exc, file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return USAGE_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
