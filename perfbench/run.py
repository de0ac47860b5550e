"""The robustpca benchmark: seeded workloads through the library and the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fffp_2000 --seed 1 --seconds 10 --trace 0

One client runs one operation at a time (a closed loop) in this process.
With ``--trace 0`` the run generates the inputs, runs one warm-up
operation under ``tracemalloc`` for peak memory, then times operations
for ``--seconds`` seconds (and at least ``MIN_SAMPLES`` of them) with no
tracing wrapper installed; it prints the end-to-end metrics named in
``BENCHMARK.json``.
With ``--trace 1`` it alternates untraced and traced operations for
``--seconds`` seconds and prints the per-layer metrics derived from the
spans (see ``spans.py``), which it also writes as JSONL under
``.bench_out/``.  Every operation's outputs pass through the workload's
correctness gate; an operation that raises, exits nonzero or misses its
gate counts as failed.  The last line of standard output is the result
as one JSON object.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fffp_2000", "sweep_cli_400", "background_cli", "ialm_400")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3       # input generations per run; setup_s takes their median
MIN_SAMPLES = 3         # timed operations per run, even when one outlasts --seconds
TAIL_SAMPLES = 10       # samples that must lie beyond a reported percentile


class SetupError(RuntimeError):
    """The checkout does not hold the program this benchmark measures."""


def cap_blas_threads():
    """Limit BLAS thread pools to the CPUs this process may run on; call before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cpus:
            os.environ[var] = str(cpus)


def load_package():
    src = ROOT / "src"
    if not (src / "robustpca" / "__init__.py").is_file():
        raise SetupError("no robustpca package under %s" % src)
    sys.path.insert(0, str(src))
    import robustpca
    if Path(robustpca.__file__).resolve().parent != src / "robustpca":
        raise SetupError("imported robustpca from %s, not %s" % (robustpca.__file__, src))
    return robustpca


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads_in_use():
    """Thread count the bundled OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                getter = getattr(dll, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": blas_threads_in_use(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Runs operations of one workload and tallies attempts and failures."""

    def __init__(self, workload, package):
        self.workload = workload
        self.package = package
        self.attempted = 0
        self.failed = 0
        self.outcomes = []

    def op(self, tracer=None):
        """Run one operation; returns its wall time.  ``tracer`` records it as a span."""
        wl = self.workload
        wl.prepare()
        self.attempted += 1
        if tracer is None:
            spans.assert_clean(self.package)
        else:
            tracer.install()
        try:
            start = time.perf_counter()
            if tracer is None:
                result = wl.op()
            else:
                with tracer.span("bench.op"):
                    result = wl.op()
            elapsed = time.perf_counter() - start
        except Exception:
            elapsed = time.perf_counter() - start
            self.fail("%s raised:\n%s" % (wl.name, traceback.format_exc()))
            return elapsed
        finally:
            if tracer is not None:
                tracer.remove()
        try:
            outcome = wl.check(result)
        except Exception:
            self.fail("%s check raised:\n%s" % (wl.name, traceback.format_exc()))
            return elapsed
        if not outcome.ok:
            self.fail("%s missed its gate: %s" % (wl.name, "; ".join(outcome.problems)))
        self.outcomes.append(outcome)
        return elapsed

    def fail(self, message):
        self.failed += 1
        print(message, file=sys.stderr)


def percentile_tail(samples):
    """(p, value): the highest whole percentile above the median with TAIL_SAMPLES beyond it."""
    ordered = sorted(samples)
    index = len(ordered) - TAIL_SAMPLES - 1
    if index < 0:
        return None
    p = 100 * (index + 1) // len(ordered)
    return (p, ordered[index]) if p > 50 else None


def steady_median(values):
    """Median, keeping a value that repeats exactly (a count) as it is."""
    values = list(values)
    if not values:
        return None
    return values[0] if all(v == values[0] for v in values) else statistics.median(values)


def median_of(outcomes, field):
    return steady_median(getattr(o, field) for o in outcomes if getattr(o, field) is not None)


def measure_end_to_end(runner, seconds):
    wl = runner.workload
    generations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.generate()
        generations.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        warm_up = runner.op()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) < MIN_SAMPLES:
        samples.append(runner.op())
    metrics = {
        "wall_s": statistics.median(samples),
        "setup_s": statistics.median(generations) + warm_up,
        "iterations": median_of(runner.outcomes, "iterations"),
        "recovery_error": median_of(runner.outcomes, "recovery_error"),
        "peak_mem_mb": peak / 1e6,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    detail = {"wall_s_samples": samples, "setup_generations_s": generations,
              "warm_up_s": warm_up, "fail_ratio": runner.failed / runner.attempted}
    tail = percentile_tail(samples)
    if tail is not None:
        detail["wall_s_p%d" % tail[0]] = tail[1]
    return metrics, detail


def measure_layers(runner, seconds, out_dir, tag):
    wl = runner.workload
    tracer = spans.Tracer(runner.package)
    tracer.install()
    try:
        with tracer.span("bench.setup") as setup_root:
            wl.generate()
    finally:
        tracer.remove()
    runner.op()
    untraced, traced, per_op = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        untraced.append(runner.op())
        traced.append(runner.op(tracer))
        # the operation's root span closes last
        per_op.append(spans.op_layer_metrics(tracer.spans, tracer.spans[-1]))
    metrics = {name: steady_median(op[name] for op in per_op) for name in per_op[0]}
    metrics.update(spans.setup_layer_metrics(tracer.spans, setup_root))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1
    spans_path = out_dir / ("%s.spans.jsonl" % tag)
    tracer.write_jsonl(spans_path)
    detail = {"untraced_s": untraced, "traced_s": traced,
              "spans": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    cap_blas_threads()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        package = load_package()
    except (OSError, ValueError, SetupError, ImportError) as exc:
        print("perfbench: cannot set up: %s" % exc, file=sys.stderr)
        return 2
    import workloads  # imports numpy, so only after the thread cap

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_dir = ROOT / ".bench_out"
    work_dir = ROOT / ".bench_work" / ("%s-%d" % (tag, os.getpid()))
    out_dir.mkdir(exist_ok=True)
    work_dir.mkdir(parents=True)
    try:
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed, args.scale, work_dir),
                        package)
        if args.trace:
            values, detail = measure_layers(runner, args.seconds, out_dir, tag)
        else:
            values, detail = measure_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print("perfbench: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    env = environment()
    (out_dir / ("%s.json" % tag)).write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "scale": args.scale,
                    "seconds": args.seconds, "result": result, "detail": detail,
                    "environment": env}, indent=2) + "\n")
    print("environment: %s" % json.dumps(env))
    for name, metric in metrics.items():
        print("%-34s %-14.6g %s" % (name, metric["value"], metric["unit"]))
    for name, value in detail.items():
        if isinstance(value, list):
            print("%-34s %d samples" % (name, len(value)))
        else:
            print("%-34s %s" % (name, value))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
