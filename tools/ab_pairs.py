"""Run the benchmark on two source trees in alternating pairs and compare them.

    python tools/ab_pairs.py OLD_TREE NEW_TREE --workload W [--workload W ...]
        --pairs N --seconds S [--first-seed SEED] [--claim W:METRIC] [--out BENCH.json]

Each tree must hold ``perfbench/run.py``; a tree without one is refused
before anything runs.  Pair ``i`` (from 1) runs ``python3 perfbench/run.py
--workload W --seed SEED+i-1 --seconds S --trace 0`` in each tree, one
process at a time: OLD first on odd pairs, NEW first on even ones, so that
neither side always runs on a machine the other has just warmed or loaded.
Each run's last line of output is its result (see ``perfbench/run.py``).

Per workload and per end-to-end metric of the ``BENCHMARK.json`` next to
this script, the script prints both medians, both interquartile ranges
(inclusive quartiles over the run-level values) and how many pairs NEW won,
by the metric's better direction (ties count for neither side).  A gain is
met when NEW wins at least nine tenths of the pairs and its median is better
than OLD's by more than OLD's interquartile range.  ``--claim`` names the
workload and metric whose verdict goes into the ``claim`` key of ``--out``,
a JSON file with the keys of the repository's ``BENCH_*.json`` files: every
run's values, per side and pair, and the numpy, BLAS and thread environment
the runs reported.  Its ``change`` and ``notes`` are left empty, and its
``traced`` null, for the author to fill in.

Exits 1 if any run fails or reports ``correct`` false, 2 on a usage error or
a refused tree, 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
SIDES = ("parent", "change")  # OLD_TREE and NEW_TREE, as BENCH_*.json name them


class RunFailed(RuntimeError):
    """A benchmark run exited nonzero or printed no result."""


def run_once(tree, workload, seed, seconds):
    """The result and environment one ``perfbench/run.py`` run in ``tree``
    printed: ``(result, environment)``."""
    argv = ["python3", str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed("%s in %s exited %d: %s" % (" ".join(argv), tree, proc.returncode,
                                                     proc.stderr.strip()))
    env = next((json.loads(line.partition(": ")[2]) for line in lines
                if line.startswith("environment: ")), None)
    return json.loads(lines[-1]), env


def order(pair):
    """The sides of pair ``pair`` (from 1) in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(runs, spec):
    """Per end-to-end metric of ``spec``, the comparison of the two sides'
    ``runs`` (``{side: [result, ...]}``, one result per pair in pair order)."""
    metrics = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            row.update({side + "_q1": q1, side + "_median": median, side + "_q3": q3})
        old, new = row["parent_median"], row["change_median"]
        row["change_vs_parent"] = (new - old) / old if old else None
        row["parent_iqr"] = row["parent_q3"] - row["parent_q1"]
        row["change_iqr"] = row["change_q3"] - row["change_q1"]
        gaps = [sign * (b - a) for a, b in zip(values["parent"], values["change"])]
        row["change_wins"] = sum(g < 0 for g in gaps)
        row["change_losses"] = sum(g > 0 for g in gaps)
        row["gain_met"] = (row["change_wins"] >= 0.9 * len(gaps)
                           and sign * (old - new) > row["parent_iqr"])
        row["parent_runs"], row["change_runs"] = values["parent"], values["change"]
        metrics[name] = row
    return metrics


def report_lines(workload, pairs, metrics):
    lines = ["%s, %d pairs: metric  OLD median (IQR) -> NEW median (IQR)  NEW wins"
             % (workload, pairs)]
    for name, row in metrics.items():
        lines.append("  %-15s %.6g (%.3g) -> %.6g (%.3g)  %d/%d%s" % (
            name, row["parent_median"], row["parent_iqr"], row["change_median"],
            row["change_iqr"], row["change_wins"], pairs, "  gain met" if row["gain_met"] else ""))
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.first_seed < 0:
        parser.error("--pairs and --seconds must be positive, --first-seed nonnegative")
    if args.claim is not None and args.claim.partition(":")[0] not in args.workload:
        parser.error("--claim must name one of the workloads run, as WORKLOAD:METRIC")
    for tree in (args.old, args.new):
        if not (tree / RUN).is_file():
            parser.error("%s holds no %s" % (tree, RUN))
    return args


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.claim is not None and args.claim.partition(":")[2] not in {
            m["name"] for m in spec["end_to_end"]}:
        print("--claim names no end-to-end metric of BENCHMARK.json", file=sys.stderr)
        return 2
    trees = dict(zip(SIDES, (args.old, args.new)))
    seeds = [args.first_seed + i for i in range(args.pairs)]
    out = {"change": "", "parent_commit": None,
           "command": "python3 %s --workload W --seed N --seconds %g --trace 0"
                      % (RUN.as_posix(), args.seconds),
           "protocol": "one benchmark process at a time; pair i runs seed %d+i-1 in both "
                       "trees, the parent first on odd pairs and the change first on even "
                       "pairs; quartiles are inclusive, over the run-level values; a win is "
                       "a pair where the change reads better, ties count for neither; every "
                       "run made is listed (tools/ab_pairs.py)" % args.first_seed,
           "environment": None, "workloads": {}, "claim": None, "notes": {}, "traced": None}
    envs = {}
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for pair, seed in enumerate(seeds, 1):
            for side in order(pair):
                try:
                    result, env = run_once(trees[side], workload, seed, args.seconds)
                except RunFailed as exc:
                    print(exc, file=sys.stderr)
                    return 1
                runs[side].append(result)
                envs.setdefault(side, env)
                print("pair %d %s %s seed %d: correct %s" % (
                    pair, side, workload, seed, result["correct"]), file=sys.stderr)
        metrics = summarize(runs, spec)
        out["workloads"][workload] = {
            "pairs": args.pairs, "seeds": seeds,
            "parent_first": [order(pair)[0] == "parent" for pair in range(1, args.pairs + 1)],
            "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "correct": all(r["correct"] for side in SIDES for r in runs[side]),
            "metrics": metrics,
        }
        for line in report_lines(workload, args.pairs, metrics):
            print(line)
    if envs.get("change"):
        # what differs between the trees is recorded per side
        env = dict(envs["change"])
        for key in ("git_commit", "src_sha256"):
            env[key] = {side: (envs.get(side) or {}).get(key) for side in SIDES}
        out["environment"] = env
        out["parent_commit"] = env["git_commit"]["parent"]
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        row = out["workloads"][workload]["metrics"][metric]
        out["claim"] = {"workload": workload, "metric": metric, "pairs": args.pairs,
                        "change_wins": row["change_wins"],
                        "parent_median": row["parent_median"],
                        "change_median": row["change_median"],
                        "parent_iqr": row["parent_iqr"], "met": row["gain_met"]}
        print("claim %s: %s" % (args.claim, "met" if row["gain_met"] else "not met"))
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    if not all(w["correct"] for w in out["workloads"].values()):
        print("a run reported correct false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
