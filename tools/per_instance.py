"""Compare two source trees of robustpca instance by instance on the benchmark's workloads.

    python tools/per_instance.py OLD_TREE NEW_TREE [WORKLOAD ...]

Each tree's ``src`` and its ``perfbench/workloads.py`` are imported in their
own subprocess (read only, through ``tools/trees.py``), which builds every
instance of seeds 1-5 of the named workloads (all four if none is named) at
full size, runs one operation on each and applies the workload's
correctness gate.  This is what the ``perfbench`` medians cannot show: a
run-level median covers however many operations fit in its time.

For every instance whose iteration count or recovery error differs, the
script prints both values and the relative change.  A change that makes the
figure worse by more than its ``BENCHMARK.json`` bound (read from the checkout
that holds this script) is flagged ``BEYOND BOUND``, and every gate failure is
printed with its tree and the gate's message.  For ``sweep_cli_400`` it
also reads each instance's ``report.json`` and prints every instance whose
selected grid index or selected rank differs; the selected rank is what the
gate for non-bitwise changes holds fixed, so a rank change is ``RANK
CHANGED``.  A summary line per workload follows.  The script exits 1 if any
change is beyond its bound, any selected rank changed or any gate failed, 0
otherwise, and 2 on a usage error or an unknown workload.  A run of
all four workloads took under a minute per tree on a 2-core x86-64.
"""

import contextlib
import io
import json
import sys
import tempfile

import trees

SEEDS = (1, 2, 3, 4, 5)
WORKLOADS = ("fffp_2000", "sweep_cli_400", "background_cli", "ialm_400")
FIGURES = ("iterations", "recovery_error")
SWEEP = "sweep_cli_400"


def selection(workload):
    """``(index, rank)`` of the sweep's selected run, read from the
    ``report.json`` that the workload's last operation wrote; ``(None, None)``
    if it wrote none."""
    path = workload.out / "report.json"
    if not path.is_file():
        return None, None
    report = json.loads(path.read_text())
    lams = [entry["lam"] for entry in report["sweep"]]
    return lams.index(report["selected_lam"]), report["report"]["final_rank"]


def collect(*names):
    """Run every instance of the workloads ``names`` at full size:
    ``{(workload, seed, instance): (iterations, recovery_error, problems,
    selection)}``, where ``selection`` is :func:`selection` for
    ``sweep_cli_400`` and ``(None, None)`` otherwise."""
    import workloads

    out = {}
    for name in names:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                workload = workloads.WORKLOADS[name](seed, "full", work)
                workload.generate()
                for index in range(len(workload.cases)):
                    workload.prepare()
                    # the CLI workloads print their summaries
                    with contextlib.redirect_stdout(io.StringIO()):
                        outcome = workload.check(workload.op())
                    picked = selection(workload) if name == SWEEP else (None, None)
                    out[name, seed, index] = (outcome.iterations, outcome.recovery_error,
                                              list(outcome.problems), picked)
    return out


def compare(old, new, limits, names=WORKLOADS):
    """Lines describing the differences of two ``collect`` maps of the
    workloads ``names``, and whether any change is beyond its bound, any
    selected rank changed or any gate failed."""
    lines, bad = [], False
    for key in sorted(old.keys() | new.keys()):
        label = "%s seed %d instance %d" % key
        if key not in old or key not in new:
            lines.append("%s: only in %s" % (label, "new" if key in new else "old"))
            bad = True
            continue
        for figure, a, b in zip(FIGURES, old[key], new[key]):
            if a == b:
                continue
            if a is None or b is None:
                lines.append("%s: %s %r -> %r" % (label, figure, a, b))
                continue
            change = (b - a) / a if a else float("inf")
            beyond = change > limits[figure]  # both figures are better lower
            bad |= beyond
            lines.append("%s: %s %.6g -> %.6g (%+.3g)%s" % (
                label, figure, a, b, change, "  BEYOND BOUND" if beyond else ""))
        (index_a, rank_a), (index_b, rank_b) = old[key][3], new[key][3]
        if (index_a, rank_a) != (index_b, rank_b):
            moved = rank_a != rank_b
            bad |= moved
            lines.append("%s: selected index %r -> %r, rank %r -> %r%s" % (
                label, index_a, index_b, rank_a, rank_b, "  RANK CHANGED" if moved else ""))
        for side, result in (("old", old[key]), ("new", new[key])):
            for problem in result[2]:
                lines.append("%s: gate failed in %s tree: %s" % (label, side, problem))
                bad = True
    for name in names:
        keys = [key for key in old if key[0] == name and key in new]
        parts = []
        for i, figure in enumerate(FIGURES):
            pairs = [(old[key][i], new[key][i]) for key in keys
                     if old[key][i] != new[key][i] and None not in (old[key][i], new[key][i])]
            worst = max(((b - a) / a for a, b in pairs if a), default=0.0)
            parts.append("%s differ in %d (largest increase %+.3g)" % (figure, len(pairs), worst))
        if name == SWEEP:
            for i, part in ((0, "selected index"), (1, "selected rank")):
                moved = sum(old[key][3][i] != new[key][3][i] for key in keys)
                parts.append("%s differs in %d" % (part, moved))
        lines.append("%s: %d instances; %s" % (name, len(keys), "; ".join(parts)))
    return lines, bad


def main(argv):
    if trees.serve(collect, argv):
        return 0
    names = tuple(dict.fromkeys(argv[3:])) or WORKLOADS
    unknown = [name for name in names if name not in WORKLOADS]
    if len(argv) < 3 or unknown:
        if unknown:
            print("unknown workload %s; choose from %s" % (", ".join(unknown),
                                                         ", ".join(WORKLOADS)), file=sys.stderr)
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (trees.run(__file__, tree, *names) for tree in argv[1:3])
    lines, bad = compare(old, new, {figure: trees.bound(figure) for figure in FIGURES}, names)
    for line in lines:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
