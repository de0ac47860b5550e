"""Map where the factored model recovers the low-rank part, cell by cell.

    python tools/recovery_map.py
    python tools/recovery_map.py OLD_TREE NEW_TREE

The paper's claim is that the factored model needs only an upper bound
``k`` on the rank.  In robustpca that claim rests on ``lambda_sweep``.  The
script runs a checkout's ``src`` on ``make_problem(200, 200, r, f,
seed=11)`` for every true rank r in {2, 5, 10}, excess ``k - r`` in {0, 5,
15} and corruption fraction f in {0.05, 0.2}: 18 cells, all with the default
``SolverConfig``.  Per cell it prints

* the rank the sweep selects at ``k`` and its recovery error
  ``||L - L*||_F / ||L*||_F``;
* ``reached``: whether any sweep entry has rank r at recovery at most
  ``GOOD`` (1e-2).  A cell whose selection fails while an entry reached
  rank r is a selection failure; one where no entry reached it is a grid
  failure;
* the recovery of ``solve_ialm`` (default weight) and of ``solve_fffp`` at
  ``k = r``, which need no rank search and do not depend on ``k``.

A cell passes when the sweep selects rank r at recovery at most ``GOOD``.
With no argument the script maps the checkout that holds it, prints a
summary line with the passing cells and exits 0.  The run took about 4 s on
a 2-core x86-64.

Each map is made in its own subprocess, which imports that tree's ``src``
(through ``tools/trees.py``).  With two trees the script prints every cell
whose selected rank, pass status or selected recovery differs.  A cell that
passes in OLD_TREE and fails in NEW_TREE is flagged ``FAILS NOW``, and one
whose selected recovery grows by more than ``recovery_error``'s
``BENCHMARK.json`` bound (read from the checkout that holds this script)
``BEYOND BOUND``.  The script then exits 1 if any cell is flagged, 0
otherwise, and 2 on a usage error.
"""

import sys

import numpy as np

import trees

SIDE, SEED = 200, 11
RANKS = (2, 5, 10)
EXCESS = (0, 5, 15)
FRACTIONS = (0.05, 0.2)
GOOD = 1e-2


def recovery(l, l_star):
    return float(np.linalg.norm(l - l_star) / np.linalg.norm(l_star))


def collect():
    """The map: one row ``[r, k, f, selected rank, selected recovery, reached,
    ialm recovery, fffp recovery]`` per cell."""
    import robustpca as rp

    rows = []
    for r in RANKS:
        for f in FRACTIONS:
            prob = rp.make_problem(SIDE, SIDE, r, f, seed=SEED)
            ialm = recovery(rp.solve_ialm(prob.x, rp.SolverConfig(k=None))[0], prob.l_star)
            fffp = recovery(rp.solve_fffp(prob.x, rp.SolverConfig(k=r))[0].dense(), prob.l_star)
            for excess in EXCESS:
                entries, selected = rp.lambda_sweep(prob.x, rp.SolverConfig(k=r + excess))
                scores = [(e.report.final_rank, recovery(e.factors.dense(), prob.l_star))
                          for e in entries]
                rank, rec = scores[selected]
                reached = any(s_rank == r and s_rec <= GOOD for s_rank, s_rec in scores)
                rows.append([r, r + excess, f, rank, rec, reached, ialm, fffp])
    return rows


def passes(row):
    r, _, _, rank, rec = row[:5]
    return rank == r and rec <= GOOD


def show(rows):
    print("%3s %3s %5s  %8s %10s %7s  %10s %10s" % (
        "r", "k", "f", "sel rank", "sel rec", "reached", "ialm rec", "fffp rec"))
    for r, k, f, rank, rec, reached, ialm, fffp in rows:
        print("%3d %3d %5.2f  %8d %10.3g %7s  %10.3g %10.3g" % (
            r, k, f, rank, rec, "yes" if reached else "no", ialm, fffp))
    print("sweep selects rank r at recovery <= %g on %d of %d cells" % (
        GOOD, sum(map(passes, rows)), len(rows)))


def compare(old, new, bound):
    """Lines describing the cells that differ between two maps, and whether
    any cell got worse: from pass to fail, or its selected recovery up by
    more than the relative ``bound``."""
    lines, bad = [], False
    for a, b in zip(old, new):
        if (a[3], a[4], passes(a)) == (b[3], b[4], passes(b)):
            continue
        change = (b[4] - a[4]) / a[4] if a[4] else float("inf")
        flags = ["FAILS NOW"] if passes(a) and not passes(b) else []
        flags += ["BEYOND BOUND"] if change > bound else []
        bad |= bool(flags)
        lines.append("cell r=%d k=%d f=%.2f: rank %d -> %d, recovery %.6g -> %.6g (%+.3g), %s -> %s%s"
                     % (*a[:3], a[3], b[3], a[4], b[4], change,
                        "pass" if passes(a) else "fail", "pass" if passes(b) else "fail",
                        "".join("  " + flag for flag in flags)))
    lines.append("%d of %d cells differ; passing cells %d -> %d" % (
        len(lines), len(old), sum(map(passes, old)), sum(map(passes, new))))
    return lines, bad


def main(argv):
    if trees.serve(collect, argv):
        return 0
    if len(argv) == 1:
        show(trees.run(__file__, trees.ROOT))
        return 0
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (trees.run(__file__, tree) for tree in argv[1:])
    lines, bad = compare(old, new, trees.bound("recovery_error"))
    for line in lines:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
