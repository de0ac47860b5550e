"""Map where the factored model recovers the low-rank part, cell by cell.

    python tools/recovery_map.py

The paper's claim is that the factored model needs only an upper bound
``k`` on the rank.  In robustpca that claim rests on ``lambda_sweep``.  The
script runs the checkout's ``src`` on ``make_problem(200, 200, r, f,
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
A summary line gives the passing cells.  The run took about 4 s on a
2-core x86-64.  The exit code is 0.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robustpca import SolverConfig, lambda_sweep, make_problem, solve_fffp, solve_ialm

SIDE, SEED = 200, 11
RANKS = (2, 5, 10)
EXCESS = (0, 5, 15)
FRACTIONS = (0.05, 0.2)
GOOD = 1e-2


def recovery(l, l_star):
    return float(np.linalg.norm(l - l_star) / np.linalg.norm(l_star))


def main():
    print("%3s %3s %5s  %8s %10s %7s  %10s %10s" % (
        "r", "k", "f", "sel rank", "sel rec", "reached", "ialm rec", "fffp rec"))
    passed = 0
    for r in RANKS:
        for f in FRACTIONS:
            prob = make_problem(SIDE, SIDE, r, f, seed=SEED)
            ialm = recovery(solve_ialm(prob.x, SolverConfig(k=None))[0], prob.l_star)
            fffp = recovery(solve_fffp(prob.x, SolverConfig(k=r))[0].dense(), prob.l_star)
            for excess in EXCESS:
                entries, selected = lambda_sweep(prob.x, SolverConfig(k=r + excess))
                scores = [(e.report.final_rank, recovery(e.factors.dense(), prob.l_star))
                          for e in entries]
                rank, rec = scores[selected]
                reached = any(s_rank == r and s_rec <= GOOD for s_rank, s_rec in scores)
                passed += rank == r and rec <= GOOD
                print("%3d %3d %5.2f  %8d %10.3g %7s  %10.3g %10.3g" % (
                    r, r + excess, f, rank, rec, "yes" if reached else "no", ialm, fffp))
    print("sweep selects rank r at recovery <= %g on %d of %d cells" % (
        GOOD, passed, len(RANKS) * len(EXCESS) * len(FRACTIONS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
