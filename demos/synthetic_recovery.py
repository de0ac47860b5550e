"""Recovering a planted low-rank-plus-sparse split with all three solvers.

Builds a 400x400 problem whose ground truth is kept, then compares the
fixed-rank factored solver, the rank-discovering variant, and the convex
baseline on rank, sparsity, residual, and true recovery error.
"""

import numpy as np

import robustpca as rp

D, N, RANK, FRACTION, SEED = 400, 400, 5, 0.05, 7


def describe(name, l, report, l_star):
    recovery = rp.compute_metrics(l, l_star)["recovery_error"]
    print(
        "%-6s rank=%2d  sparsity=%.4f  residual=%.2e  recovery=%.2e  "
        "iters=%3d  svds=%3d  %.2fs"
        % (name, report.final_rank, report.sparsity_ratio, report.final_residual,
           recovery, report.iterations, report.svd_count, report.wall_time)
    )


def main():
    problem = rp.make_problem(D, N, RANK, FRACTION, seed=SEED)
    print("problem: %dx%d, true rank %d, %.0f%% gross corruption"
          % (D, N, RANK, 100 * FRACTION))
    print("sigma(L*):", np.round(np.linalg.svd(problem.l_star, compute_uv=False)[:6], 1))

    cfg = rp.SolverConfig(k=RANK)
    factors, _, report = rp.solve_fffp(problem.x, cfg)
    describe("fffp", factors.dense(), report, problem.l_star)

    # with k already at the true rank only a light weight is wanted; heavy
    # shrinkage would start deleting real directions
    lam = 1e-3 * np.linalg.norm(problem.x, 2)
    factors, _, report = rp.solve_uffp(problem.x, rp.SolverConfig(k=RANK, lam=lam))
    describe("uffp", factors.dense(), report, problem.l_star)

    l, _, report = rp.solve_ialm(problem.x, cfg)
    describe("ialm", l, report, problem.l_star)

    print("\nthe factored solvers cap the rank at k by construction; the convex")
    print("baseline reaches a similar recovery here but thresholds the spectrum")
    print("of the whole d x n iterate every iteration (a partial SVD whose width")
    print("follows the rank), which is what the factorization avoids.")


if __name__ == "__main__":
    main()
