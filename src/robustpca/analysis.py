"""Post-hoc metrics, anomaly scoring on the sparse part, and wall-time scaling runs."""

import time
from dataclasses import dataclass

import numpy as np

from .datagen import make_problem
from .solvers import SolverConfig, solve_fffp, solve_ialm, solve_uffp

__all__ = [
    "Metrics",
    "AnomalyResult",
    "compute_metrics",
    "anomaly_detect",
    "top_m_columns",
    "scaling_benchmark",
    "linear_fit_r2",
    "benchmark_csv",
]


@dataclass(frozen=True)
class Metrics:
    """Quality summary of one decomposition; recovery_error needs ground truth."""

    rank_l: int
    sparsity_ratio: float
    residual: float
    recovery_error: float | None = None


@dataclass(frozen=True)
class AnomalyResult:
    """Per-column l2 norms of the sparse part and the indices flagged as outliers."""

    scores: np.ndarray
    flagged: np.ndarray


def compute_metrics(report, l, l_star=None):
    """Bundle a solve's rank, sparsity and residual with its recovery error.

    The rank, sparsity and residual are copied from the solve's ``report``,
    where they were measured; only the recovery error of ``l`` against the
    ground truth ``l_star`` is computed here, and is None without it.
    """
    recovery = None
    if l_star is not None:
        norm_l = np.linalg.norm(l_star)
        if norm_l == 0.0:
            raise ValueError("l_star is zero; recovery error is undefined")
        recovery = float(np.linalg.norm(l - l_star) / norm_l)
    return Metrics(
        rank_l=report.final_rank,
        sparsity_ratio=report.sparsity_ratio,
        residual=report.final_residual,
        recovery_error=recovery,
    )


def _check_threshold(threshold):
    if not threshold >= 0:  # NaN fails every comparison, so test for the valid range
        raise ValueError("threshold must be nonnegative, got %r" % threshold)


def _check_m(m, size):
    if not 0 <= m <= size:
        raise ValueError("m must lie in [0, %d], got %r" % (size, m))


def anomaly_detect(s, threshold):
    """Score every column of the sparse part by its l2 norm and flag the large ones.

    Columns whose score reaches ``threshold`` are flagged; inlier columns
    of a well-separated decomposition score near zero.
    """
    _check_threshold(threshold)
    s = np.asarray(s, dtype=np.float64)
    scores = np.linalg.norm(s, axis=0)
    return AnomalyResult(scores=scores, flagged=np.flatnonzero(scores >= threshold))


def top_m_columns(scores, m):
    """Indices of the m largest scores, ascending; ties resolve to lower indices."""
    scores = np.asarray(scores, dtype=np.float64)
    _check_m(m, scores.size)
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:m])


_BENCH_TOL = 1e-300  # unreachable: benchmark runs are iteration-exact, never tol-stopped


def scaling_benchmark(base_params, axis, factors, iters, method="fffp", k=5,
                      lam=None, repeats=3, seed=0):
    """Median wall time of fixed-iteration solves on progressively scaled problems.

    ``base_params`` holds :func:`make_problem` keyword arguments for the
    full-size problem; ``axis`` picks which dimension the ``factors``
    rescale ("samples" scales n, "dimension" scales d).  Every run executes
    exactly ``iters`` iterations (the stopping tolerance is unreachable) of
    the default solve, so the timed section is the solver call alone: the
    seeded randomized truncated-SVD start and the iterations, both
    O(d*n*k).  All problems are generated before any timing; the
    ``repeats`` runs then go round-robin across the sizes, so a drift of
    the machine's speed during the benchmark shifts every size alike
    instead of bending the curve, and the median per size damps scheduler
    noise.

    Returns a list of ``(size, seconds)`` rows, one per factor.
    """
    if axis not in ("samples", "dimension"):
        raise ValueError('axis must be "samples" or "dimension", got %r' % axis)
    factors = list(factors)
    if not factors or any(f <= 0 for f in factors):
        raise ValueError("factors must be a nonempty list of positive scalars")
    if sorted(factors) != factors:
        raise ValueError("factors must be ascending")
    if repeats < 1:
        raise ValueError("repeats must be at least 1, got %r" % repeats)
    solve = {"fffp": solve_fffp, "uffp": solve_uffp, "ialm": solve_ialm}[method]
    cfg = SolverConfig(k=k, lam=lam, tol=_BENCH_TOL, max_iter=iters, seed=seed)
    scaled = "n" if axis == "samples" else "d"

    sizes, inputs = [], []
    for factor in factors:
        params = dict(base_params)
        params[scaled] = max(1, int(round(params[scaled] * factor)))
        sizes.append(params[scaled])
        inputs.append(make_problem(**params).x)
    times = [[] for _ in inputs]
    for _ in range(repeats):
        for x, runs in zip(inputs, times):
            t0 = time.perf_counter()
            solve(x, cfg)
            runs.append(time.perf_counter() - t0)
    return [(size, float(np.median(runs))) for size, runs in zip(sizes, times)]


def linear_fit_r2(rows):
    """R-squared of the least-squares line through ``(size, seconds)`` rows."""
    sizes = np.array([row[0] for row in rows], dtype=np.float64)
    seconds = np.array([row[1] for row in rows], dtype=np.float64)
    if sizes.size < 2:
        return float("nan")
    slope, intercept = np.polyfit(sizes, seconds, 1)
    predicted = slope * sizes + intercept
    ss_res = float(((seconds - predicted) ** 2).sum())
    ss_tot = float(((seconds - seconds.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def benchmark_csv(rows):
    """Render benchmark rows as CSV text with a ``size,seconds`` header."""
    lines = ["size,seconds"]
    lines += ["%d,%.9g" % (size, seconds) for size, seconds in rows]
    return "\n".join(lines) + "\n"
