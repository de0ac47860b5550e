"""Low-rank plus sparse decomposition solvers.

Three augmented-Lagrangian solvers run in one driver, ``_alm``, which owns
the multiplier, the penalty schedule, the stop test and the report; each
solver supplies only the step that updates the low-rank and sparse parts:

* ``solve_fffp`` -- factored model ``x = u @ c @ v.T + s`` with the rank
  fixed by the factor width ``k``; minimizes the l1 norm of ``s``.
* ``solve_uffp`` -- same factored model with ``k`` only an upper bound;
  adds ``lam`` times the log-det rank surrogate of the core ``c`` so the
  recovered rank can drop below ``k``.
* ``solve_ialm`` -- convex baseline (nuclear norm plus weighted l1),
  alternating singular-value and elementwise soft-thresholding.

All solves are deterministic: identical inputs give bit-identical outputs.
A single solve is sequential; distinct solves may run concurrently.
"""

import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .linalg import (
    RANGE_OVERSAMPLE,
    RANGE_POWER_STEPS,
    _as_matrix,
    _fix_signs,
    _range_basis,
    ld_shrink,
    log_det_surrogate,
    polar_orthogonal,
    soft_threshold,
    thin_svd,
)

__all__ = [
    "DivergenceError",
    "FactoredLowRank",
    "SolverConfig",
    "SolveReport",
    "IterationState",
    "SweepEntry",
    "init_factors",
    "solve_fffp",
    "solve_uffp",
    "solve_ialm",
    "relative_residual",
    "sparsity_ratio",
    "default_lambda_grid",
    "lambda_sweep",
]

INIT_STRATEGIES = ("truncated-svd", "random-orthonormal")

RANK_REL_TOL = 1e-6  # singular values below this fraction of the largest count as zero

# ceiling on the penalty weight: unbounded geometric growth would overflow
# after a few hundred iterations
RHO_CAP = 1e10

# partial singular-value thresholding of solve_ialm (Lin, Chen & Ma 2010)
SVT_START_RANK = 10  # predicted rank of the first iteration
SVT_RANK_GROWTH = 0.05  # share of min(d, n) added to the rank when every value is kept
# From this share of min(d, n) on, a range-finder width takes the full thin SVD
# instead: with 4 power steps the partial step measured faster than the full
# SVD up to 0.15 at 400x400, 800x800, 1000x400 and 400x1000, and slower at
# 0.25 except at 800x800 (parity).
SVT_FULL_SHARE = 0.15

ORTHO_TOL = 1e-8  # Frobenius-norm bound on a.T @ a - I for an orthonormal factor


def _orthonormal(a):
    """Whether the columns of ``a`` are orthonormal to within ``ORTHO_TOL``."""
    return np.linalg.norm(a.T @ a - np.eye(a.shape[1])) <= ORTHO_TOL


class DivergenceError(RuntimeError):
    """A solver produced a non-finite iterate."""


@dataclass(frozen=True)
class FactoredLowRank:
    """Low-rank part stored as ``u @ c @ v.T``.

    u : (d, k) with orthonormal columns
    c : (k, k) core carrying the whole spectrum of the low-rank part
    v : (n, k) with orthonormal columns

    Treat the arrays as read-only; the dataclass is frozen but ndarrays
    cannot be.
    """

    u: np.ndarray
    c: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name, a in (("u", self.u), ("v", self.v)):
            if not _orthonormal(a):
                raise ValueError("%s does not have orthonormal columns" % name)

    def dense(self):
        """Materialize the (d, n) low-rank matrix."""
        return (self.u @ self.c) @ self.v.T


@dataclass(frozen=True)
class SolverConfig:
    """Tunables shared by all solvers.

    k        : factor width; upper bound on the recovered rank
    lam      : balance weight. Required by solve_uffp (0 is allowed and
               degenerates to solve_fffp); solve_ialm defaults a missing
               value to 1/sqrt(max(d, n)); solve_fffp ignores it.
    rho0     : initial penalty weight, at most ``RHO_CAP``
    kappa    : geometric penalty growth per iteration, must exceed 1
    tol      : relative-residual stopping threshold, in (0, 1)
    max_iter : iteration cap
    init     : "truncated-svd" or "random-orthonormal"
    seed     : seed of the Gaussian draws behind either initialization
               (the randomized truncated SVD's test matrix, or the
               random-orthonormal factors)
    """

    k: int
    lam: float | None = None
    rho0: float = 1e-4
    kappa: float = 1.5
    tol: float = 1e-3
    max_iter: int = 200
    init: str = "truncated-svd"
    seed: int = 0

    def validate(self, d, n):
        if not 1 <= self.k <= min(d, n):
            raise ValueError("k must satisfy 1 <= k <= min(d, n) = %d, got %r" % (min(d, n), self.k))
        if self.lam is not None and self.lam < 0:
            raise ValueError("lam must be nonnegative, got %r" % self.lam)
        if not 0 < self.rho0 <= RHO_CAP:
            raise ValueError("rho0 must lie in (0, RHO_CAP = %g], got %r" % (RHO_CAP, self.rho0))
        if self.kappa <= 1:
            raise ValueError("kappa must exceed 1, got %r" % self.kappa)
        if not 0 < self.tol < 1:
            raise ValueError("tol must lie in (0, 1), got %r" % self.tol)
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive, got %r" % self.max_iter)
        if self.init not in INIT_STRATEGIES:
            raise ValueError("init must be one of %r, got %r" % (INIT_STRATEGIES, self.init))


@dataclass
class SolveReport:
    """Terminal and per-iteration statistics for one solve.

    svd_count is the raw number of thin-SVD invocations inside the
    iteration loop (the factor-orthogonalization and core updates for the
    factored solvers, the singular-value thresholding for the baseline);
    initialization is not counted.  A widened retry of the baseline's
    partial thresholding counts as a further SVD, so its svd_count can
    exceed its iteration count.  sparse_l1 is the l1 norm of the final s.
    """

    iterations: int
    svd_count: int
    per_iter_residual: list[float]
    final_rank: int
    sparsity_ratio: float
    sparse_l1: float
    final_residual: float
    wall_time: float
    final_objective: float
    converged: bool


class IterationState(NamedTuple):
    """End-of-iteration snapshot passed to ``on_iteration`` callbacks.

    Arrays are the solver's live buffers: copy anything you keep.  ``s``
    and ``theta`` are overwritten in place on the next iteration.  ``rho``
    is the value after the end-of-iteration growth step.
    """

    t: int
    s: np.ndarray
    u: np.ndarray
    c: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    rho: float
    residual: float


class SweepEntry(NamedTuple):
    """One lambda_sweep run: the weight tried and everything it produced."""

    lam: float
    factors: FactoredLowRank
    s: np.ndarray
    report: SolveReport


def _orthonormalize(a):
    """Orthonormal basis for the columns of ``a``, sign-fixed for reproducibility."""
    q, r = np.linalg.qr(a)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs


def _spectrum_rank(sigma):
    """Number of entries of the nonincreasing spectrum ``sigma`` above
    ``RANK_REL_TOL`` times its first; an empty or zero spectrum has rank 0."""
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int((sigma > RANK_REL_TOL * sigma[0]).sum())


def init_factors(x, k, strategy="truncated-svd", seed=0):
    """Build starting factors (u, c, v) for the factored solvers.

    "truncated-svd" is a seeded randomized truncated SVD: a randomized
    range finder (Halko, Martinsson & Tropp 2011) draws a Gaussian test
    matrix with ``k + RANGE_OVERSAMPLE`` columns (at most ``min(d, n)``),
    runs ``RANGE_POWER_STEPS`` power steps re-orthonormalized by QR, and
    takes the top-k singular triplets of ``x`` projected onto that basis.
    The singular values go on the diagonal of ``c``, and the columns
    follow the sign convention of :func:`thin_svd`.  The cost is
    O(d * n * k); no (d, n) matrix is factorized.  "random-orthonormal"
    draws seeded Gaussian matrices, orthonormalizes them, and sets
    ``c = u.T @ x @ v``.  Both are deterministic for fixed inputs and seed.
    """
    x = _as_matrix(x, "x")
    d, n = x.shape
    if not 1 <= k <= min(d, n):
        raise ValueError("k must satisfy 1 <= k <= min(d, n) = %d, got %r" % (min(d, n), k))
    rng = np.random.default_rng(seed)
    if strategy == "truncated-svd":
        q = _range_basis(x, min(k + RANGE_OVERSAMPLE, d, n), rng)
        f = thin_svd(q.T @ x)
        u, v = _fix_signs(q @ f.u[:, :k], f.v[:, :k])
        c = np.diag(f.s[:k])
    elif strategy == "random-orthonormal":
        u = _orthonormalize(rng.standard_normal((d, k)))
        v = _orthonormalize(rng.standard_normal((n, k)))
        c = (u.T @ x) @ v
    else:
        raise ValueError("init must be one of %r, got %r" % (INIT_STRATEGIES, strategy))
    return FactoredLowRank(u, c, v)


def sparsity_ratio(s):
    """Fraction of nonzero entries of ``s``; the solvers produce exact zeros."""
    return float(np.count_nonzero(s)) / np.size(s)


def relative_residual(x, l, s):
    """Feasibility gap ``||x - l - s||_F / ||x||_F``."""
    x = np.asarray(x, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if x.shape != l.shape or x.shape != s.shape:
        raise ValueError("shape mismatch: x %r, l %r, s %r" % (x.shape, l.shape, s.shape))
    norm_x = np.linalg.norm(x)
    if norm_x == 0.0:
        raise ValueError("x is the zero matrix; the relative residual is undefined")
    return float(np.linalg.norm(x - l - s) / norm_x)


def _alm(x, cfg, t_start, low_rank, step, summary, after=None):
    """The inexact augmented-Lagrangian loop behind all three solvers.

    ``step(theta, rho, s, work)`` updates ``low_rank`` and ``s`` in place,
    may overwrite the scratch ``work``, and returns its thin-SVD count.
    The driver then adds ``rho * (x - low_rank - s)`` to ``theta``, grows
    rho, calls ``after(t, s, theta, rho, residual)`` if given, and stops at
    ``cfg.tol`` or ``cfg.max_iter``.  ``summary(s, sparse_l1)`` gives the
    final rank and objective from the l1 norm of ``s`` measured here; wall
    time counts from ``t_start``.  Returns ``(s, report)``.  Raises
    ValueError if ``||x||_F`` is 0 or underflows to 0 (no relative residual).
    """
    norm_x = np.linalg.norm(x)
    if norm_x == 0.0:
        raise ValueError("x has zero Frobenius norm (the zero matrix, or entries so small "
                         "that the norm underflows); the relative residual is undefined")
    theta = np.zeros_like(x)
    s = np.zeros_like(x)
    work = np.empty_like(x)
    rho = float(cfg.rho0)
    residuals = []
    svd_count = 0

    for t in range(1, cfg.max_iter + 1):
        try:
            svd_count += step(theta, rho, s, work)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise DivergenceError("non-finite iterate at iteration %d" % t) from exc
        # r = x - low_rank - s, then theta += rho * r, both in the scratch buffer
        r = np.subtract(x, low_rank, out=work)
        r -= s
        res_norm = np.linalg.norm(r)
        r *= rho
        theta += r
        residual = float(res_norm / norm_x)
        if not math.isfinite(residual):
            raise DivergenceError("non-finite iterate at iteration %d" % t)
        residuals.append(residual)
        rho = min(rho * cfg.kappa, RHO_CAP)
        if after is not None:
            after(t, s, theta, rho, residual)
        if residual <= cfg.tol:
            break

    sparse_l1 = float(np.abs(s, out=work).sum())
    final_rank, objective = summary(s, sparse_l1)
    return s, SolveReport(
        iterations=t,
        svd_count=svd_count,
        per_iter_residual=residuals,
        final_rank=final_rank,
        sparsity_ratio=sparsity_ratio(s),
        sparse_l1=sparse_l1,
        final_residual=residuals[-1],
        wall_time=time.perf_counter() - t_start,
        final_objective=objective,
        converged=residual <= cfg.tol,
    )


def _solve_factored(x, cfg, lam_ld, on_iteration=None, init=None):
    """Run the factored step in :func:`_alm` with surrogate weight
    ``lam_ld`` (0 for solve_fffp).  ``init``, if given, is the caller's
    ``init_factors(x, cfg.k, cfg.init, cfg.seed)``; it is only read.
    """
    x = _as_matrix(x, "x")
    d, n = x.shape
    cfg.validate(d, n)
    t_start = time.perf_counter()

    factors = init_factors(x, cfg.k, cfg.init, cfg.seed) if init is None else init
    u, c, v = factors.u, factors.c, factors.v
    low_rank = (u @ c) @ v.T

    def step(theta, rho, s, work):
        nonlocal u, c, v
        # work = x + theta/rho, shared by the misfit and m
        np.divide(theta, rho, out=work)
        work += x
        # the misfit overwrites low_rank, which is rebuilt below
        np.subtract(work, low_rank, out=low_rank)
        soft_threshold(low_rank, 1.0 / rho, out=s)
        m = np.subtract(work, s, out=work)
        v = polar_orthogonal(m.T @ (u @ c))
        u = polar_orthogonal(m @ (v @ c.T))
        c = (u.T @ m) @ v
        tau = lam_ld / rho
        if tau > 0.0:
            c = ld_shrink(c, tau)
        np.matmul(u @ c, v.T, out=low_rank)
        return 3 if tau > 0.0 else 2

    def after(t, s, theta, rho, residual):
        if not (_orthonormal(u) and _orthonormal(v)):
            raise DivergenceError("factors lost orthonormality at iteration %d" % t)
        if on_iteration is not None:
            on_iteration(IterationState(t, s, u, c, v, theta, rho, residual))

    def summary(s, sparse_l1):
        objective = sparse_l1 + lam_ld * log_det_surrogate(c)
        return _spectrum_rank(np.linalg.svd(c, compute_uv=False)), objective

    s, report = _alm(x, cfg, t_start, low_rank, step, summary, after)
    return FactoredLowRank(u, c, v), s, report


def solve_fffp(x, cfg, on_iteration=None):
    """Fixed-rank factored decomposition of ``x`` into ``u @ c @ v.T + s``.

    Per iteration: the sparse part is refreshed by elementwise
    soft-thresholding of the current misfit at 1/rho, the side factors by
    orthogonal-Procrustes (polar) updates, and the core by projection
    ``c = u.T @ (x - s + theta/rho) @ v``; the multiplier then absorbs the
    residual and rho grows by kappa (capped at ``RHO_CAP``).  Stops when the
    relative residual reaches ``cfg.tol`` or after ``cfg.max_iter`` iterations.

    Returns ``(factors, s, report)``.
    """
    return _solve_factored(x, cfg, 0.0, on_iteration)


def solve_uffp(x, cfg, on_iteration=None, *, _init=None):
    """Rank-discovering variant of :func:`solve_fffp`.

    Identical loop except the core update is shrunk by :func:`ld_shrink`
    at threshold ``cfg.lam / rho``, so superfluous directions inside the
    width-k factorization are driven to exactly zero.  ``cfg.lam`` must be
    set; ``lam = 0`` reproduces solve_fffp bit for bit.  ``_init`` is
    private: :func:`lambda_sweep` passes the starting factors it shares
    across its grid.

    Returns ``(factors, s, report)``.
    """
    if cfg.lam is None:
        raise ValueError("solve_uffp requires cfg.lam (0 is allowed)")
    return _solve_factored(x, cfg, float(cfg.lam), on_iteration, _init)


def _svt_step(m, tau, rank, start, rng, out):
    """Singular-value thresholding of ``m`` at ``tau``, written into ``out``.

    Only the top singular triplets are computed.  ``rank`` is the
    predicted number of singular values above tau, and ``start`` holds the
    right singular vectors the previous step kept (or None).  A randomized
    range finder of width ``rank + RANGE_OVERSAMPLE``, started from
    ``start`` and padded with Gaussian columns from ``rng``, yields the
    Ritz triplets.  If every Ritz value exceeds tau, some value above tau
    may lie outside the basis, so the rank grows and the step is redone.
    A width of at least ``SVT_FULL_SHARE * min(d, n)`` takes the full thin
    SVD instead, which is exact and, at that width, no slower.

    Returns ``(shrunk, v, rank, svds)``: the kept singular values minus
    tau (nonincreasing), their right singular vectors, the predicted rank
    of the next step (Lin, Chen & Ma's rule) and the number of thin SVDs
    computed.
    """
    full = min(m.shape)
    growth = max(1, round(SVT_RANK_GROWTH * full))
    svds = 0
    while True:
        width = min(rank + RANGE_OVERSAMPLE, full)
        svds += 1
        if width >= SVT_FULL_SHARE * full:
            f = thin_svd(m)
            kept = int((f.s > tau).sum())
            u = f.u[:, :kept]
            break
        q = _range_basis(m, width, rng, start)
        f = thin_svd(q.T @ m)
        kept = int((f.s > tau).sum())
        if kept < width:
            u = q @ f.u[:, :kept]
            break
        rank = kept + growth
    shrunk = f.s[:kept] - tau
    v = f.v[:, :kept]
    np.matmul(u * shrunk, v.T, out=out)
    return shrunk, v, kept + 1 if kept < rank else kept + growth, svds


def solve_ialm(x, cfg):
    """Convex baseline: nuclear norm plus ``lam`` times the l1 norm.

    Alternates ``l = svt(x - s + theta/rho, 1/rho)`` with
    ``s = soft_threshold(x - l + theta/rho, lam/rho)`` in the ALM driver
    shared with the factored solvers (same multiplier and penalty).  ``cfg.lam``
    defaults to 1/sqrt(max(d, n)).  As in Lin, Chen & Ma's inexact ALM,
    the singular-value step computes only a partial SVD: the number of
    singular values above the threshold is predicted from the previous
    iteration (starting at ``SVT_START_RANK``), a seeded randomized range
    finder warm-started from the previous right singular vectors finds
    the top triplets, and the step is redone wider when every computed
    value survives the threshold.  Once the predicted width reaches
    ``SVT_FULL_SHARE`` times min(d, n) the full thin SVD is used instead,
    so small inputs and high-rank iterates take the exact path.  ``cfg.seed``
    seeds the Gaussian columns; the solve is deterministic.

    Returns ``(l, s, report)``.
    """
    x = _as_matrix(x, "x")
    d, n = x.shape
    cfg.validate(d, n)
    t_start = time.perf_counter()

    lam = float(cfg.lam) if cfg.lam is not None else 1.0 / math.sqrt(max(d, n))
    l = np.empty_like(x)
    shift = np.empty_like(x)
    rng = np.random.default_rng(cfg.seed)
    rank, v_kept, shrunk = SVT_START_RANK, None, None

    def step(theta, rho, s, work):
        nonlocal rank, v_kept, shrunk
        # shift = theta/rho, shared by both subproblems
        np.divide(theta, rho, out=shift)
        m = np.subtract(x, s, out=work)
        m += shift
        shrunk, v_kept, rank, svds = _svt_step(m, 1.0 / rho, rank, v_kept, rng, l)
        np.subtract(x, l, out=work)
        work += shift
        soft_threshold(work, lam / rho, out=s)
        return svds

    def summary(s, sparse_l1):
        return _spectrum_rank(shrunk), float(shrunk.sum() + lam * sparse_l1)

    s, report = _alm(x, cfg, t_start, l, step, summary)
    return l, s, report


# ascending, so the grid is too: lambda_sweep's entries keep this order
_GRID_EXPONENTS = (
    -3.0, -2.75, -2.5, -2.25, -2.0, -1.75, -1.5, -1.25, -1.0, -0.75, -0.5, 0.0, 1.0,
)


def default_lambda_grid(x):
    """Candidate grid for the rank-surrogate weight, anchored at the spectral norm.

    The useful weight tracks the data's dominant singular value: well
    below it the shrinkage never removes a direction, an order of
    magnitude above it the core collapses entirely and the sparse part
    swallows ``x``.  The transition between "keeps every direction" and
    "keeps only the real ones" can span less than half a decade, so the
    grid steps in quarter decades through the region where that window
    sits in practice and coarsens toward the collapse end.  Anchoring at
    the spectral norm keeps the grid scale-free: the same exponents work
    for unit-scale synthetic data and 0..255 pixel stacks alike.
    """
    x = _as_matrix(x, "x")
    top = float(np.linalg.norm(x, 2))
    if top == 0.0:
        raise ValueError("x is the zero matrix; no sensible grid exists")
    return top * 10.0 ** np.array(_GRID_EXPONENTS)


def lambda_sweep(x, cfg):
    """Run :func:`solve_uffp` over a grid of weights and pick one run.

    Returns ``(entries, selected)`` where ``entries`` is one
    :class:`SweepEntry` per value of :func:`default_lambda_grid` (ascending)
    and ``selected`` indexes the preferred entry.

    Selection has to reject two failure modes that both pass the residual
    test: full collapse (the core shrinks to rank zero and the sparse part
    swallows ``x``) and partial collapse (a real direction is lost and its
    mass dumped into the sparse part).  Healthy runs across a sweep agree
    closely on the sparse part they extract; collapsed runs inflate its l1
    mass and its nonzero fraction well beyond that consensus.  The rule:
    among converged runs with nonzero rank, keep those whose sparse-part
    l1 mass is within 1.5x the sweep median and whose nonzero fraction is
    within twice the median plus a small slack; of the kept runs, find the
    lowest rank reached and take the smallest weight that reaches it.
    That lowest clean rank is where the superfluous directions are gone,
    and its smallest weight is the least-biased run on that plateau
    (shrinkage bias on the surviving directions grows with the weight).
    If every run failed, the smallest final residual wins.

    The grid is solved in order, every run from the same factors, built
    once (the init is seeded, so this matches building it per run bit for bit).
    """
    x = _as_matrix(x, "x")
    grid = default_lambda_grid(x)
    init = init_factors(x, cfg.k, cfg.init, cfg.seed)
    entries = []
    for lam in grid:
        factors, s, report = solve_uffp(x, replace(cfg, lam=float(lam)), _init=init)
        entries.append(SweepEntry(float(lam), factors, s, report))

    candidates = [
        i for i, e in enumerate(entries) if e.report.converged and e.report.final_rank > 0
    ]
    selected = None
    if candidates:
        mass = {i: entries[i].report.sparse_l1 for i in candidates}
        density = {i: entries[i].report.sparsity_ratio for i in candidates}
        mass_gate = 1.5 * float(np.median(list(mass.values())))
        density_gate = 2.0 * float(np.median(list(density.values()))) + 0.02
        clean = [i for i in candidates if mass[i] <= mass_gate and density[i] <= density_gate]
        if clean:
            lowest = min(entries[i].report.final_rank for i in clean)
            selected = min(i for i in clean if entries[i].report.final_rank == lowest)
    if selected is None:
        selected = min(range(len(entries)), key=lambda i: entries[i].report.final_residual)
    return entries, selected
