"""Low-rank plus sparse decomposition solvers.

Three augmented-Lagrangian solvers run in one driver, ``_alm``, which owns
the multiplier, the penalty schedule, every pass over the (d, n) buffers,
the stop test and the report; each solver supplies only its low-rank step:

* ``solve_fffp`` -- factored model ``x = u @ c @ v.T + s`` with the rank
  fixed by the factor width ``k``; minimizes the l1 norm of ``s``.
* ``solve_uffp`` -- same factored model with ``k`` only an upper bound;
  adds ``lam`` times the log-det rank surrogate of the core ``c`` so the
  recovered rank can drop below ``k``.
* ``solve_ialm`` -- convex baseline (nuclear norm plus weighted l1),
  alternating singular-value and elementwise soft-thresholding.

All solves are deterministic: identical inputs give bit-identical outputs.
A single solve is sequential; distinct solves may run concurrently.  Besides
``x``, solve_fffp and solve_uffp hold three (d, n) buffers (the sparse
part, double-buffered, and one workspace) and solve_ialm two, and each
derives the multiplier from them.  Every iteration makes one row-block pass
over them; the low-rank part is kept as factors, formed a row block at a
time.  ``x`` is read in C order, so a Fortran-ordered or strided input is
copied once.

solve_fffp and solve_uffp solve in the data's precision: for float32 ``x``
the buffers, the block scratch and every product with them are float32,
which halves the bytes each pass moves; for float64 ``x`` they are
float64.  Any other dtype converts to float64, as does float32 input to
solve_ialm and lambda_sweep.  The factors, the core and every small
factorization stay float64.  A C-ordered input of the solve's precision
is not copied.  Float32 buffers sum squares in float32, so float32 data
needs ``||x||_F`` below about 1e19 (a DivergenceError otherwise) and
entries not all below about 1e-22 in magnitude (a ValueError for a norm
that underflows); convert data outside that range to float64.
"""

import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .linalg import (
    RANGE_OVERSAMPLE,
    ThinSvd,
    _as_matrix,
    _fix_signs,
    _product,
    _range_basis,
    _svd,
    ld_shrink,
    polar_orthogonal,
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

RANK_REL_TOL = 1e-6  # singular values below this fraction of the largest count as zero

# ceiling on the penalty weight: unbounded geometric growth would overflow
# after a few hundred iterations
RHO_CAP = 1e10
KAPPA = 1.5  # geometric penalty growth per iteration

# partial singular-value thresholding of solve_ialm (Lin, Chen & Ma 2010)
SVT_START_RANK = 10  # predicted rank of the first iteration
SVT_RANK_GROWTH = 0.05  # share of min(d, n) added to the rank when every value is kept
# From this share of min(d, n) on, a range-finder width takes the full thin SVD
# instead.  Medians of 7-15 calls on a 2-core x86-64 (OpenBLAS), partial step
# with WARM_POWER_STEPS against the full SVD, in ms:
#   share      0.10  0.15  0.20  0.25  0.30 | full SVD
#   400x400     8.1  16.3  26.3  41.0  54.1 |  40.1
#   800x800    54.8   105   147   143   185 |   259
#   1000x400   14.9  26.5  39.8  64.3  81.2 |  87.1
#   400x1000   14.4  32.1  47.4  69.0  86.9 |  97.1
# So a warm step is faster up to 0.20 and at parity at 400x400 from 0.25 (a
# cold step, 4 power steps, takes about 1.6x as long); a widened retry costs
# a second step.  The share stays at its 4-step crossover for now.
SVT_FULL_SHARE = 0.15

ORTHO_TOL = 1e-8  # Frobenius-norm bound on a.T @ a - I for an orthonormal factor

# Entries per row block of _alm's passes; a block holds ROW_BLOCK_ENTRIES // n
# rows, and at least two (see _alm).  Per solve_fffp at 2000x2000, k=5 (medians of
# 5 alternating runs, 2-core x86-64, OpenBLAS): 2**14, 2**16 and 2**18 entries
# took 0.87, 0.88 and 0.88 s, one whole-matrix block 1.07 s; 2**16 is 32 rows,
# 512 KB per block.
ROW_BLOCK_ENTRIES = 2**16


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
    """Tunables shared by all solvers.  ``lam``, ``tol`` and ``max_iter`` are
    checked when the config is made (ValueError); ``k`` needs the data's shape.

    k        : factor width; upper bound on the recovered rank.  Only the
               factored solvers read it, through :func:`init_factors`, which
               checks ``1 <= k <= min(d, n)``; solve_ialm has no rank
               parameter and ignores it, so it may be None there.
    lam      : finite balance weight. Required by solve_uffp (0 is allowed
               and degenerates to solve_fffp); solve_ialm defaults a
               missing value to 1/sqrt(max(d, n)); solve_fffp ignores it.
    tol      : relative-residual stopping threshold, in (0, 1).  For float32
               data (see the module docstring) keep it at or above about
               1e-6: the residual of float32 buffers stalls near 1e-7, so a
               smaller tol runs to max_iter and reports converged=False.
    max_iter : iteration cap
    seed     : seed of the Gaussian draws: the test matrix of the factored
               solvers' randomized truncated-SVD start (:func:`init_factors`)
               and the range finder of solve_ialm's singular-value step

    The penalty schedule is fixed: it starts at ``1/max|x|`` for the factored
    solvers (the first sparse threshold 1/rho reaches the largest entry) and
    at Lin, Chen & Ma's ``1.25/sigma_1(x)`` for solve_ialm, with sigma_1 from
    the factorization of ``x`` that its first singular-value step thresholds,
    and grows by ``KAPPA`` per iteration, always capped at ``RHO_CAP``.  Every
    solve starts at ``s = 0`` and ``theta = 0``.  For the factored solvers
    that is what a first sparse step at the start's threshold ``max|x|``
    would give on ``x`` minus the starting low-rank part, except where that
    difference exceeds ``max|x|``, which is rare (19 of 400 seeded 5 x 6
    Gaussian inputs at k = 1).
    """

    k: int | None
    lam: float | None = None
    tol: float = 1e-3
    max_iter: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.lam is not None and not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and nonnegative, got %r" % self.lam)
        if not 0 < self.tol < 1:
            raise ValueError("tol must lie in (0, 1), got %r" % self.tol)
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive, got %r" % self.max_iter)


@dataclass
class SolveReport:
    """Terminal and per-iteration statistics for one solve.

    svd_count is the raw number of thin-SVD invocations of the iteration
    steps (the factor-orthogonalization and core updates for the factored
    solvers, the singular-value thresholding for the baseline).  The
    factored solvers' initial factors are not counted.  The baseline takes
    no SVD outside its steps: its sigma_1 comes from the first step's
    factorization, computed before the loop and counted once, as step 1's.
    A widened retry of the baseline's partial thresholding counts as a
    further SVD, so its svd_count can exceed its iteration count.  rho0 is
    the penalty weight of the first iteration, the solver's data-scaled
    start (see :class:`SolverConfig`).
    per_iter_residual holds ``||x - L - s||_F / ||x||_F`` after each
    iteration, with the squares summed over the driver's row blocks, so it
    can differ from :func:`relative_residual` in the last bits;
    final_residual is its last entry.  Float32 buffers sum each block's
    squares in float32 (the blocks' sums add up in float64), so there the
    two agree only to about 1e-5 relative.  sparse_l1 is the l1 norm of the
    final s, summed in float64.
    """

    iterations: int
    svd_count: int
    rho0: float
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

    ``s`` is the sparse part that the residual of ``u @ c @ v.T`` was
    measured with; at ``t = 1`` it is the zero start.  It is one of the
    solver's two live sparse buffers: the same pass has already written the
    next iteration's sparse part into the other, and the next pass
    overwrites this one, so copy it if you keep it.
    ``theta``, ``u``, ``c`` and ``v`` are fresh arrays; the low-rank part
    ``u @ c @ v.T`` is never held whole.  ``rho`` is the value after the
    end-of-iteration growth step, and ``theta`` is the multiplier for it,
    formed on demand as ``rho * (m - x + s_next)`` from the solver's
    workspace ``m`` and that next sparse part ``s_next``.  ``s`` and
    ``theta`` have the dtype of the solver's buffers (float32 for float32
    data); ``u``, ``c`` and ``v`` are float64.
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
    """One lambda_sweep run: the weight tried and everything it produced.

    The fields are ``(lam, factors, sparse, report)``.  ``sparse`` holds the
    run's sparse part as stored: the dense (d, n) array, or, when fewer
    than half its entries are nonzero (``report.sparsity_ratio < 0.5``), the
    pair ``(index, values)`` of its C-order flat indices (int64) and nonzero
    values, at 16 bytes per nonzero instead of 8 per entry.  The property
    ``s`` gives the dense (d, n) array either way, with every bit of the
    solve's: the stored array of a dense entry, and a fresh array, built
    on each access, of a compact one.  So read ``s`` once and keep it.
    """

    lam: float
    factors: FactoredLowRank
    sparse: np.ndarray | tuple[np.ndarray, np.ndarray]
    report: SolveReport

    @property
    def s(self):
        if isinstance(self.sparse, np.ndarray):
            return self.sparse
        index, values = self.sparse
        # the solve writes its zeros as +0.0, so this is the same array bit for bit
        s = np.zeros((self.factors.u.shape[0], self.factors.v.shape[0]), values.dtype)
        s.put(index, values)
        return s


def _spectrum_rank(sigma):
    """Number of entries of the nonincreasing spectrum ``sigma`` above
    ``RANK_REL_TOL`` times its first; an empty or zero spectrum has rank 0."""
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int((sigma > RANK_REL_TOL * sigma[0]).sum())


def init_factors(x, k, seed=0):
    """Starting factors (u, c, v) of the factored solvers: a seeded
    randomized truncated SVD of ``x``.

    A randomized range finder (Halko, Martinsson & Tropp 2011) draws a
    Gaussian test matrix with ``k + RANGE_OVERSAMPLE`` columns (at most
    ``min(d, n)``) from ``seed``, runs ``RANGE_POWER_STEPS`` power steps
    re-orthonormalized by QR, and takes the top-k singular triplets of
    ``x`` projected onto that basis.  The singular values go on the
    diagonal of ``c``.  The small SVD is taken bare, and the sign convention
    of :func:`thin_svd` is applied once, to the lifted columns of ``u`` and
    their paired ``v``.  The cost is O(d * n * k); no (d, n) matrix is
    factorized.  Deterministic for fixed inputs and seed.  A float32 ``x``
    is not upcast: its products run in float32, and the factors are
    float64 either way.  Raises ValueError unless ``1 <= k <= min(d, n)``
    (a None ``k`` included); no solver checks ``k`` anywhere else.
    """
    x = _as_matrix(x, "x", keep_float32=True)
    d, n = x.shape
    if k is None or not 1 <= k <= min(d, n):
        raise ValueError("k must satisfy 1 <= k <= min(d, n) = %d, got %r" % (min(d, n), k))
    rng = np.random.default_rng(seed)
    q = _range_basis(x, min(k + RANGE_OVERSAMPLE, d, n), rng)
    f = _svd(_product(q.T, x))
    u, v = _fix_signs(q @ f.u[:, :k], f.v[:, :k])
    return FactoredLowRank(u, np.diag(f.s[:k]), v)


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


def _as_rows(x, keep_float32=False):
    """The entry gate of every solve: ``(x, norm_x)``, with ``x`` as a C-ordered
    matrix with finite entries, so that its row blocks are contiguous (no copy
    for C-ordered input, one copy otherwise), and ``norm_x`` its Frobenius
    norm.  The matrix is float64, or float32 for float32 ``x`` with
    ``keep_float32``.  Raises ValueError if ``norm_x`` is 0 or underflows to
    0: no relative residual exists, so no solve starts and nothing is drawn.
    """
    x = np.ascontiguousarray(_as_matrix(x, "x", keep_float32))
    norm_x = np.linalg.norm(x)
    if norm_x == 0.0:
        raise ValueError("x has zero Frobenius norm (the zero matrix, or entries so small "
                         "that the norm underflows); the relative residual is undefined")
    return x, norm_x


def _alm(x, norm_x, cfg, weight, rho0, t_start, step, summary, on_iteration=None,
         factored=False):
    """The inexact augmented-Lagrangian loop behind all three solvers.

    ``x`` and its Frobenius norm ``norm_x`` come from :func:`_as_rows`, so
    ``x`` is C-ordered and ``norm_x`` is positive.  The loop keeps the
    sparse part ``s`` and the workspace ``m`` as (d, n) buffers of the dtype
    of ``x`` (float32 or float64) and makes every pass over them: one per
    iteration, in contiguous row blocks of about ``ROW_BLOCK_ENTRIES``
    entries.  Between
    iterations ``m = x + theta/rho - s'``, where ``s'`` is the sparse part
    the next step reads, so the multiplier ``theta = rho * (m - x + s')`` is
    never stored.  The low-rank part travels as ``u @ c @ v.T``, with
    orthonormal ``u`` and ``v`` and a small core ``c``, and is formed once per
    block and iteration in a scratch as ``L = (u @ c) @ v.T``; ``u @ c`` and
    ``v`` are cast to the buffers' dtype once per iteration, so no block
    product upcasts.  The penalty starts at ``min(rho0, RHO_CAP)``,
    where ``rho0`` is the solver's data-scaled start.  Every solve starts at
    ``s = 0`` and ``theta = 0``, so ``m`` starts as a copy of ``x`` and no
    pass runs before iteration 1.

    ``weight`` is the weight of the l1 term, a constant of the solve.
    ``step(m, rho)`` reads but does not write ``m`` and returns the new
    iterate ``(u, c, v, svds)``: the low-rank part ``u @ c @ v.T`` and the
    step's thin-SVD count.  The factored solvers' core is a full k x k
    matrix; solve_ialm's is ``diag(sigma - tau)`` of its kept singular values.
    The pass then runs the sparse step ``s = soft_threshold(x + theta/rho -
    L, weight/rho)`` and the residual and multiplier step (sum ``||x - L -
    s||^2``; ``theta += rho * (x - L - s)``; rho grows to ``rho_next``)
    block by block, in one of two orders.  Both write the sparse step
    through one helper, ``shrink``, as ``g - c`` with the clip ``c =
    clip(g, -tau, tau)``, and build ``m`` from ``c``:

    * ``factored`` (the factored solvers): the residual of this iteration,
      then the next iteration's sparse step at ``weight/rho_next`` into a
      second buffer, so ``s`` is double-buffered and a stop still returns
      the ``s`` that matches ``L``.  Per block, ``a = x - L``, ``r = a - s``,
      ``g = a + (rho/rho_next) * (m - L)`` (``x + theta/rho_next - L``),
      ``s' = g - c`` and ``m = L + c``.
    * not ``factored`` (solve_ialm): the sparse step of this iteration at
      ``weight/rho``, then the residual.  Per block, ``g = (m + s) - L``
      (``x + theta/rho - L``), ``s = g - c``, ``r = (x - L) - s`` and ``m =
      (x - s) + (rho/rho_next) * c``: the updated multiplier's ``theta/rho``
      is ``g - s``, which is the clip.  ``s`` is one buffer.

    After each pass, for every solver: a non-finite residual raises
    DivergenceError; so do ``u`` or ``v`` that lost orthonormality (beyond
    ``ORTHO_TOL``); then ``on_iteration``, if given, receives the
    :class:`IterationState`, whose ``theta`` is formed from ``m`` and the
    sparse buffer the next step reads (``s`` itself for solve_ialm).  The
    loop stops at ``cfg.tol`` or ``cfg.max_iter``.  ``summary(c,
    sparse_l1)`` gives the final rank and objective from the last core; wall
    time counts from ``t_start``.  Returns ``(FactoredLowRank(u, c, v), s,
    report)`` for the last iterate.
    """
    d, n = x.shape
    dt = x.dtype
    # numpy multiplies a single row by gemv, which rounds differently from the
    # gemm of more rows, so no block has one row unless x has
    rows = max(2, ROW_BLOCK_ENTRIES // n)
    starts = list(range(0, d, rows))
    if len(starts) > 1 and starts[-1] == d - 1:
        starts.pop()  # a one-row remainder joins the block above
    blocks = [slice(i, j) for i, j in zip(starts, starts[1:] + [d])]
    l_buf, a_buf = np.empty((2, min(rows + 1, d), n), dt)  # per-block scratch
    rho0 = min(float(rho0), RHO_CAP)
    rho = rho0
    residuals = []
    svd_count = 0

    def shrink(b, g, tau):
        # the sparse step s_next[b] = soft_threshold(g, tau), written as
        # g - clip(g, -tau, tau); returns the clip, held in the block scratch
        clipped = np.clip(g, -tau, tau, out=a_buf[:b.stop - b.start])
        np.subtract(g, clipped, out=s_next[b])
        return clipped

    s_next = np.zeros((d, n), dt)  # iteration 1 reads s = 0
    s = np.empty((d, n), dt) if factored else s_next
    m = x.copy()  # x + theta/rho - s, with theta and s still 0

    for t in range(1, cfg.max_iter + 1):
        s, s_next = s_next, s  # s_next holds the sparse part this step reads
        try:
            u, c, v, svds = step(m, rho)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise DivergenceError("non-finite iterate at iteration %d" % t) from exc
        left, right = (u @ c).astype(dt, copy=False), v.astype(dt, copy=False)
        svd_count += svds
        rho_next = min(rho * KAPPA, RHO_CAP)
        ratio = rho / rho_next
        # the factored pass forms the next iteration's s, solve_ialm's this one's
        tau = weight / (rho_next if factored else rho)
        squares = 0.0
        for b in blocks:
            h = b.stop - b.start
            l_b = np.matmul(left[b], right.T, out=l_buf[:h])
            if factored:
                # r = (x - L) - s, summed in relative_residual's order, so a
                # residual lost to cancellation reads the same in both; r is
                # formed in the block of s_next that the sparse step overwrites
                a = np.subtract(x[b], l_b, out=a_buf[:h])
                r = np.subtract(a, s[b], out=s_next[b])
                squares += float(r.ravel() @ r.ravel())
                g = np.subtract(m[b], l_b, out=m[b])  # theta/rho, theta updated
                g *= ratio
                g += a
                np.add(l_b, shrink(b, g, tau), out=m[b])
            else:
                # g = (x + theta/rho) - L and s = soft(g); then r as above, and
                # m = (x - s) + ratio * (g - s), where g - s is the clip
                g = np.add(m[b], s[b], out=m[b])
                g -= l_b
                clipped = shrink(b, g, tau)
                r = np.subtract(x[b], l_b, out=l_b)
                r -= s[b]
                r = r.ravel()
                squares += float(r @ r)
                clipped *= ratio
                np.add(np.subtract(x[b], s[b], out=m[b]), clipped, out=m[b])
        rho = rho_next
        residual = math.sqrt(squares) / float(norm_x)
        if not math.isfinite(residual):
            raise DivergenceError("non-finite iterate at iteration %d" % t)
        residuals.append(residual)
        if not (_orthonormal(u) and _orthonormal(v)):
            raise DivergenceError("factors lost orthonormality at iteration %d" % t)
        if on_iteration is not None:
            on_iteration(IterationState(t, s, u, c, v, rho * (m - x + s_next), rho, residual))
        if residual <= cfg.tol:
            break

    sparse_l1 = float(np.abs(s, out=m).sum(dtype=np.float64))
    final_rank, objective = summary(c, sparse_l1)
    return FactoredLowRank(u, c, v), s, SolveReport(
        iterations=t,
        svd_count=svd_count,
        rho0=rho0,
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
    ``init_factors(x, cfg.k, cfg.seed)``; it is only read.
    """
    x, norm_x = _as_rows(x, keep_float32=True)
    t_start = time.perf_counter()

    factors = init_factors(x, cfg.k, cfg.seed) if init is None else init
    u, c, v = factors.u, factors.c, factors.v

    def step(m, rho):
        # m = x + theta/rho - s, read by two products in its dtype: (uc.T @ m).T,
        # which is m.T @ uc to the bit and at 2000x2000 about 2 ms instead of
        # 5-16 ms, and m @ v, which serves both the u and the core update
        nonlocal u, c, v
        v = polar_orthogonal(_product((u @ c).T, m).T)
        mv = _product(m, v)
        u = polar_orthogonal(mv @ c.T)
        c = u.T @ mv
        tau = lam_ld / rho
        if tau > 0.0:
            c = ld_shrink(c, tau)
        return u, c, v, 3 if tau > 0.0 else 2

    def summary(c, sparse_l1):
        # one factorization of the core for the rank and log_det_surrogate's sum
        sigma = np.linalg.svd(c, compute_uv=False)
        return _spectrum_rank(sigma), sparse_l1 + lam_ld * float(np.log1p(sigma).sum())

    # 1/max|x|, with max|x| taken without a (d, n) temporary
    rho0 = 1.0 / float(max(x.max(), -x.min()))
    return _alm(x, norm_x, cfg, 1.0, rho0, t_start, step, summary, on_iteration, factored=True)


def solve_fffp(x, cfg, on_iteration=None):
    """Fixed-rank factored decomposition of ``x`` into ``u @ c @ v.T + s``.

    Per iteration: the sparse part is refreshed by elementwise
    soft-thresholding of the current misfit at 1/rho, the side factors by
    orthogonal-Procrustes (polar) updates, and the core by projection
    ``c = u.T @ (x - s + theta/rho) @ v``; the multiplier then absorbs the
    residual and rho grows by ``KAPPA`` (capped at ``RHO_CAP``).  Stops when the
    relative residual reaches ``cfg.tol`` or after ``cfg.max_iter`` iterations.
    Each iteration makes one row-block pass of the driver over the (d, n)
    buffers, which sums the residual and forms the next iteration's sparse
    part and workspace, plus two products with the workspace; the first
    iteration reads ``s = 0``.  A non-C-ordered ``x`` is copied once.

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


def _ritz_triplets(m, rank, start, rng):
    """Singular triplets of ``m`` for :func:`_svt_step`'s ``rank``, as a ThinSvd.

    A range finder of width ``rank + RANGE_OVERSAMPLE`` (at most min(d, n))
    gives the Ritz triplets of ``m``: the exact ones of ``m`` projected onto
    the basis.  It starts from the first ``width`` columns of ``start`` (or
    None) and pads them with Gaussian columns from ``rng``.  A width of at
    least ``SVT_FULL_SHARE * min(d, n)`` takes the full thin SVD instead,
    which is exact, draws nothing and, at that width, is no slower.  Both
    SVDs are bare, with no sign convention.  The callers read the values,
    products of paired columns, and ``v`` as the next range finder's start;
    a sign flip of paired columns cancels in the products and leaves the Q
    of that range finder's Householder QR unchanged, so it would not move a
    bit.
    """
    full = min(m.shape)
    width = min(rank + RANGE_OVERSAMPLE, full)
    if width >= SVT_FULL_SHARE * full:
        return _svd(m)
    q = _range_basis(m, width, rng, None if start is None else start[:, :width])
    f = _svd(q.T @ m)
    return ThinSvd(q @ f.u, f.s, f.v)


def _svt_step(m, tau, rank, start, rng, first=None):
    """Singular-value thresholding of ``m`` at ``tau``, returned as factors.

    Only the top singular triplets are computed.  ``rank`` is the
    predicted number of singular values above tau, and ``start`` is the
    right Ritz basis the previous step returned (or None); the steps thus
    continue one subspace iteration, with ``WARM_POWER_STEPS`` power steps
    each.  :func:`_ritz_triplets` computes the triplets at the width that
    ``rank`` asks for; ``first``, if given, is that result for ``m`` and
    this ``rank``, computed already.  If every Ritz value exceeds tau, some
    value above tau may lie outside the basis, so the rank grows and the
    step is redone, started from the basis it just computed.  The full thin
    SVD, once the width reaches its share, is final.

    Returns ``(u, shrunk, v, basis, rank, svds)``: the left singular
    vectors of the kept values, unscaled, those values minus tau
    (nonincreasing), their right singular vectors, the whole right Ritz
    basis of the last factorization (the full ``v`` of a full SVD) for the
    next step's ``start``, the predicted rank of the next step (Lin, Chen &
    Ma's rule) and the number of thin SVDs computed.  The thresholded matrix
    is ``(u * shrunk) @ v.T``; it is not formed.
    """
    full = min(m.shape)
    growth = max(1, round(SVT_RANK_GROWTH * full))
    svds = 0
    while True:
        f = _ritz_triplets(m, rank, start, rng) if first is None else first
        first = None
        svds += 1
        kept = int((f.s > tau).sum())
        if kept < f.s.size or f.s.size == full:  # a value at or below tau, or the full SVD
            break
        rank, start = kept + growth, f.v
    shrunk = f.s[:kept] - tau
    return (f.u[:, :kept], shrunk, f.v[:, :kept], f.v,
            kept + 1 if kept < rank else kept + growth, svds)


def solve_ialm(x, cfg):
    """Convex baseline: nuclear norm plus ``lam`` times the l1 norm.

    Alternates ``l = svt(x - s + theta/rho, 1/rho)`` with
    ``s = soft_threshold(x - l + theta/rho, lam/rho)`` in the ALM driver
    shared with the factored solvers (same multiplier and penalty schedule;
    the start is Lin, Chen & Ma's 1.25/sigma_1(x)).  ``cfg.lam``
    defaults to 1/sqrt(max(d, n)).  The convex model has no rank
    parameter, so ``cfg.k`` is not read (it may be None), as solve_fffp
    ignores ``cfg.lam``.  As in Lin, Chen & Ma's inexact ALM, the
    singular-value step computes only a partial SVD: the number of
    singular values above the threshold is predicted from the previous
    iteration (starting at ``SVT_START_RANK``), a seeded randomized range
    finder warm-started from the previous step's whole Ritz basis finds the
    top triplets with ``WARM_POWER_STEPS`` power steps, and the step is
    redone wider when every computed value survives the threshold.  Once
    the predicted width reaches ``SVT_FULL_SHARE`` times min(d, n) the full
    thin SVD is used instead, so small inputs and high-rank iterates take
    the exact path.  The first step thresholds ``x`` itself, so its
    factorization, computed before the loop (after :func:`_as_rows` has
    refused a zero-norm ``x``), also gives the start's sigma_1; no other SVD
    of ``x`` is taken.  ``cfg.seed`` seeds the Gaussian columns; the solve
    is deterministic.  Each iteration thresholds the driver's workspace
    ``x - s + theta/rho`` as it stands and makes one row-block pass of the
    driver, which runs the sparse step and then the residual block by block;
    the workspace for the grown rho is formed from the sparse step's clip,
    the updated ``theta/rho``.  The thresholded low-rank part is kept as
    factors in the loop and formed once at the end; a non-C-ordered ``x``
    is copied once.  The solve runs in float64: a float32 ``x`` is
    converted (one (d, n) copy), so its solve is that of
    ``x.astype(np.float64)`` bit for bit.  The partial thresholding's
    accuracy was measured in float64 only.

    Returns ``(l, s, report)``.
    """
    x, norm_x = _as_rows(x)
    t_start = time.perf_counter()

    lam = float(cfg.lam) if cfg.lam is not None else 1.0 / math.sqrt(max(x.shape))
    rng = np.random.default_rng(cfg.seed)
    # the driver's workspace is x itself at iteration 1, so step 1 thresholds
    # this factorization, which also gives Lin, Chen & Ma's 1.25/||x||_2
    first = _ritz_triplets(x, SVT_START_RANK, None, rng)
    rank, basis = SVT_START_RANK, None

    def step(m, rho):
        nonlocal rank, first, basis
        u, shrunk, v, basis, rank, svds = _svt_step(m, 1.0 / rho, rank, basis, rng, first)
        first = None
        return u, np.diag(shrunk), v, svds

    def summary(c, sparse_l1):
        return _spectrum_rank(np.diag(c)), float(np.diag(c).sum() + lam * sparse_l1)

    low_rank, s, report = _alm(x, norm_x, cfg, lam, 1.25 / first.s[0], t_start, step, summary)
    return low_rank.dense(), s, report


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
    sits in practice and coarsens toward the collapse end.  The grid
    scales with the data, but the selection does not: the surrogate
    log(1 + sigma) is not homogeneous, so data of very small scale selects
    toward the top of the grid.

    The anchor sigma_1 is the top Ritz value of :func:`_ritz_triplets` at
    rank 1: a seeded range finder of width ``1 + RANGE_OVERSAMPLE`` (seed
    0), at O(d * n) cost, or the exact thin SVD when ``min(d, n)`` is at most
    73.  So no large (d, n) matrix is factorized.  On ``make_problem(n, n, 5,
    0.05, seed=7)`` the anchor differs from ``||x||_2`` by 1.4e-8 relative at
    n = 74, 3.4e-10 at 200, 2.8e-12 at 400 and 0 at 2000.
    """
    x = _as_matrix(x, "x")
    top = float(_ritz_triplets(x, 1, None, np.random.default_rng(0)).s[0])
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
    After each run the sweep keeps its sparse part compact, as flat indices
    and values, when fewer than half its entries are nonzero, and dense
    otherwise (see :class:`SweepEntry`): the ratio its report holds decides,
    so no extra pass runs.  On sparse corruption the healthy runs are
    compact, so their sparse parts take about as much memory as one copy of
    ``x`` in all rather than one copy each; collapsed runs and dense noise
    stay dense.
    A non-C-ordered ``x`` is copied once for the whole sweep.  The sweep runs
    in float64, also for float32 ``x``: entry ranks below the selection move
    with round-off (a grid scaled by 1 + 1e-12 already moves some), and
    float32's is far larger.
    """
    x, _ = _as_rows(x)
    grid = default_lambda_grid(x)
    init = init_factors(x, cfg.k, cfg.seed)
    entries = []
    for lam in grid:
        factors, s, report = solve_uffp(x, replace(cfg, lam=float(lam)), _init=init)
        if report.sparsity_ratio < 0.5:  # where the pair costs less than the array
            index = np.flatnonzero(s)
            s = index, s.ravel()[index]
        entries.append(SweepEntry(float(lam), factors, s, report))

    reports = [e.report for e in entries]
    candidates = [i for i, r in enumerate(reports) if r.converged and r.final_rank > 0]
    if candidates:
        mass_gate = 1.5 * float(np.median([reports[i].sparse_l1 for i in candidates]))
        density_gate = 2.0 * float(np.median([reports[i].sparsity_ratio for i in candidates]))
        clean = [i for i in candidates if reports[i].sparse_l1 <= mass_gate
                 and reports[i].sparsity_ratio <= density_gate + 0.02]
        if clean:
            lowest = min(reports[i].final_rank for i in clean)
            return entries, min(i for i in clean if reports[i].final_rank == lowest)
    return entries, min(range(len(entries)), key=lambda i: reports[i].final_residual)
