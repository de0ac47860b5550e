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

Every solve runs on the working matrix ``x * 2**-e`` (see ``_as_rows``):
``e`` is 0, and nothing is copied or changed, when max|x| lies in [2**-32,
2**32], and otherwise brings max|x| into [1, 2).  The rescale is exact, and
the outputs are scaled back exactly, so data of any finite scale solves
without its norm or its squares overflowing or underflowing.

The precision rule: solve_fffp, solve_uffp and each solve of lambda_sweep
run in float32 buffers for float32 ``x``, and for any other ``x`` whenever
``cfg.tol >= FLOAT32_TOL``, which the default tol is (``_solve`` applies
the rule): the buffers, the block scratch and every product with them are
then float32, which halves the bytes each pass moves.  Below that tol they
solve in float64.  The residual of float32 buffers stalls near 1e-7, so
float32 data, which always solves in float32, wants a tol of about 1e-6 or
more; a smaller one runs to max_iter and reports converged=False.
solve_ialm always solves in float64: a float32 ``x`` is converted, so its
solve is that of ``x.astype(np.float64)`` bit for bit.  The sparse part is
returned as float32 for float32 ``x`` and as float64 otherwise; the
factors, the core and every small factorization stay float64.
``SolveReport.buffer_dtype`` names the buffers' dtype.  A C-ordered input
of the buffers' dtype inside the band is not copied; any other input is
copied once, with its cast and rescale in the same pass.
"""

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    RANGE_OVERSAMPLE,
    ThinSvd,
    _as_matrix,
    _fix_signs,
    _ld_values,
    _product,
    _range_basis,
    _svd,
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

# ceiling on the penalty weight, as a multiple of its data-scaled start (Lin,
# Chen & Ma cap theirs at 1e7 times it), so the schedule scales with the data;
# unbounded geometric growth would overflow after a few hundred iterations.
# KAPPA**57 exceeds 1e10, so the ceiling binds from iteration 58 on
RHO_CAP = 1e10
KAPPA = 1.5  # geometric penalty growth per iteration

FLOAT32_TOL = 1e-5  # float32 buffers from this tol up: the module docstring's precision rule

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
# rows, and at least two (see _alm).  Per solve_fffp at 2000x2000, k=5, default
# tol, so float32 buffers (medians of 9 alternating runs, 2-core x86-64,
# OpenBLAS): 2**14, 2**16 and 2**18 entries took 0.31, 0.29 and 0.35 s, one
# whole-matrix block 0.44 s; 2**16 is 32 rows, 256 KB per float32 block.
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
    """Tunables shared by all solvers.  Every field is checked when the
    config is made (ValueError), but for the upper bound of ``k``, which needs
    the data's shape.

    k        : factor width; upper bound on the recovered rank, at least 1
               when given.  Only the factored solvers read it, through
               :func:`init_factors`, which checks ``k <= min(d, n)`` and
               refuses None; solve_ialm has no rank parameter and ignores
               it, so it may be None there.
    lam      : finite balance weight. Required by solve_uffp (0 is allowed
               and degenerates to solve_fffp); solve_ialm defaults a
               missing value to 1/sqrt(max(d, n)); solve_fffp ignores it.
    tol      : relative-residual stopping threshold, in (0, 1); it also sets
               the factored solves' precision (see the module docstring)
    max_iter : iteration cap
    seed     : nonnegative seed of the Gaussian draws: the test matrix of the
               factored solvers' randomized truncated-SVD start
               (:func:`init_factors`) and the range finder of solve_ialm's
               singular-value step

    The penalty schedule is fixed: it starts at ``1/max|x|`` for the factored
    solvers (the first sparse threshold 1/rho reaches the largest entry) and
    at Lin, Chen & Ma's ``1.25/sigma_1(x)`` for solve_ialm, with sigma_1 from
    the factorization of ``x`` that its first singular-value step thresholds,
    and grows by ``KAPPA`` per iteration, capped at ``RHO_CAP`` times its
    start.  So the schedule scales with the data: a power-of-two rescaling of
    ``x`` rescales the outputs of solve_fffp and solve_ialm (solve_uffp's
    ``lam`` is absolute, in the data's units, and its surrogate is not
    homogeneous).
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
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1, got %r" % self.k)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative, got %r" % self.seed)


@dataclass
class SolveReport:
    """Terminal and per-iteration statistics for one solve.

    svd_count is the raw number of factorizations the iteration steps take:
    thin SVDs and Gram eigendecompositions (one per factor-orthogonalization
    and core update of the factored solvers, whichever route
    :func:`~robustpca.linalg.polar_orthogonal` takes; one per singular-value
    thresholding of the baseline).  A step of a solve_uffp iterate that has
    collapsed to width 0 takes none.  The
    factored solvers' initial factors are not counted.  The baseline takes
    no SVD outside its steps: its sigma_1 comes from the first step's
    factorization, computed before the loop and counted once, as step 1's.
    A widened retry of the baseline's partial thresholding counts as a
    further SVD, so its svd_count can exceed its iteration count.  rho0 is
    the penalty weight of the first iteration, the solver's data-scaled
    start (see :class:`SolverConfig`); it, sparse_l1 and final_objective
    are in the data's units, whatever the working scale (see ``_as_rows``).
    buffer_dtype names the dtype of the solve's (d, n) buffers, "float32"
    or "float64" (the module docstring's precision rule).
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
    buffer_dtype: str


class IterationState(NamedTuple):
    """End-of-iteration snapshot passed to ``on_iteration`` callbacks.

    ``s`` is the sparse part that the residual of ``u @ c @ v.T`` was
    measured with; at ``t = 1`` it is the zero start.  It is one of the
    solver's two live sparse buffers: the same pass has already written the
    next iteration's sparse part into the other, and the next pass
    overwrites this one, so copy it if you keep it.
    ``theta``, ``u``, ``c`` and ``v`` are fresh arrays; the low-rank part
    ``u @ c @ v.T`` is never held whole.  ``u`` and ``v`` have orthonormal
    columns, as many as ``c`` has rows: k for solve_fffp, the kept rank r
    <= k for solve_uffp with ``lam > 0`` (``c`` is then ``diag`` of its
    positive shrunk values, and r never grows from one iteration to the
    next; the returned factors are padded back to k), and the kept count of
    singular values for solve_ialm.  ``rho`` is the value after the
    end-of-iteration growth step, and ``theta`` is the multiplier for it,
    formed on demand as ``rho * (m - x + s_next)`` from the solver's
    workspace ``m`` and that next sparse part ``s_next``.  ``s`` and
    ``theta`` have the dtype of the solver's buffers (the module docstring's
    precision rule); ``u``, ``c`` and ``v`` are float64.  Every
    field is in the units of the working matrix ``x * 2**-e`` (see
    ``_as_rows``), which are the data's unless max|x| lies outside [2**-32,
    2**32].
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
    values, at 8 bytes plus one value per nonzero instead of one value per
    entry.  The property ``s`` gives the dense (d, n) array either way, with
    every bit and the dtype of solve_uffp's at that weight: the stored array
    of a dense entry, and a fresh array, built on each access, of a compact
    one.  So read ``s`` once and keep it.
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


def _as_rows(x, dtype=np.float64):
    """The entry gate of every solve: ``(x, e, norm_x, top)``.

    ``x`` becomes the working matrix ``x * 2**-e``: C-ordered, so that its
    row blocks are contiguous, with finite entries, and of ``dtype`` (float32
    or float64).  ``e`` is 0 when max|x| lies in [2**-32, 2**32], so that a
    C-ordered input of ``dtype`` is neither copied nor changed; otherwise
    ``e`` brings max|x| into [1, 2).  Any copy is made in one pass, with the
    cast and the rescale folded in; the rescale runs in float64, so it is
    exact, and a float32 ``dtype`` rounds once, where entries below 2**-126
    of max|x| lose bits.  So ``norm_x``, the
    working matrix's Frobenius norm, neither overflows nor underflows, even
    when summed in float32.  ``top`` is the working matrix's max|x|, taken
    from the data's without a second scan: rounding to ``dtype`` is monotone
    and symmetric, so it maps the largest magnitude to the largest.  Raises
    ValueError for the zero matrix, which has no scale to solve at, so no
    solve or grid starts and nothing is drawn.
    """
    x = _as_matrix(x, "x", keep_float32=True)
    top = float(max(x.max(), -x.min()))
    if top == 0.0:
        raise ValueError("x has zero Frobenius norm (it is the zero matrix)")
    e = 0 if 2.0**-32 <= top <= 2.0**32 else math.frexp(top)[1] - 1
    if e == 0:
        x = np.ascontiguousarray(x, dtype=dtype)
    else:
        x = np.ldexp(x, -e, out=np.empty(x.shape, dtype), dtype=np.float64)
    return x, e, np.linalg.norm(x), float(dtype(math.ldexp(top, -e)))


def _in_data_units(s, e, dtype):
    """The sparse part ``s`` of a working matrix ``x * 2**-e`` as ``dtype``, in
    the data's units: ``s * 2**e``, scaled in place once it has ``dtype``."""
    s = s.astype(dtype, copy=False)
    return np.ldexp(s, e, out=s) if e else s


def _alm(x, e, norm_x, cfg, weight, rho0, t_start, step, summary, on_iteration=None,
         factored=False):
    """The inexact augmented-Lagrangian loop behind all three solvers.

    ``x``, its exponent ``e`` and its Frobenius norm ``norm_x`` come from
    :func:`_as_rows`, so ``x`` is the C-ordered working matrix, max|x| lies
    in [2**-32, 2**32] and ``norm_x`` is positive.  The loop runs in the
    working matrix's units; the report and the returned core are in the
    data's (``e`` scales them back).  The loop keeps the
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
    product upcasts.  The penalty starts at ``rho0``, the solver's
    data-scaled start, and grows by ``KAPPA`` per iteration up to ``RHO_CAP *
    rho0``.  That ceiling is finite: max|x| is at least 2**-32, so both
    starts, ``1/max|x|`` and ``1.25/sigma_1 <= 1.25/max|x|``, lie below
    1.25 * 2**32.  Every solve
    starts at ``s = 0`` and ``theta = 0``, so ``m`` starts as a copy of ``x``
    and no pass runs before iteration 1.

    ``weight`` is the weight of the l1 term, a constant of the solve.
    ``step(m, rho)`` reads but does not write ``m`` and returns the new
    iterate ``(u, c, v, svds)``: the low-rank part ``u @ c @ v.T`` and the
    step's factorization count.  solve_fffp's core is a full k x k matrix;
    solve_uffp's (``lam > 0``) is ``diag`` of its kept shrunk values, and
    solve_ialm's ``diag(sigma - tau)`` of its kept singular values, so the
    width of the iterate may change between iterations.
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
    loop stops at ``cfg.tol`` or ``cfg.max_iter``.  ``summary(c)`` gives the
    final rank and the low-rank term of the objective from the last core, in
    the data's units; the objective is ``weight`` times the l1 norm of ``s``
    plus that term.  Wall time counts from ``t_start``.  Returns
    ``(FactoredLowRank(u, c, v), s, report)`` for the last iterate, with
    ``c`` in the data's units and ``s`` the working matrix's sparse buffer.
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
    rho = rho0 = float(rho0)
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
        rho_next = min(rho * KAPPA, RHO_CAP * rho0)
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

    sparse_l1 = math.ldexp(float(np.abs(s, out=m).sum(dtype=np.float64)), e)
    c = np.ldexp(c, e)
    final_rank, low_rank_term = summary(c)
    return FactoredLowRank(u, c, v), s, SolveReport(
        iterations=t,
        svd_count=svd_count,
        rho0=math.ldexp(rho0, -e),
        per_iter_residual=residuals,
        final_rank=final_rank,
        sparsity_ratio=sparsity_ratio(s),
        sparse_l1=sparse_l1,
        final_residual=residuals[-1],
        wall_time=time.perf_counter() - t_start,
        final_objective=weight * sparse_l1 + low_rank_term,
        converged=residual <= cfg.tol,
        buffer_dtype=dt.name,
    )


def _solve_factored(x, e, norm_x, top, start, t_start, cfg, lam_ld, dtype, on_iteration=None):
    """Run the factored step in :func:`_alm` on the working matrix ``x`` from
    :func:`_as_rows`, with its max|x| ``top``, from the penalty ``1/top`` and
    the factors ``start`` (``init_factors(x, cfg.k, cfg.seed)``, only read),
    with surrogate weight ``lam_ld`` (0 for solve_fffp) in the data's units.

    With ``lam_ld > 0`` each step rotates the factors into the singular
    basis of the core, shrinks its values at the data's scale, as
    ``_ld_values(sigma * 2**e, tau * 2**e) * 2**-e``, so that ``lam_ld``
    means the same at any working scale, and keeps only the directions
    whose value stays positive, so the iterate's width never grows; a
    width-0 iterate takes no factorization.  Returns ``(factors, s,
    report)``: the factors padded back to width k by :func:`_pad_factors`,
    and the sparse part in the data's units as ``dtype``.
    """
    u, c, v = start.u, start.c, start.v

    def step(m, rho):
        # m = x + theta/rho - s, read by two products in its dtype: (uc.T @ m).T,
        # which is m.T @ uc to the bit and at 2000x2000 about 2 ms instead of
        # 5-16 ms, and m @ v, which serves both the u and the core update
        nonlocal u, c, v
        if c.shape[0] == 0:  # collapsed: L = 0, and it stays 0
            return u, c, v, 0
        v = polar_orthogonal(_product((u @ c).T, m).T)
        mv = _product(m, v)
        u = polar_orthogonal(mv @ c.T)
        c = u.T @ mv
        tau = lam_ld / rho
        if tau == 0.0:
            return u, c, v, 2
        p, sigma, q = _svd(c)
        values = np.ldexp(_ld_values(np.ldexp(sigma, e), np.ldexp(tau, e)), -e)
        keep = values > 0.0
        u, c, v = u @ p[:, keep], np.diag(values[keep]), v @ q[:, keep]
        return u, c, v, 3

    def summary(c):
        # one factorization of the core for the rank and log_det_surrogate's sum
        sigma = np.linalg.svd(c, compute_uv=False)
        return _spectrum_rank(sigma), lam_ld * float(np.log1p(sigma).sum())

    factors, s, report = _alm(x, e, norm_x, cfg, 1.0, 1.0 / top, t_start, step, summary,
                              on_iteration, factored=True)
    return _pad_factors(factors, start), _in_data_units(s, e, dtype), report


def _solve(x, cfg, weights, on_iteration=None):
    """The factored solves of ``x``, one per surrogate weight in ``weights``
    (in the data's units; 0 is solve_fffp): a generator of their ``(factors,
    s, report)``, in order.

    The entry gate, the precision rule and the start factors run once, on
    the first ``next``; each weight then runs :func:`_solve_factored` from
    those factors, and its result is yielded as that call returns it, so the
    generator holds no solve's outputs.  ``s`` is float32 for float32 ``x``
    and float64 otherwise.  The first report's wall time counts the gate and
    the start; each later one counts from the ``next`` that resumed it.
    """
    t_start = time.perf_counter()
    dtype = np.float32 if getattr(x, "dtype", None) == np.float32 else np.float64
    x, e, norm_x, top = _as_rows(x, np.float32 if cfg.tol >= FLOAT32_TOL else dtype)
    start = init_factors(x, cfg.k, cfg.seed)
    for lam_ld in weights:
        yield _solve_factored(x, e, norm_x, top, start, t_start, cfg, float(lam_ld), dtype,
                              on_iteration)
        t_start = time.perf_counter()


def _pad_factors(factors, start):
    """``factors`` widened to the width k of the start factors ``start``.

    ``u`` (width r) keeps its columns and gains the columns r..k-1 of the Q
    of the Householder QR of ``[u, start.u[:, r:]]``, and ``v`` likewise:
    they are orthonormal and orthogonal to ``u`` to rounding, whatever the
    overlap of the two spans.  The core gains zero rows and columns, so the
    low-rank part is unchanged.  Factors of width k are returned as they are.
    """
    k, r = start.c.shape[0], factors.c.shape[0]
    if r == k:
        return factors

    def widen(a, a0):
        q, _ = np.linalg.qr(np.hstack([a, a0[:, r:]]))
        return np.hstack([a, q[:, r:]])

    c = np.zeros((k, k))
    c[:r, :r] = factors.c
    return FactoredLowRank(widen(factors.u, start.u), c, widen(factors.v, start.v))


def solve_fffp(x, cfg, on_iteration=None):
    """Fixed-rank factored decomposition of ``x`` into ``u @ c @ v.T + s``.

    Per iteration: the sparse part is refreshed by elementwise
    soft-thresholding of the current misfit at 1/rho, the side factors by
    orthogonal-Procrustes (polar) updates, and the core by projection
    ``c = u.T @ (x - s + theta/rho) @ v``; the multiplier then absorbs the
    residual and rho grows by ``KAPPA`` (capped at ``RHO_CAP`` times its
    start).  Stops when the relative residual reaches ``cfg.tol`` or after
    ``cfg.max_iter`` iterations.
    Each iteration makes one row-block pass of the driver over the (d, n)
    buffers, which sums the residual and forms the next iteration's sparse
    part and workspace, plus two products with the workspace; the first
    iteration reads ``s = 0``.  The precision and the copy of ``x``, if any,
    follow the module docstring.

    Returns ``(factors, s, report)``.
    """
    return next(_solve(x, cfg, [0.0], on_iteration))


def solve_uffp(x, cfg, on_iteration=None):
    """Rank-discovering variant of :func:`solve_fffp`.

    Identical loop except the core update is shrunk by the log-det map of
    :func:`~robustpca.linalg.ld_shrink` at threshold ``cfg.lam / rho``, so
    superfluous directions inside the width-k factorization are driven to
    exactly zero.  The step then drops them: it carries only the directions
    it keeps, so after the first shrink an iteration costs O(r * d * n) at
    kept rank r instead of O(k * d * n).  The returned ``u`` and ``v`` are
    padded to k orthonormal columns, and ``c`` to k x k with zeros.
    ``cfg.lam`` must be set, in the data's units; ``lam = 0`` reproduces
    solve_fffp bit for bit.

    Returns ``(factors, s, report)``.
    """
    if cfg.lam is None:
        raise ValueError("solve_uffp requires cfg.lam (0 is allowed)")
    return next(_solve(x, cfg, [cfg.lam], on_iteration))


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
    is copied once.  The solve runs in float64 at any tol (the module
    docstring's precision rule); the partial thresholding's accuracy was
    measured in float64 only.

    Returns ``(l, s, report)``.
    """
    t_start = time.perf_counter()
    x, e, norm_x, _ = _as_rows(x)

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

    def summary(c):
        return _spectrum_rank(np.diag(c)), float(np.diag(c).sum())

    low_rank, s, report = _alm(x, e, norm_x, cfg, lam, 1.25 / first.s[0], t_start, step,
                               summary)
    return low_rank.dense(), _in_data_units(s, e, np.float64), report


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
    n = 74, 3.4e-10 at 200, 2.8e-12 at 400 and 0 at 2000.  The anchor is
    taken on the float64 working matrix of :func:`_as_rows`, whatever the
    dtype of ``x``, and the grid is scaled back to the data's units, so a
    power-of-two rescaling of ``x`` that keeps its entries normal rescales
    the grid bit for bit.  The zero matrix is refused by that gate.
    """
    x, e, _, _ = _as_rows(x)
    top = float(_ritz_triplets(x, 1, None, np.random.default_rng(0)).s[0])
    return np.ldexp(top * 10.0 ** np.array(_GRID_EXPONENTS), e)


def lambda_sweep(x, cfg):
    """Run solve_uffp's iteration over a grid of weights and pick one run.

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
    The solves share solve_uffp's entry (``_solve``): one gate, one working
    copy of ``x`` if it needs one, and one start serve the whole sweep, so
    each entry is ``solve_uffp`` with that weight, bit for bit, ``s`` and
    its dtype included, at any tol.
    """
    grid = default_lambda_grid(x)
    entries = []
    for factors, s, report in _solve(x, cfg, grid):
        if report.sparsity_ratio < 0.5:  # where the pair costs less than the array
            index = np.flatnonzero(s)
            s = index, s.ravel()[index]
        entries.append(SweepEntry(float(grid[len(entries)]), factors, s, report))

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
