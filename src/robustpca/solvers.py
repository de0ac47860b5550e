"""Low-rank plus sparse decomposition solvers.

Three augmented-Lagrangian solvers share one driver, ``_alm``, which owns
the multiplier, the penalty schedule, the (d, n) buffers and their passes,
the stop test and the report; each supplies only its low-rank step:
``solve_fffp`` at the fixed rank ``k``, ``solve_uffp`` with ``k`` an upper
bound and a log-det rank surrogate, and ``solve_ialm``, the convex
baseline.  Solves are deterministic (identical inputs give bit-identical
outputs) and sequential; distinct solves may run concurrently.  Each runs
on the working matrix of ``_as_rows`` and returns the data's units.

The precision rule: solve_fffp, solve_uffp and each solve of lambda_sweep
run in float32 buffers for float32 ``x``, and for any other ``x`` whenever
``cfg.tol >= FLOAT32_TOL``, as at the default tol (``_solve`` applies the
rule): the buffers, the block scratch and every product with them are then
float32, which halves the bytes each pass moves.  Below that tol they solve
in float64.  The residual of float32 buffers stalls near 1e-7, so float32
data, which always solves in float32, wants a tol of about 1e-6 or more; a
smaller one runs to max_iter and reports converged=False.  solve_ialm
always solves in float64, a float32 ``x`` as ``x.astype(np.float64)`` bit
for bit.  The sparse part is returned as float32 for float32 ``x`` and as
float64 otherwise; the factors, the core and every small factorization stay
float64, and ``SolveReport.buffer_dtype`` names the buffers' dtype.
"""

import math
import numbers
import statistics
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

# the penalty schedule, stated in _alm; the values of BALANCE and KAPPA_FAST
# against others: CHANGES.md, "State each solver rule once"
RHO_CAP = 1e10
KAPPA = 1.5
BALANCE = 50.0
KAPPA_FAST = KAPPA**3

FLOAT32_TOL = 1e-5  # float32 buffers from this tol up: the module docstring's precision rule

# partial singular-value thresholding of solve_ialm (Lin, Chen & Ma 2010)
SVT_START_RANK = 10  # predicted rank of the first iteration
SVT_RANK_GROWTH = 0.05  # share of min(d, n) added to the rank when every value is kept
# from this share of min(d, n) on, the full thin SVD replaces the range finder
# (timed against it in CHANGES.md, "State each solver rule once")
SVT_FULL_SHARE = 0.15

ORTHO_TOL = 1e-8  # Frobenius-norm bound on a.T @ a - I for an orthonormal factor

# entries per row block of _alm's passes (timed in CHANGES.md, "State each solver rule once")
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

    Treat the arrays as read-only: freezing the dataclass cannot freeze them.
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
    """Tunables shared by all solvers, each checked when the config is made
    (ValueError naming the field) but for ``k <= min(d, n)``, which
    :func:`init_factors` checks.  No field takes a bool.  The penalty
    schedule is not a field.

    k        : integer factor width, the recovered rank's upper bound, at
               least 1; only the factored solvers read it, so it may be None
               for solve_ialm
    lam      : finite nonnegative weight, in the data's units. Required by
               solve_uffp (0 degenerates to solve_fffp); solve_ialm defaults
               it to 1/sqrt(max(d, n)); solve_fffp ignores it.
    tol      : relative-residual stop, in (0, 1); it also sets the factored
               solves' precision (the module docstring's rule)
    max_iter : integer iteration cap, at least 1
    seed     : nonnegative integer seed of the Gaussian draws of
               :func:`init_factors` and of solve_ialm's range finder
    """

    k: int | None
    lam: float | None = None
    tol: float = 1e-3
    max_iter: int = 200
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("k", numbers.Integral), ("lam", numbers.Real),
                           ("tol", numbers.Real), ("max_iter", numbers.Integral),
                           ("seed", numbers.Integral)):
            value = getattr(self, name)
            if value is None and name in ("k", "lam"):
                continue
            # a bool is an int to Python, but no field is a flag
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError("%s must be %s, got %r" % (
                    name, "an integer" if kind is numbers.Integral else "a real number", value))
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

    svd_count counts the steps' thin SVDs and Gram eigendecompositions: one
    per factor-orthogonalization and core update of the factored solvers
    (none at width 0, none for the start), one per singular-value
    thresholding of the baseline, a widened retry and the first, taken
    before the loop, included.  rho0 is the first penalty weight
    (see ``_alm``); it, sparse_l1 and final_objective are in the data's
    units.  buffer_dtype is "float32" or "float64" (the module docstring's
    precision rule).  per_iter_residual holds ``||x - L - s||_F / ||x||_F``
    after each iteration, its squares summed per row block, so it agrees with
    :func:`relative_residual` to the last bits, or to about 1e-5 relative in
    float32 buffers; final_residual is its last entry.  per_iter_change holds
    ``||L_t - L_{t-1}||_F / ||x||_F`` (``L_0 = 0``; see ``_change``).
    sparse_l1 is the l1 norm of the final s, summed in float64; past the
    float64 range it reads inf, and final_objective then reads inf, or
    leaves the l1 term out at a zero weight, never nan.
    """

    iterations: int
    svd_count: int
    rho0: float
    per_iter_residual: list[float]
    per_iter_change: list[float]
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

    ``s`` is the sparse part the residual of ``u @ c @ v.T`` was measured
    with (zero at ``t = 1``): a live buffer the next pass overwrites, so copy
    it to keep it.  The other arrays are fresh.  ``u`` and ``v`` have as
    many orthonormal columns as ``c`` has rows: k for solve_fffp, the kept
    rank r <= k for solve_uffp with ``lam > 0`` (``c`` diagonal, r never
    growing), the kept count of singular values for solve_ialm.  ``rho`` is
    the penalty after the iteration's growth step and ``theta`` the
    multiplier for it.  ``s`` and ``theta`` have the buffers' dtype, ``u``,
    ``c`` and ``v`` float64, all in the working matrix's units (``_as_rows``).
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

    ``kept`` holds the run's factors at the width r <= k the solve kept, and
    ``start`` the one start that all entries share.  ``factors`` is
    solve_uffp's at that weight, padded to k, bit for bit
    (:func:`_pad_factors`): ``kept`` itself at r = k, else a fresh set built
    on each access, so read it once.  On the 400x400, k=25 sweep of 5%
    corruption, the five runs that end below k then hold about 0.4 of a
    float64 copy of ``x`` less than padded sets would.

    ``sparse`` is the run's sparse part as the solve left it, in its
    buffers' dtype and the units of the working matrix ``x * 2**-e``,
    ``units = (e, dtype)``: the dense (d, n) buffer, or, when
    ``report.sparsity_ratio < 0.5`` (no extra pass decides), the pair
    ``(index, values)`` of its C-order flat indices (int32, int64 from d * n
    = 2**31) and nonzeros.  In float32 buffers, as at the default tol, a
    compact entry takes 8 bytes per nonzero and a dense one 4 per entry: 11
    healthy runs on 5% sparse corruption take about half a float64 copy of
    ``x`` in all.  ``s`` is the dense array, every bit and the dtype of
    solve_uffp's at that weight: the stored buffer when it needs no
    conversion, else a fresh array built on each access, so read it once.
    The stored arrays are never written.
    """

    lam: float
    kept: FactoredLowRank
    sparse: np.ndarray | tuple[np.ndarray, np.ndarray]
    report: SolveReport
    units: tuple[int, type]
    start: FactoredLowRank

    @property
    def factors(self):
        return _pad_factors(self.kept, self.start)

    @property
    def s(self):
        if isinstance(self.sparse, np.ndarray):
            return _in_data_units(self.sparse, *self.units)
        index, values = self.sparse
        # the solve writes its zeros as +0.0, so this is the same array bit for bit
        s = np.zeros((self.kept.u.shape[0], self.kept.v.shape[0]), self.units[1])
        s.put(index, _in_data_units(values, *self.units))
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

    A range finder (Halko, Martinsson & Tropp 2011) of width ``k +
    RANGE_OVERSAMPLE`` (at most ``min(d, n)``) drawn from ``seed`` gives the
    top-k singular triplets at O(d * n * k), values on the diagonal of ``c``
    and thin_svd's sign convention applied once (the linalg module
    docstring's SVD rule).  Deterministic for fixed inputs and seed; a
    float32 ``x`` is not upcast, and the factors are float64.  Raises
    ValueError unless ``1 <= k <= min(d, n)``, a None ``k`` included.
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
    row blocks are contiguous, finite, and of ``dtype``.  ``e`` is 0 when
    max|x| lies in [2**-32, 2**32], so a C-ordered input of ``dtype`` is
    neither copied nor changed; otherwise ``e`` brings max|x| into [1, 2).
    Any other input is copied once, cast and rescaled in the same pass.  The
    rescale runs in float64, so it is exact (a float32 ``dtype`` rounds
    once, and entries below 2**-126 of max|x| lose bits), and the outputs
    are scaled back by ``2**e`` exactly; so data of any finite scale solves
    with no overflow or underflow of ``norm_x``, the working matrix's
    Frobenius norm, or its squares, even in float32.  ``top`` is the working
    matrix's max|x|, from the data's without a second scan (rounding is
    monotone and symmetric).  Raises ValueError for the zero matrix.
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
    the data's units, ``s * 2**e``: ``s`` itself when that changes nothing,
    else a new array.  ``s`` is never written."""
    return np.ldexp(s, e, dtype=dtype) if e else s.astype(dtype, copy=False)


def _change(u, c, v, prev):
    """``||u @ c @ v.T - u0 @ c0 @ v0.T||_F`` for the iterate ``prev = (u0, c0,
    v0)``, or ``||c||_F`` for None (L = 0), at O((d + n)k^2): with
    orthonormal factors the square is ``||c||^2 + ||c0||^2 - 2 tr(c.T (u.T
    u0) c0 (v0.T v))``, clamped at 0, exact to about 1e-15 when ``||c||`` is
    about ``||x||``: the change is exact to 1e-6 relative from 1e-5 of
    ``||x||`` up, and below about 1e-8 noise, far below the last residual /
    BALANCE (> tol / BALANCE) that ``_alm``'s test compares it with."""
    square = float(np.sum(c * c))
    if prev is not None:
        u0, c0, v0 = prev
        cross = float(np.sum(c * (((u.T @ u0) @ c0) @ (v0.T @ v))))
        square += float(np.sum(c0 * c0)) - 2.0 * cross
    return math.sqrt(max(square, 0.0))


def _alm(x, e, norm_x, cfg, weight, rho0, t_start, step, summary, on_iteration=None,
         factored=False):
    """The inexact augmented-Lagrangian loop behind all three solvers.

    ``x``, ``e`` and ``norm_x`` come from :func:`_as_rows`; the loop runs in
    the working matrix's units.  ``weight`` is the l1 term's weight.
    ``step(m, rho)`` reads but does not write ``m`` and returns the new
    iterate ``(u, c, v, svds)``: ``L = u @ c @ v.T`` with orthonormal ``u``
    and ``v``, and its factorization count.  The core is k x k for
    solve_fffp, and ``diag`` of the kept values, of changing width, for
    solve_uffp (``lam > 0``) and solve_ialm.

    The penalty schedule.  rho starts at ``rho0``: ``1/max|x|`` for the
    factored solvers, so the first sparse threshold 1/rho reaches the largest
    entry, and Lin, Chen & Ma's ``1.25/sigma_1(x)`` for solve_ialm, sigma_1
    from the factorization its first step thresholds.  After the step of
    iteration t, :func:`_change` gives ``||L_t - L_{t-1}||_F / ||x||_F``
    (``L_0 = 0``), and rho grows by ``KAPPA_FAST`` when t >= 2 and iteration
    t-1's residual exceeds ``BALANCE`` times that change (residual balancing:
    He, Yang & Wang 2000; Boyd et al. 2011, sec. 3.4.1), else by ``KAPPA``;
    it reads the last residual because the pass that sums this one also
    forms the next sparse step at the grown rho.  rho is capped at ``RHO_CAP
    * rho0`` (Lin, Chen & Ma cap theirs at 1e7 times their start), since
    unbounded growth would overflow: at KAPPA alone the cap binds from
    iteration 58 on, and each KAPPA_FAST step brings it two iterations
    closer.  The cap is finite, as max|x| >= 2**-32 puts both starts below
    1.25 * 2**32.  Both sides of the test are relative, so a power-of-two
    rescaling of ``x`` rescales the outputs of solve_fffp and solve_ialm
    (solve_uffp's ``lam`` is absolute and its surrogate not homogeneous).

    The buffers and the pass.  Besides ``x``, the loop holds (d, n) buffers
    of its dtype: the sparse part ``s``, double-buffered for the factored
    solvers, and the workspace ``m = x + theta/rho - s'``, ``s'`` the sparse
    part the next step reads, so the multiplier ``theta = rho * (m - x +
    s')`` is never stored.  Every solve starts at ``s = 0`` and ``theta =
    0``, so ``m`` starts as a copy of ``x`` and no pass runs before iteration
    1.  Each iteration makes one pass, in contiguous row blocks of
    ``ROW_BLOCK_ENTRIES // n`` rows, at least two; L is formed per block in
    a scratch as ``(u @ c) @ v.T``, from factors cast to the buffers' dtype
    once per iteration.  The pass writes the sparse step ``soft_threshold(g,
    tau)``, ``g = x + theta/rho - L``, as ``g - c`` with ``c = clip(g, -tau,
    tau)`` (``shrink``), builds ``m`` from ``c`` and sums ``||x - L - s||^2``:

    * ``factored``: the residual, then the next sparse step at
      ``weight/rho_next`` into the second buffer, so a stop still returns
      the ``s`` that matches ``L``.  Per block, ``a = x - L``, ``r = a -
      s``, ``g = a + (rho/rho_next) * (m - L)``, ``s' = g - c``, ``m = L + c``.
    * not ``factored`` (solve_ialm): this sparse step at ``weight/rho``,
      then the residual.  Per block, ``g = (m + s) - L``, ``s = g - c``, ``r
      = (x - L) - s`` and ``m = (x - s) + (rho/rho_next) * c``, since the
      updated ``theta/rho`` is ``g - s``, the clip.

    After each pass a non-finite residual, or ``u`` or ``v`` not orthonormal
    to ``ORTHO_TOL``, raises DivergenceError; then ``on_iteration``, if
    given, receives the :class:`IterationState`.  The loop stops at
    ``cfg.tol`` or ``cfg.max_iter``.  ``summary(c)`` gives the final rank
    and the objective's low-rank term from the last core.  Wall time counts
    from ``t_start``.  Returns ``(FactoredLowRank(u, c, v), s, report)``,
    ``c`` and the report in the data's units and ``s`` the sparse buffer.
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
    residuals, changes = [], []
    svd_count = 0
    prev = None  # the last iterate; None is L = 0, the start of every solve

    def shrink(b, g, tau):
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
        # at width 1 matmul takes numpy's scalar loop, about 3x slower than the
        # broadcast product, which forms each entry as the same single product;
        # only a zero's sign can differ, and every zero the pass writes is +0.0
        product = np.multiply if left.shape[1] == 1 else np.matmul
        svd_count += svds
        change = _change(u, c, v, prev) / float(norm_x)
        changes.append(change)
        prev = u, c, v
        fast = t >= 2 and BALANCE * change < residuals[-1]
        rho_next = min(rho * (KAPPA_FAST if fast else KAPPA), RHO_CAP * rho0)
        ratio = rho / rho_next
        tau = weight / (rho_next if factored else rho)
        squares = 0.0
        for b in blocks:
            h = b.stop - b.start
            l_b = product(left[b], right.T, out=l_buf[:h])
            if factored:
                # r in relative_residual's order, so a residual lost to cancellation
                # reads the same in both, in the s_next block the sparse step overwrites
                a = np.subtract(x[b], l_b, out=a_buf[:h])
                r = np.subtract(a, s[b], out=s_next[b])
                squares += float(r.ravel() @ r.ravel())
                g = np.subtract(m[b], l_b, out=m[b])  # theta/rho, theta updated
                g *= ratio
                g += a
                np.add(l_b, shrink(b, g, tau), out=m[b])
            else:
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

    with np.errstate(over="ignore"):  # an l1 mass past the float64 range reads inf
        sparse_l1 = float(np.ldexp(np.abs(s, out=m).sum(dtype=np.float64), e))
    c = np.ldexp(c, e)
    final_rank, low_rank_term = summary(c)
    return FactoredLowRank(u, c, v), s, SolveReport(
        iterations=t,
        svd_count=svd_count,
        rho0=math.ldexp(rho0, -e),
        per_iter_residual=residuals,
        per_iter_change=changes,
        final_rank=final_rank,
        sparsity_ratio=sparsity_ratio(s),
        sparse_l1=sparse_l1,
        final_residual=residuals[-1],
        wall_time=time.perf_counter() - t_start,
        # a zero weight leaves the l1 term out, even when sparse_l1 reads inf
        final_objective=(weight * sparse_l1 if weight else 0.0) + low_rank_term,
        converged=residual <= cfg.tol,
        buffer_dtype=dt.name,
    )


def _solve_factored(x, e, norm_x, top, start, t_start, cfg, lam_ld, on_iteration=None):
    """:func:`_alm` with the factored step on the working matrix ``x`` (max|x|
    ``top``) from the factors ``start``, only read, at surrogate weight
    ``lam_ld`` (0 for solve_fffp) in the data's units: each step then rotates
    the factors into the core's singular basis, shrinks its values at the
    data's scale, ``_ld_values(sigma * 2**e, tau * 2**e) * 2**-e``, and keeps
    the positive ones.  Returns ``(factors, s, report)``, the factors at the
    kept width (:func:`_pad_factors` widens them to k).
    """
    u, c, v = start.u, start.c, start.v

    def step(m, rho):
        # two products read m in its dtype: (uc.T @ m).T, m.T @ uc to the bit but
        # 2 ms instead of 5-16 at 2000x2000, and m @ v, for both u and the core
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

    return _alm(x, e, norm_x, cfg, 1.0, 1.0 / top, t_start, step, summary, on_iteration,
                factored=True)


def _solve(x, cfg, weights, on_iteration=None):
    """The factored solves of ``x``, one per surrogate weight in ``weights``
    (data units; 0 is solve_fffp): a generator of their ``(factors, s,
    report, units, start)``, holding no solve's outputs.  The entry gate, the
    precision rule and the start run once, on the first ``next``, and are
    timed in the first report.  The factors are at the kept width, and
    ``_pad_factors(factors, start)`` widens them to k;
    ``_in_data_units(s, *units)`` converts the sparse buffer ``s`` to the
    data's units and the returned dtype.

    The handoff rule.  The gate's working copy replaces ``x`` in this frame,
    and no frame above it keeps the input: every caller in the package
    builds the generator, then drops its own name for ``x`` before the first
    ``next``.  So, once the gate has cast it, the input lives only as long
    as the caller that passed it in keeps another reference (the CLI keeps
    none), and a float64 ``x`` solved in float32 buffers frees its 8 bytes
    per entry before the first buffer is made.  When the working copy is
    ``x`` itself, nothing is freed.
    """
    t_start = time.perf_counter()
    dtype = np.float32 if getattr(x, "dtype", None) == np.float32 else np.float64
    x, e, norm_x, top = _as_rows(x, np.float32 if cfg.tol >= FLOAT32_TOL else dtype)
    start = init_factors(x, cfg.k, cfg.seed)
    for lam_ld in weights:
        yield (*_solve_factored(x, e, norm_x, top, start, t_start, cfg, float(lam_ld),
                                on_iteration), (e, dtype), start)
        t_start = time.perf_counter()


def _solve_one(solves):
    """The one solve of :func:`_solve`'s generator ``solves``: ``(factors, s,
    report)``, the factors padded to k and ``s`` in the data's units.  The
    generator is closed first, so its working matrix goes before ``s`` is
    converted."""
    factors, s, report, units, start = next(solves)
    solves.close()
    return _pad_factors(factors, start), _in_data_units(s, *units), report


def _pad_factors(factors, start):
    """``factors`` widened to the width k of ``start``: ``u`` (width r) gains
    the columns r..k-1 of the Q of the Householder QR of ``[u, start.u[:,
    r:]]``, orthonormal to rounding whatever the spans' overlap, ``v``
    likewise, and the core zero rows and columns, so L is unchanged."""
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

    Per iteration: soft-thresholding of the misfit at 1/rho refreshes the
    sparse part, polar updates the side factors, and the projection ``c =
    u.T @ (x - s + theta/rho) @ v`` the core; then the multiplier and rho
    (``_alm``).  Stops at ``cfg.tol`` or ``cfg.max_iter``; precision follows
    the module docstring, and ``x`` is handed to the entry gate (``_solve``'s
    handoff rule).  ``on_iteration`` receives each IterationState.  Returns
    ``(factors, s, report)``: a :class:`FactoredLowRank`, the sparse part in
    the data's units and a :class:`SolveReport`.  Raises ValueError for an
    invalid ``x`` or ``k`` and DivergenceError for a non-finite iterate.
    """
    solves = _solve(x, cfg, [0.0], on_iteration)
    del x  # the handoff rule: _solve
    return _solve_one(solves)


def solve_uffp(x, cfg, on_iteration=None):
    """Rank-discovering variant of :func:`solve_fffp`.

    The core update is shrunk by the log-det map of
    :func:`~robustpca.linalg.ld_shrink` at ``cfg.lam / rho``, which drives
    superfluous directions to exactly zero; the step drops them, so an
    iteration costs O(r * d * n) at kept rank r.  The returned ``u``, ``v``
    and ``c`` are padded to width k.  ``cfg.lam`` must be set, in the data's
    units; ``lam = 0`` reproduces solve_fffp bit for bit.  Hands ``x`` over
    and returns as solve_fffp does.
    """
    if cfg.lam is None:
        raise ValueError("solve_uffp requires cfg.lam (0 is allowed)")
    solves = _solve(x, cfg, [cfg.lam], on_iteration)
    del x  # the handoff rule: _solve
    return _solve_one(solves)


def _ritz_triplets(m, rank, start, rng):
    """Singular triplets of ``m`` for :func:`_svt_step`'s ``rank``, as a ThinSvd.

    The Ritz triplets of a range finder of width ``rank + RANGE_OVERSAMPLE``
    started from ``start``'s first columns (or None) and padded from ``rng``,
    or the full thin SVD, which draws nothing, from ``SVT_FULL_SHARE *
    min(d, n)`` on.  Both SVDs are bare (the linalg module docstring's rule).
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

    ``rank`` predicts the count of singular values above tau, and ``start``
    is the previous step's right Ritz basis (or None), so the steps continue
    one subspace iteration; ``first``, if given, is :func:`_ritz_triplets`'s
    result for this call.  If every Ritz value exceeds tau, one above tau may
    lie outside the basis, so the step is redone wider from its own basis;
    the full thin SVD is final.  Returns ``(u, shrunk, v, basis, rank,
    svds)``: the kept singular vectors and values minus tau, the whole right
    Ritz basis, the next predicted rank (Lin, Chen & Ma's rule) and the count
    of thin SVDs; ``(u * shrunk) @ v.T`` is not formed.
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

    Alternates ``l = svt(x - s + theta/rho, 1/rho)`` with ``s =
    soft_threshold(x - l + theta/rho, lam/rho)`` in ``_alm``.  ``cfg.lam``
    defaults to 1/sqrt(max(d, n)); ``cfg.k`` is not read.  As in Lin, Chen &
    Ma's inexact ALM, the singular-value step is a partial SVD at a predicted
    rank (:func:`_svt_step`); the first step's factorization of ``x`` also
    gives the penalty's start, and no other SVD of ``x`` is taken.  The solve
    is deterministic (``cfg.seed`` seeds the range finder) and runs in
    float64 at any tol, where the partial step's accuracy was measured (the
    module docstring's precision rule).  Returns ``(l, s, report)``: dense
    float64 parts in the data's units and a :class:`SolveReport`.
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

    Well below sigma_1 the shrinkage removes no direction, and an order of
    magnitude above it the core collapses; the window that keeps only the
    real directions can span less than half a decade, so the grid steps in
    quarter decades there and coarsens toward collapse.  The selection is
    not scale-free: log(1 + sigma) is not homogeneous.  The anchor is the
    top Ritz value of :func:`_ritz_triplets` at rank 1 (seed 0), O(d * n),
    on the float64 working matrix of :func:`_as_rows`, so a power-of-two
    rescaling of ``x`` that keeps its entries normal rescales the grid bit
    for bit.  Raises ValueError for the zero matrix.
    """
    x, e, _, _ = _as_rows(x)
    top = float(_ritz_triplets(x, 1, None, np.random.default_rng(0)).s[0])
    return np.ldexp(top * 10.0 ** np.array(_GRID_EXPONENTS), e)


def lambda_sweep(x, cfg):
    """Run solve_uffp's iteration over a grid of weights and pick one run.

    Returns ``(entries, selected)``: one :class:`SweepEntry` per value of
    :func:`default_lambda_grid` (ascending) and the preferred entry's index.

    Selection rejects full collapse (rank 0, the sparse part swallows
    ``x``) and partial collapse (a real direction dumped into the sparse
    part), which both pass the residual test but inflate the sparse part's
    l1 mass and nonzero fraction beyond the healthy runs' consensus.  Among
    converged runs of nonzero rank it keeps those within 1.5x the median l1
    mass and twice the median nonzero fraction plus 0.02, and takes the
    smallest weight at their lowest rank, the least-biased run on that
    plateau; if none is kept, the smallest final residual wins.  The grid is
    solved in order through solve_uffp's entry (``_solve``), one gate and
    start for all, so each entry is ``solve_uffp`` at its weight, bit for
    bit, at any tol, stored as :class:`SweepEntry` states.  ``x`` is handed
    over once the grid is drawn from it (``_solve``'s handoff rule).
    """
    grid = default_lambda_grid(x)
    solves = _solve(x, cfg, grid)
    del x  # the handoff rule: _solve
    entries = []
    for factors, s, report, units, start in solves:
        if report.sparsity_ratio < 0.5:  # where the pair costs less than the buffer
            index = np.flatnonzero(s).astype(np.int32 if s.size < 2**31 else np.int64,
                                             copy=False)
            s = index, s.ravel()[index]
        entries.append(SweepEntry(float(grid[len(entries)]), factors, s, report, units, start))

    reports = [e.report for e in entries]
    candidates = [i for i, r in enumerate(reports) if r.converged and r.final_rank > 0]
    if candidates:
        # statistics.median, not np.median, whose first call imports numpy.ma
        mass_gate = 1.5 * float(statistics.median(reports[i].sparse_l1 for i in candidates))
        density_gate = 2.0 * float(statistics.median(reports[i].sparsity_ratio
                                                      for i in candidates))
        clean = [i for i in candidates if reports[i].sparse_l1 <= mass_gate
                 and reports[i].sparsity_ratio <= density_gate + 0.02]
        if clean:
            lowest = min(reports[i].final_rank for i in clean)
            return entries, min(i for i in clean if reports[i].final_rank == lowest)
    return entries, min(range(len(entries)), key=lambda i: reports[i].final_residual)
