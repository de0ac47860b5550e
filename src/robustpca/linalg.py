"""Dense linear-algebra primitives and the shrinkage operators the solvers are built from.

Everything here is a pure function of its inputs, and arguments are never
modified.  Only :func:`thin_svd` applies a sign convention to its factors
(and :func:`svt`, which calls it); every other SVD with singular vectors,
here and in the solvers, is the bare ``_svd``.  Repeated calls are
bit-reproducible because the LAPACK calls underneath are deterministic, not
because of a sign convention.
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "ThinSvd",
    "thin_svd",
    "polar_orthogonal",
    "soft_threshold",
    "ld_shrink",
    "log_det_surrogate",
    "svt",
]


class ThinSvd(NamedTuple):
    """Economy-size SVD, ``a = u @ diag(s) @ v.T``.

    u : (m, p) array with orthonormal columns
    s : (p,) singular values, nonnegative and nonincreasing
    v : (n, p) array with orthonormal columns, where p = min(m, n)
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def _as_matrix(a, name="matrix", keep_float32=False):
    """Coerce to a nonempty 2-D float64 array with finite entries.

    With ``keep_float32`` a float32 array keeps its dtype (and is not
    copied); the solvers that run in the data's precision pass it.  Every
    other dtype, and float32 without the flag, converts to float64.
    """
    float32 = keep_float32 and getattr(a, "dtype", None) == np.float32
    a = np.asarray(a, dtype=np.float32 if float32 else np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("%s must be a nonempty 2-D array, got shape %r" % (name, a.shape))
    if not np.isfinite(a).all():
        raise ValueError("%s contains non-finite entries" % name)
    return a


def _check_tau(tau):
    tau = float(tau)
    if not (tau >= 0.0):
        raise ValueError("tau must be nonnegative, got %r" % tau)
    return tau


def thin_svd(a):
    """Thin SVD with a deterministic sign convention.

    Each left singular vector is flipped so that its largest-magnitude
    entry is positive (on ties, the first such entry decides); the paired
    right vector is flipped with it, which leaves the reconstruction
    unchanged.  This pins down the factors whenever the singular values
    are distinct, so identical inputs give bit-identical outputs.

    Parameters
    ----------
    a : (m, n) array_like
        Nonempty matrix with finite entries.

    Returns
    -------
    ThinSvd
    """
    u, s, v = _svd(_as_matrix(a, "a"))
    u, v = _fix_signs(u, v)
    return ThinSvd(u, s, v)


def _svd(a):
    """The thin SVD of the checked matrix ``a`` as a ThinSvd, bare: the
    factors are LAPACK's, with no sign convention, and ``v`` is the
    transposed view of the ``vt`` that ``np.linalg.svd`` returns."""
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer routine can fail to converge on finite
        # input with a cluster of tiny singular values; the transpose takes
        # a different path through it
        v, s, ut = np.linalg.svd(a.T, full_matrices=False)
        return ThinSvd(ut.T, s, v)
    return ThinSvd(u, s, vt.T)


def _fix_signs(u, v):
    """Flip paired columns of ``u`` and ``v`` so each column of ``u`` has a
    positive largest-magnitude entry (the first one on ties)."""
    cols = np.arange(u.shape[1])
    anchor = np.abs(u).argmax(axis=0)
    signs = np.where(u[anchor, cols] < 0.0, -1.0, 1.0)
    return u * signs, v * signs


# randomized range finder (Halko, Martinsson & Tropp 2011)
RANGE_OVERSAMPLE = 10  # test-matrix columns beyond the wanted rank
RANGE_POWER_STEPS = 4  # power iterations from a Gaussian start, each re-orthonormalized by QR
# Power iterations from a warm start, a basis an earlier call returned.  The low
# rank parts of a 200x180 rank-4 solve_ialm under seeds 3 and 4 differed by
# 1.1e-7 relative with 1 warm step, 4.1e-9 with 2, 3.1e-10 with 3 and 5.6e-11
# with 4, against 9.1e-9 for 4 steps from the kept singular vectors alone (9
# iterations each).  At 400x400 rank 5, solve_ialm with 2 warm steps took 0.045 s
# against 0.068 s with 4 steps from the kept vectors (medians of 12 runs).
WARM_POWER_STEPS = 2


def _range_basis(a, width, rng, start=None):
    """Orthonormal (m, width) basis for the dominant column space of ``a``.

    The randomized range finder of Halko, Martinsson & Tropp (2011): the
    test block is ``start`` (an (n, j) array, j <= width) followed by
    ``width - j`` Gaussian columns drawn from ``rng``; its image under
    ``a`` is orthonormalized and refined by power steps, each
    re-orthonormalized by QR: ``RANGE_POWER_STEPS`` of them from a Gaussian
    block, and ``WARM_POWER_STEPS`` when ``start`` has a column, since a
    start that already spans most of the dominant space needs fewer.  The
    cost is O(m * n * width) per step.  ``a`` may be float32: each product
    with it then runs in float32 and is upcast before its QR, so ``a`` is
    never copied and the basis is float64.
    """
    j = 0 if start is None else start.shape[1]
    fresh = rng.standard_normal((a.shape[1], width - j))
    omega = fresh if j == 0 else np.hstack([start, fresh])
    q, _ = np.linalg.qr(_product(a, omega))
    for _ in range(WARM_POWER_STEPS if j else RANGE_POWER_STEPS):
        z, _ = np.linalg.qr(_product(a.T, q))
        q, _ = np.linalg.qr(_product(a, z))
    return q


def _product(a, b):
    """``a @ b`` computed in float32 if either operand is float32, in float64
    otherwise, and returned as float64.

    The float32 operand is the large one, a (d, n) data matrix or buffer, so
    only the small one is cast: a float64 factor would otherwise upcast a
    float32 matrix into a (d, n) temporary.  For float64 operands nothing is
    cast or copied, and the product is ``a @ b`` bit for bit.
    """
    dt = np.float32 if np.float32 in (a.dtype, b.dtype) else np.float64
    return (a.astype(dt, copy=False) @ b.astype(dt, copy=False)).astype(np.float64, copy=False)


# The Gram route of polar_orthogonal runs when the smallest eigenvalue of
# a.T @ a is above this share of the largest, so cond(a) < 1e3; the rounding
# of that eigenvalue is amplified by up to the inverse share.  On three
# 400x400 weight sweeps at k = 25 (940 calls, 4 of them below the share,
# the smallest share taken 1.08e-6) the Gram route's result was within
# 6.7e-12 of the SVD route's and orthonormal to 1.3e-11 (Frobenius norms).
POLAR_GRAM_SHARE = 1e-6


def polar_orthogonal(a):
    """Closest matrix with orthonormal columns: the orthogonal polar factor.

    For a (m, p) input with m >= p, returns the (m, p) matrix ``w`` with
    ``w.T @ w = I`` that maximizes ``trace(w.T @ a)``.  Computed from the
    p x p Gram matrix (Higham 1986): with ``w, e = eigh(a.T @ a)`` it is
    ``a @ ((e / sqrt(w)) @ e.T)``, at O(m * p**2) and with no factorization
    larger than p x p.  That route squares the condition number of ``a``,
    so it is taken only when the Gram matrix is finite and its smallest
    eigenvalue is above ``POLAR_GRAM_SHARE`` of its largest.  Otherwise ``a``
    is ill-conditioned or rank-deficient, or its Gram overflows (entries
    near 1e300), and the result is ``u @ v.T`` from the bare thin SVD of
    ``a`` instead.  For a rank-deficient ``a`` the maximizer is not unique,
    and that route returns the one LAPACK's singular vectors for the zero
    values give: they are deterministic, so identical inputs still give
    bit-identical outputs.  The SVD is taken without :func:`thin_svd`'s
    sign convention, whose paired flips cancel in ``u @ v.T`` bit for bit.
    ``a`` is checked once; a non-finite entry raises ValueError.
    """
    a = _as_matrix(a, "a")
    m, p = a.shape
    if m < p:
        raise ValueError("polar_orthogonal needs m >= p, got shape %r" % ((m, p),))
    with np.errstate(over="ignore"):
        gram = a.T @ a
    if np.isfinite(gram).all():
        w, e = np.linalg.eigh(gram)
        if w[0] > POLAR_GRAM_SHARE * w[-1]:
            return a @ ((e / np.sqrt(w)) @ e.T)
    u, _, v = _svd(a)
    return u @ v.T


def soft_threshold(m, tau):
    """Elementwise shrinkage toward zero, ``sign(m) * max(|m| - tau, 0)``.

    This is the proximal map of ``tau * sum(|m_ij|)``; entries with
    magnitude at most ``tau`` become exactly zero.  Computed as
    ``m - clip(m, -tau, tau)`` in two passes over ``m``.  No solver calls
    it: the row-block pass of ``solvers._alm`` writes the same
    ``m - clip(m, -tau, tau)`` inline, since it reuses the clipped values
    for its workspace.
    """
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    clipped = np.clip(m, -tau, tau)
    return np.subtract(m, clipped, out=clipped)


def ld_shrink(d, tau):
    """Shrink the singular values of ``d`` through the log-det rank surrogate.

    Writes ``d = u @ diag(s) @ v.T`` and maps every singular value s_i to
    the minimizer over x >= 0 of

        0.5 * (x - s_i)**2 + tau * log(1 + x),

    as :func:`_ld_values` computes it.  ``tau = 0`` performs no shrinkage,
    so the input is returned unchanged (no factorization is computed).  The
    SVD is taken bare, without :func:`thin_svd`'s sign convention, whose
    paired flips cancel in ``(u * shrunk) @ v.T`` bit for bit.

    Returns
    -------
    (m, n) ndarray with the same shape as ``d``; its i-th singular value
    exceeds s_i by at most a few ulps of s_i, the rounding of xi_i.
    """
    tau = _check_tau(tau)
    d = _as_matrix(d, "d")
    if tau == 0.0:
        return d.copy()
    u, s, v = _svd(d)
    return (u * _ld_values(s, tau)) @ v.T


def _ld_values(s, tau):
    """The log-det shrinkage of the nonnegative values ``s`` at ``tau > 0``.

    Each s_i maps to the minimizer over x >= 0 of ``0.5 * (x - s_i)**2 +
    tau * log(1 + x)``: either 0 or the stationary point

        xi_i = (s_i - 1) / 2 + sqrt((1 + s_i)**2 / 4 - tau),

    which is real only when (1 + s_i)**2 > 4 * tau and is clamped at 0 when
    negative; xi_i is kept when it scores no worse than 0 on the objective.
    For s_i < 1 the two terms of that form cancel, so xi_i is computed as
    the equal ``(s_i - tau) / ((1 - s_i)/2 + sqrt((1 + s_i)**2 / 4 - tau))``,
    whose terms do not: it keeps the relative accuracy of s_i - tau down
    to the smallest values (the first form's absolute error is a few ulps of
    1).  The square is taken as ``h * h`` with ``h = (1 + s_i) / 2``, which is
    ``(1 + s_i)**2 / 4`` bit for bit; where it overflows (s_i above about
    2.7e154) the root is ``h * sqrt(1 - tau / h**2)``, and where ``s_i**2``
    overflows the objectives are compared divided by s_i, so every finite
    s_i maps to a finite value.  :func:`ld_shrink` and the core step of
    ``solvers.solve_uffp`` both map their singular values here.
    """
    h = 0.5 * (1.0 + s)
    with np.errstate(over="ignore"):
        square = h * h
        disc = square - tau
        gate = disc > 0.0
        root = np.sqrt(np.maximum(disc, 0.0))
        big = np.isinf(square)
        root[big] = h[big] * np.sqrt(1.0 - (tau / h[big]) / h[big])
        below = s < 1.0
        xi = 0.5 * (s - 1.0) + root
        xi[below] = (s[below] - tau) / (0.5 * (1.0 - s[below]) + root[below])
        xi = np.where(gate, np.maximum(xi, 0.0), 0.0)
        keep = gate & (0.5 * (xi - s) ** 2 + tau * np.log1p(xi) <= 0.5 * s**2)
        huge = np.isinf(s**2)
        gap = xi[huge] - s[huge]
        keep[huge] = gate[huge] & (0.5 * gap * (gap / s[huge])
                                   + (tau / s[huge]) * np.log1p(xi[huge]) <= 0.5 * s[huge])
    return np.where(keep, xi, 0.0)


def log_det_surrogate(c):
    """Rank surrogate ``log det(I + (c.T @ c)^(1/2))``, i.e. sum of log(1 + s_i).

    Nonnegative, and zero exactly when ``c`` is the zero matrix.
    """
    c = _as_matrix(c, "c")
    return float(np.log1p(np.linalg.svd(c, compute_uv=False)).sum())


def svt(m, tau):
    """Soft-threshold the singular values by ``tau``: the nuclear-norm proximal map.

    Returns ``u @ diag(max(s - tau, 0)) @ v.T`` from the thin SVD of ``m``.
    """
    tau = _check_tau(tau)
    f = thin_svd(m)
    return (f.u * np.maximum(f.s - tau, 0.0)) @ f.v.T
