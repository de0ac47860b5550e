"""Dense linear-algebra primitives and the shrinkage operators the solvers are built from.

Everything here is a pure function of its inputs: arguments are never
modified (apart from an explicit ``out=`` buffer), and a fixed sign
convention on the SVD factors makes repeated calls bit-reproducible.
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


def _as_matrix(a, name="matrix"):
    """Coerce to a nonempty 2-D float64 array with finite entries."""
    a = np.asarray(a, dtype=np.float64)
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
    a = _as_matrix(a, "a")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        v = vt.T
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer routine can fail to converge on finite
        # input with a cluster of tiny singular values; the transpose takes
        # a different path through it
        v, s, ut = np.linalg.svd(a.T, full_matrices=False)
        u = ut.T
    u, v = _fix_signs(u, v)
    return ThinSvd(u, s, v)


def _fix_signs(u, v):
    """Flip paired columns of ``u`` and ``v`` so each column of ``u`` has a
    positive largest-magnitude entry (the first one on ties)."""
    cols = np.arange(u.shape[1])
    anchor = np.abs(u).argmax(axis=0)
    signs = np.where(u[anchor, cols] < 0.0, -1.0, 1.0)
    return u * signs, v * signs


# randomized range finder (Halko, Martinsson & Tropp 2011)
RANGE_OVERSAMPLE = 10  # test-matrix columns beyond the wanted rank
RANGE_POWER_STEPS = 4  # power iterations, each re-orthonormalized by QR


def _range_basis(a, width, rng, start=None):
    """Orthonormal (m, width) basis for the dominant column space of ``a``.

    The randomized range finder of Halko, Martinsson & Tropp (2011): the
    test block is ``start`` (an (n, j) array, j <= width) followed by
    ``width - j`` Gaussian columns drawn from ``rng``; its image under
    ``a`` is orthonormalized and refined by ``RANGE_POWER_STEPS`` power
    steps, each re-orthonormalized by QR.  The cost is O(m * n * width)
    per step.
    """
    fresh = rng.standard_normal((a.shape[1], width - (0 if start is None else start.shape[1])))
    omega = fresh if start is None else np.hstack([start, fresh])
    q, _ = np.linalg.qr(a @ omega)
    for _ in range(RANGE_POWER_STEPS):
        z, _ = np.linalg.qr(a.T @ q)
        q, _ = np.linalg.qr(a @ z)
    return q


def polar_orthogonal(a):
    """Closest matrix with orthonormal columns: the orthogonal polar factor.

    For a (m, p) input with m >= p, returns the (m, p) matrix ``w`` with
    ``w.T @ w = I`` that maximizes ``trace(w.T @ a)``.  Computed as
    ``u @ v.T`` from the thin SVD of ``a``.  Rank deficiency is harmless:
    the SVD's sign convention resolves the free directions.
    """
    a = _as_matrix(a, "a")
    m, p = a.shape
    if m < p:
        raise ValueError("polar_orthogonal needs m >= p, got shape %r" % ((m, p),))
    f = thin_svd(a)
    return f.u @ f.v.T


def soft_threshold(m, tau, out=None):
    """Elementwise shrinkage toward zero, ``sign(m) * max(|m| - tau, 0)``.

    This is the proximal map of ``tau * sum(|m_ij|)``; entries with
    magnitude at most ``tau`` become exactly zero.  Computed as
    ``m - clip(m, -tau, tau)`` in two passes over ``m``.

    ``out``, if given, is a float64 array of the shape of ``m`` that
    receives the result and is returned; it must not overlap ``m``.
    """
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    if out is None:
        out = np.empty_like(m)
    elif out.shape != m.shape or out.dtype != np.float64 or np.may_share_memory(out, m):
        raise ValueError("out must be a float64 array of shape %r that does not overlap m"
                         % (m.shape,))
    np.clip(m, -tau, tau, out=out)
    return np.subtract(m, out, out=out)


def ld_shrink(d, tau):
    """Shrink the singular values of ``d`` through the log-det rank surrogate.

    Writes ``d = u @ diag(s) @ v.T`` and maps every singular value s_i to
    the minimizer over x >= 0 of

        0.5 * (x - s_i)**2 + tau * log(1 + x).

    The minimizer is either 0 or the stationary point

        xi_i = (s_i - 1) / 2 + sqrt((1 + s_i)**2 / 4 - tau),

    which is real only when (1 + s_i)**2 > 4 * tau and is clamped at 0
    when negative; xi_i is kept when it scores no worse than 0 on the
    objective above.  ``tau = 0`` performs no shrinkage, so the input is
    returned unchanged (no factorization is computed).

    Returns
    -------
    (m, n) ndarray with the same shape as ``d``; its i-th singular value
    never exceeds s_i.
    """
    tau = _check_tau(tau)
    d = _as_matrix(d, "d")
    if tau == 0.0:
        return d.copy()
    f = thin_svd(d)
    s = f.s
    disc = 0.25 * (1.0 + s) ** 2 - tau
    gate = disc > 0.0
    xi = np.where(gate, 0.5 * (s - 1.0) + np.sqrt(np.maximum(disc, 0.0)), 0.0)
    np.maximum(xi, 0.0, out=xi)
    keep = gate & (0.5 * (xi - s) ** 2 + tau * np.log1p(xi) <= 0.5 * s**2)
    shrunk = np.where(keep, xi, 0.0)
    return (f.u * shrunk) @ f.v.T


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
