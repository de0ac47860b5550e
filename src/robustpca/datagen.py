"""Seeded synthetic low-rank-plus-sparse test problems with retained ground truth.

Real image stacks come without a known split, so recovery accuracy can only
be judged on generated problems where the low-rank and sparse parts are kept.
All generators are pure functions of their parameters and seed.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["SyntheticProblem", "gen_low_rank", "gen_sparse", "make_problem"]


@dataclass(frozen=True)
class SyntheticProblem:
    """A data matrix together with the exact split that produced it.

    ``x == l_star + s_star`` holds entrywise exactly.
    """

    x: np.ndarray
    l_star: np.ndarray
    s_star: np.ndarray


def gen_low_rank(d, n, r, seed=0):
    """Rank-r matrix ``a @ b.T`` from seeded standard Gaussian factors.

    With probability one the numerical rank equals ``r``. ``r = 0`` gives
    the zero matrix.
    """
    if r < 0 or r > min(d, n):
        raise ValueError("need 0 <= r <= min(d, n) = %d, got %r" % (min(d, n), r))
    if r == 0:
        return np.zeros((d, n))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, r))
    b = rng.standard_normal((n, r))
    return a @ b.T


def gen_sparse(d, n, fraction, magnitude, seed=0):
    """Sparse matrix with exactly ``round(fraction * d * n)`` nonzero entries.

    Nonzero positions are drawn uniformly without replacement and their
    values uniformly from [-magnitude, +magnitude]; every other entry is
    exactly zero.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1), got %r" % fraction)
    count = int(round(fraction * d * n))
    s = np.zeros((d, n))
    if count == 0:
        return s
    rng = np.random.default_rng(seed)
    positions = rng.choice(d * n, size=count, replace=False)
    s.ravel()[positions] = rng.uniform(-magnitude, magnitude, size=count)
    return s


def make_problem(d, n, r, fraction, seed=0):
    """Compose a rank-r part and gross sparse corruption into one problem.

    The sparse support is drawn independently of the low-rank factors
    (separate child seeds of ``seed``).  Corrupted entries are uniform in
    +-10x the RMS entry of the low-rank part, large relative to the signal
    rather than noise-like; ``fraction`` of the entries are corrupted, up to
    rounding of the count.  The stored sparse part is recomputed as
    ``x - l_star`` so the additive split is exact in floating point, not
    just up to rounding.
    """
    if r < 1:
        raise ValueError("true rank r must be positive, got %r" % r)
    seed_l, seed_s = np.random.SeedSequence(seed).generate_state(2)
    l_star = gen_low_rank(d, n, r, int(seed_l))
    magnitude = 10.0 * float(np.sqrt(np.mean(l_star**2)))
    x = l_star + gen_sparse(d, n, fraction, magnitude, int(seed_s))
    return SyntheticProblem(x, l_star, x - l_star)
