import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import robustpca.linalg as linalg
from robustpca.linalg import (
    RANGE_POWER_STEPS,
    WARM_POWER_STEPS,
    _range_basis,
    ld_shrink,
    log_det_surrogate,
    polar_orthogonal,
    soft_threshold,
    svt,
    thin_svd,
)
from robustpca.solvers import ORTHO_TOL


def grid_min(objective, lo, hi, coarse=1e-3, fine=1e-7):
    """Two-stage 1-D grid search: coarse scan, then a fine scan around the winner."""
    x = np.arange(lo, hi + coarse, coarse)
    x0 = x[np.argmin(objective(x))]
    xs = np.arange(max(lo, x0 - 2 * coarse), min(hi, x0 + 2 * coarse) + fine, fine)
    return xs[np.argmin(objective(xs))]


class TestThinSvd:
    def test_identity(self):
        f = thin_svd(np.eye(3))
        assert np.array_equal(f.u, np.eye(3))
        assert np.array_equal(f.s, np.ones(3))
        assert np.array_equal(f.v, np.eye(3))

    def test_diagonal_sorted_spectrum(self):
        f = thin_svd(np.diag([2.0, 3.0]))
        assert np.allclose(f.s, [3.0, 2.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3))
        f = thin_svd(a)
        assert np.linalg.norm(a - (f.u * f.s) @ f.v.T) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize("shape", [(4, 4), (9, 3), (3, 9), (1, 5), (7, 1)])
    def test_invariants(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = rng.standard_normal(shape)
        f = thin_svd(a)
        p = min(shape)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(p)) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(p)) <= 1e-10
        assert np.all(f.s >= 0) and np.all(np.diff(f.s) <= 0)
        err = np.linalg.norm(a - (f.u * f.s) @ f.v.T)
        assert err <= 1e-9 * max(1.0, np.linalg.norm(a))

    def test_rank_deficient_reconstruction(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
        f = thin_svd(a)
        assert np.linalg.norm(a - (f.u * f.s) @ f.v.T) <= 1e-9 * np.linalg.norm(a)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 4))
        f1, f2 = thin_svd(a), thin_svd(a.copy())
        assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)
        anchors = np.abs(f1.u).argmax(axis=0)
        assert np.all(f1.u[anchors, np.arange(4)] > 0)

    def test_survives_divide_and_conquer_non_convergence(self):
        # 44 values in [2, 20], 28 in [0, 0.05] and 43 exact zeros: on some
        # LAPACK builds np.linalg.svd of this matrix raises "SVD did not
        # converge" while the SVD of its transpose succeeds
        rng = np.random.default_rng(28)
        sigma = np.concatenate([np.sort(rng.uniform(2.0, 20.0, 44))[::-1],
                                np.sort(rng.uniform(0.0, 0.05, 28))[::-1]])
        rng = np.random.default_rng(28)
        u, _ = np.linalg.qr(rng.standard_normal((122, 72)))
        v, _ = np.linalg.qr(rng.standard_normal((115, 72)))
        a = (u * sigma) @ v.T
        f = thin_svd(a)
        assert np.allclose(f.s[:72], sigma, rtol=0.0, atol=1e-12)
        assert np.linalg.norm((f.u * f.s) @ f.v.T - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(115)) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(115)) <= 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            thin_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            thin_svd(np.zeros((0, 3)))


class TestPolarOrthogonal:
    def test_orthonormal_input_fixed(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        assert np.allclose(polar_orthogonal(q), q, atol=1e-10)

    def test_positive_diagonal_gives_identity(self):
        assert np.allclose(polar_orthogonal(np.diag([2.0, 3.0])), np.eye(2), atol=1e-12)

    def test_trace_optimality_random(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 2))
        w = polar_orthogonal(a)
        best = np.trace(w.T @ a)
        for _ in range(1000):
            r, _ = np.linalg.qr(rng.standard_normal((6, 2)))
            assert best >= np.trace(r.T @ a) - 1e-10

    def test_rank_deficient_still_orthonormal(self):
        a = np.zeros((5, 3))
        a[:, 0] = 1.0
        w = polar_orthogonal(a)
        assert np.linalg.norm(w.T @ w - np.eye(3)) <= 1e-10

    def test_output_always_orthonormal(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = polar_orthogonal(rng.standard_normal((7, 4)))
            assert np.linalg.norm(w.T @ w - np.eye(4)) <= 1e-10

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError):
            polar_orthogonal(np.ones((2, 5)))

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 12), extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
           log_cond=st.floats(0.0, 2.0), log_scale=st.floats(-100.0, 100.0))
    def test_gram_route_matches_svd_route(self, p, extra, seed, log_cond, log_scale):
        # a tall input with singular values 10**log_scale down to 10**-log_cond
        # of that: cond(a) <= 100, so the Gram's eigenvalue share is at least
        # 1e-4, above POLAR_GRAM_SHARE, and the Gram route runs (the SVD route
        # is patched to fail).  Its rounding grows with cond(a)**2; over 2000
        # seeded draws like these it stayed within 1.3e-12 of u @ v.T
        rng = np.random.default_rng(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((p + extra, p)))
        q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
        a = (q1 * (np.geomspace(1.0, 10.0**-log_cond, p) * 10.0**log_scale)) @ q2.T
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_svd", lambda m: pytest.fail("took the SVD route"))
            w = polar_orthogonal(a)
        u, _, vt = np.linalg.svd(a, full_matrices=False)
        assert np.linalg.norm(w - u @ vt) <= 1e-10
        assert np.linalg.norm(w.T @ w - np.eye(p)) <= ORTHO_TOL

    @pytest.mark.parametrize("case", ["rank_deficient", "gram_overflows"])
    def test_svd_route_when_the_gram_cannot_serve(self, case, monkeypatch):
        # an exactly rank-deficient input puts the Gram's smallest eigenvalue at
        # rounding level, below POLAR_GRAM_SHARE of the largest; finite entries
        # of 1e300 overflow the Gram to inf, silently
        a = np.random.default_rng(5).standard_normal((7, 3))
        if case == "rank_deficient":
            a[:, 2] = a[:, 0]
        else:
            a *= 1e300
        real, calls = linalg._svd, []
        monkeypatch.setattr(linalg, "_svd", lambda m: calls.append(m.shape) or real(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = polar_orthogonal(a)
        assert calls == [(7, 3)]
        u, _, v = real(a)
        assert np.array_equal(w, u @ v.T)
        assert np.linalg.norm(w.T @ w - np.eye(3)) <= ORTHO_TOL


class TestSoftThreshold:
    def test_scalar_cases(self):
        assert soft_threshold(np.array([[2.0]]), 0.5)[0, 0] == 1.5
        assert soft_threshold(np.array([[-0.3]]), 0.5)[0, 0] == 0.0

    def test_exact_zeros_below_threshold(self):
        m = np.array([[0.2, -0.7], [0.7, 1.1]])
        out = soft_threshold(m, 0.7)
        assert out[0, 0] == 0.0 and out[0, 1] == 0.0 and out[1, 0] == 0.0
        assert np.isclose(out[1, 1], 0.4)

    def test_matches_prox_grid_search(self):
        rng = np.random.default_rng(6)
        m = rng.uniform(-3, 3, (4, 4))
        tau = 0.7
        out = soft_threshold(m, tau)
        for value, got in zip(m.ravel(), out.ravel()):
            lo, hi = -abs(value) - tau - 1.0, abs(value) + tau + 1.0
            want = grid_min(lambda x: 0.5 * (x - value) ** 2 + tau * np.abs(x), lo, hi)
            assert abs(got - want) <= 1e-6

    def test_non_expansive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
            tau = rng.uniform(0, 2)
            lhs = np.linalg.norm(soft_threshold(a, tau) - soft_threshold(b, tau))
            assert lhs <= np.linalg.norm(a - b) + 1e-12

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones((2, 2)), -0.1)

    @settings(max_examples=300, deadline=None)
    @given(m=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
                    elements=st.floats(allow_nan=False, allow_infinity=False)),
           tau=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_matches_scalar_definition(self, m, tau):
        # exact, at every finite scale: m - clip(m, -tau, tau) rounds once,
        # symmetrically in the sign of m
        want = np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)
        assert np.array_equal(soft_threshold(m, tau), want)


class TestLdShrink:
    def test_zero_tau_is_identity(self):
        rng = np.random.default_rng(8)
        d = rng.standard_normal((4, 6))
        out = ld_shrink(d, 0.0)
        assert np.linalg.norm(out - d) <= 1e-10
        assert np.array_equal(out, d)

    def test_gate_closes_small_value(self):
        # (1 + 0.5)^2 = 2.25 < 4 * 1.0, so the stationary point is not real
        assert ld_shrink(np.array([[0.5]]), 1.0)[0, 0] == 0.0

    def test_scalar_matches_grid_search(self):
        got = ld_shrink(np.array([[10.0]]), 1.0)[0, 0]
        assert np.isclose(got, 4.5 + np.sqrt(29.25), atol=1e-12)
        xs = np.arange(0.0, 20.0 + 1e-5, 1e-5)
        want = xs[np.argmin(0.5 * (xs - 10.0) ** 2 + np.log1p(xs))]
        assert abs(got - want) <= 1e-4

    def test_spectral_monotone_shrinkage(self):
        rng = np.random.default_rng(9)
        for tau in (0.1, 1.0, 5.0):
            d = rng.standard_normal((5, 5)) * 3
            before = np.linalg.svd(d, compute_uv=False)
            after = np.linalg.svd(ld_shrink(d, tau), compute_uv=False)
            assert np.all(after <= before + 1e-9)
            assert np.all(after >= 0)

    @staticmethod
    def scalar_gap(s, tau):
        """ld_shrink([[s]], tau) and its objective's excess over the best of 0
        and a grid over [0, s]."""
        v = ld_shrink(np.array([[s]]), tau)[0, 0]

        def objective(x):
            return 0.5 * (x - s) ** 2 + tau * np.log1p(x)

        best = objective(np.linspace(0.0, s, 10001)).min()  # the grid holds 0
        return v, objective(v) - best, best

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(0.0, 1e4), share=st.floats(0.0, 1.0))
    @example(s=3.0, share=0.5)  # tau = (1 + s)**2 / 4, where the stationary point is double
    @example(s=0.0, share=1.0)
    @example(s=1.1754943508222875e-38, share=1.1754943508222875e-38)
    @example(s=1.749584136841418e-06, share=2.0997733716858727e-122)
    def test_minimizes_scalar_objective(self, s, share):
        # tau runs from 0 to twice the value (1 + s)**2 / 4 past which no
        # stationary point exists, so both branches and the gate are drawn.
        # The stationary point (s - 1)/2 + sqrt(...) is formed to an absolute
        # error of a few ulps of (1 + s), so v may pass s by that much, and the
        # objective's excess is bounded by about its square next to the 1e-12
        # relative bound (see test_tiny_values_keep_relative_accuracy)
        tau = share * 0.5 * (1.0 + s) ** 2
        v, gap, best = self.scalar_gap(s, tau)
        slack = 4 * np.finfo(float).eps * (1.0 + s)
        assert 0.0 <= v <= s + slack
        assert gap <= 1e-12 * best + slack**2

    @pytest.mark.parametrize("s, tau", [(1e-18, 5e-19), (1.749584136841418e-06, 1e-122)])
    def test_tiny_values_keep_relative_accuracy(self, s, tau):
        # (s - 1)/2 + sqrt((1 + s)**2/4 - tau) has an absolute error of about
        # 1e-16: at s = 1e-18 it would round the minimizer s - tau to 0, whose
        # objective is 1/3 higher, and at tau near 0 pass s by 4e-18; the
        # cancellation-free form for s < 1 keeps s - tau
        v, gap, best = self.scalar_gap(s, tau)
        assert v <= s and gap <= 1e-12 * best

    @pytest.mark.parametrize("s", [1e200, 1e300])
    def test_huge_values_stay_finite(self, s):
        # (1 + s)**2 and s**2 overflow past about 1.3e154; the map squares
        # (1 + s)/2 and, where that overflows too, takes the root in units of
        # it, so at tau = 1 the value comes back as it went in
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(ld_shrink(np.array([[s]]), 1.0), [[s]])

    def test_huge_value_can_still_go_to_zero(self):
        # at s = 2.7e154 and tau = 1e308 the stationary point is about 0.84 s,
        # where tau * log(1 + x) (3.6e310) outweighs 0 at s**2 / 2 (3.6e308);
        # neither side is finite, so the map compares them divided by s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ld_shrink(np.array([[2.7e154]]), 1e308)[0, 0] == 0.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            ld_shrink(np.eye(2), -1.0)


class TestLogDetSurrogate:
    def test_zero_matrix(self):
        assert log_det_surrogate(np.zeros((3, 4))) == 0.0

    def test_scalar_anchor(self):
        assert np.isclose(log_det_surrogate(np.array([[np.e - 1.0]])), 1.0, atol=1e-12)

    def test_matches_determinant_form(self):
        rng = np.random.default_rng(10)
        c = rng.standard_normal((3, 3))
        # independent route: eigendecompose c.T @ c, build I + (c.T c)^(1/2), take log det
        mu, q = np.linalg.eigh(c.T @ c)
        root = (q * np.sqrt(np.maximum(mu, 0.0))) @ q.T
        sign, logdet = np.linalg.slogdet(np.eye(3) + root)
        assert sign > 0
        assert abs(log_det_surrogate(c) - logdet) <= 1e-9

    def test_nonnegative_and_zero_only_at_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = rng.standard_normal((4, 3))
            assert log_det_surrogate(c) > 0


class TestSvt:
    def test_zero_tau_reproduces(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((5, 4))
        assert np.linalg.norm(svt(m, 0.0) - m) <= 1e-10

    def test_diagonal_spectrum_shrink(self):
        assert np.allclose(svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_matches_per_singular_value_prox(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((4, 4))
        tau = 0.5
        got = np.linalg.svd(svt(m, tau), compute_uv=False)
        for sigma, got_sigma in zip(np.linalg.svd(m, compute_uv=False), got):
            want = grid_min(lambda x: 0.5 * (x - sigma) ** 2 + tau * x, 0.0, sigma + tau + 1.0)
            assert abs(got_sigma - want) <= 1e-6

    def test_rank_never_grows(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
        out = svt(m, 0.3)
        rank = lambda a: (np.linalg.svd(a, compute_uv=False) > 1e-9).sum()
        assert rank(out) <= rank(m)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.5)

    @settings(max_examples=300, deadline=None)
    @given(shape=array_shapes(min_dims=2, max_dims=2, max_side=8),
           seed=st.integers(0, 2**32 - 1), exponent=st.floats(-3.0, 3.0),
           rank_one=st.booleans(), share=st.floats(0.0, 1.2))
    @example(shape=(8, 8), seed=0, exponent=0.0, rank_one=False, share=0.0)
    @example(shape=(5, 3), seed=1, exponent=3.0, rank_one=True, share=1.0)
    def test_satisfies_prox_optimality(self, shape, seed, exponent, rank_one, share):
        # y = svt(m, tau) is the nuclear-norm prox exactly when g = m - y lies
        # in tau times the subdifferential of ||y||_*: ||g||_2 <= tau and
        # <g, y> = tau * ||y||_*.  Over 40000 draws of this kind (shapes up to
        # 8x8, tau up to 1.2 sigma_1) the spectral excess reached 8.1 and the
        # inner-product gap 2.6 of the units below; the slack is 4x and 6x that
        m = np.random.default_rng(seed).standard_normal(shape)
        if rank_one:
            m = np.outer(m[:, 0], m[0])
        m *= 10.0**exponent
        sigma_1 = np.linalg.norm(m, 2)
        tau = share * sigma_1
        y = svt(m, tau)
        g = m - y
        unit = np.finfo(float).eps * max(shape) * max(sigma_1, tau)
        assert np.linalg.norm(g, 2) <= tau + 32 * unit
        nuclear = np.linalg.svd(y, compute_uv=False).sum()
        assert abs(np.vdot(g, y) - tau * nuclear) <= 16 * unit * max(sigma_1, tau)


class TestRangeBasis:
    # a start without columns is a Gaussian start
    @pytest.mark.parametrize("start_cols, steps", [(None, RANGE_POWER_STEPS),
                                                   (0, RANGE_POWER_STEPS),
                                                   (1, WARM_POWER_STEPS),
                                                   (8, WARM_POWER_STEPS)])
    def test_power_steps_follow_the_start(self, start_cols, steps, monkeypatch):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((50, 40))
        start = None
        if start_cols is not None:
            start = np.linalg.qr(rng.standard_normal((40, start_cols)))[0]
        calls = []
        real = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda b: calls.append(b.shape) or real(b))
        q = _range_basis(a, 8, np.random.default_rng(0), start)
        assert len(calls) == 1 + 2 * steps
        assert q.shape == (50, 8) and np.allclose(q.T @ q, np.eye(8), rtol=0.0, atol=1e-12)
