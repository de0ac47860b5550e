import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import robustpca.linalg as linalg
import robustpca.solvers as solvers
from robustpca.datagen import make_problem
from robustpca.linalg import ld_shrink, polar_orthogonal, svt
from robustpca.solvers import (
    DivergenceError,
    FactoredLowRank,
    SolverConfig,
    default_lambda_grid,
    init_factors,
    lambda_sweep,
    relative_residual,
    solve_fffp,
    solve_ialm,
    solve_uffp,
)


def recovery_error(l, l_star):
    return np.linalg.norm(l - l_star) / np.linalg.norm(l_star)


def sin_subspace_angle(a, b):
    """Sine of the largest principal angle between two orthonormal column spans."""
    return np.linalg.norm(b - a @ (a.T @ b), 2)


class TestConfig:
    def test_rejects_bad_values(self):
        x = np.ones((4, 4))
        for fields in (
            dict(k=0),
            dict(k=5),
            dict(k=2, tol=0.0),
            dict(k=2, tol=1.0),
            dict(k=2, max_iter=0),
            dict(k=2, lam=-1.0),
            dict(k=2, lam=float("nan")),
            dict(k=2, lam=float("inf")),
            dict(k=2, lam=float("-inf")),
        ):
            with pytest.raises(ValueError):
                solve_fffp(x, SolverConfig(**fields))

    def test_checked_when_made(self):
        # no solve runs: making the config raises, naming the field; only k's
        # upper bound needs the data's shape
        for fields, message in ((dict(k=2, tol=0.0), "tol must lie in"),
                                (dict(k=0), "k must be at least 1"),
                                (dict(k=-3), "k must be at least 1"),
                                (dict(k=2, seed=-1), "seed must be nonnegative")):
            with pytest.raises(ValueError, match=message):
                SolverConfig(**fields)
        SolverConfig(k=None)  # solve_ialm reads no k

    def test_uffp_requires_lam(self):
        with pytest.raises(ValueError):
            solve_uffp(np.ones((4, 4)), SolverConfig(k=2))


class TestInitFactors:
    def test_rank_one_exact_capture(self):
        rng = np.random.default_rng(0)
        x = np.outer(rng.standard_normal(12), rng.standard_normal(9))
        f = init_factors(x, 1)
        assert np.linalg.norm(f.dense() - x) <= 1e-9 * np.linalg.norm(x)

    def test_orthonormal_by_construction(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 8))
        f = init_factors(x, 3, seed=4)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(3)) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(3)) <= 1e-10

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            init_factors(np.ones((4, 6)), 5)

    def test_constructor_checks_orthonormality_at_ortho_tol(self):
        # scaling an orthonormal u by 1 + eps moves ||u.T @ u - I||_F to
        # about 2 * eps * sqrt(k): 0.55 * ORTHO_TOL * 2 = 1.1 * ORTHO_TOL
        f = init_factors(np.random.default_rng(3).standard_normal((10, 8)), 1)
        for eps, ok in ((0.55 * solvers.ORTHO_TOL, False), (0.45 * solvers.ORTHO_TOL, True)):
            for u, v in (((1 + eps) * f.u, f.v), (f.u, (1 + eps) * f.v)):
                if ok:
                    FactoredLowRank(u, f.c, v)
                else:
                    with pytest.raises(ValueError, match="orthonormal columns"):
                        FactoredLowRank(u, f.c, v)

    def test_randomized_truncated_svd_matches_full_svd(self):
        x = make_problem(400, 400, 5, 0.05).x
        f = init_factors(x, 5)
        u, sigma, vt = np.linalg.svd(x)
        assert np.allclose(np.diag(f.c), sigma[:5], rtol=1e-8, atol=0.0)
        assert np.count_nonzero(f.c - np.diag(np.diag(f.c))) == 0
        assert sin_subspace_angle(u[:, :5], f.u) <= 1e-4
        assert sin_subspace_angle(vt[:5].T, f.v) <= 1e-4

    def test_truncated_svd_is_bit_reproducible(self):
        x = make_problem(120, 90, 3, 0.05, seed=3).x
        f1 = init_factors(x, 3, seed=5)
        f2 = init_factors(x, 3, seed=5)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.c, f2.c)
        assert np.array_equal(f1.v, f2.v)

    def test_truncated_svd_matches_inline_range_finder(self):
        # the range finder written out as it stood before it moved into
        # linalg, for a tall and a wide input
        for shape, k, seed in (((130, 70), 4, 2), ((60, 150), 7, 11)):
            x = np.random.default_rng(seed).standard_normal(shape)
            rng = np.random.default_rng(seed)
            width = min(k + solvers.RANGE_OVERSAMPLE, *shape)
            q, _ = np.linalg.qr(x @ rng.standard_normal((shape[1], width)))
            for _ in range(linalg.RANGE_POWER_STEPS):
                z, _ = np.linalg.qr(x.T @ q)
                q, _ = np.linalg.qr(x @ z)
            f = linalg.thin_svd(q.T @ x)
            u, v = solvers._fix_signs(q @ f.u[:, :k], f.v[:, :k])
            got = init_factors(x, k, seed=seed)
            assert np.array_equal(got.u, u)
            assert np.array_equal(got.c, np.diag(f.s[:k]))
            assert np.array_equal(got.v, v)

    @pytest.mark.parametrize("shape", [(300, 8), (8, 300)])
    def test_oversampling_capped_at_min_dimension(self, shape):
        # k + oversampling exceeds min(d, n): the range finder spans the whole
        # column (or row) space, so the init is the exact rank-k truncation
        x = np.random.default_rng(9).standard_normal(shape)
        f = init_factors(x, 3)
        u, sigma, vt = np.linalg.svd(x, full_matrices=False)
        best = (u[:, :3] * sigma[:3]) @ vt[:3]
        assert f.u.shape == (shape[0], 3) and f.v.shape == (shape[1], 3)
        assert np.allclose(np.diag(f.c), sigma[:3], rtol=1e-12, atol=0.0)
        assert np.linalg.norm(f.dense() - best) <= 1e-12 * np.linalg.norm(x)


class TestRelativeResidual:
    def test_exact_split_is_zero(self):
        rng = np.random.default_rng(3)
        l = rng.standard_normal((5, 5))
        x = l + rng.standard_normal((5, 5))
        assert relative_residual(x, l, x - l) == 0.0

    def test_l_equals_x(self):
        x = np.random.default_rng(4).standard_normal((4, 6))
        assert relative_residual(x, x, np.zeros_like(x)) == 0.0

    def test_all_zero_split_gives_one(self):
        x = np.random.default_rng(5).standard_normal((4, 6))
        assert np.isclose(relative_residual(x, np.zeros_like(x), np.zeros_like(x)), 1.0)

    def test_zero_x_rejected(self):
        z = np.zeros((3, 3))
        with pytest.raises(ValueError):
            relative_residual(z, z, z)

    def test_shape_mismatch_rejected(self):
        x = np.ones((3, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            relative_residual(x, x, np.ones((4, 3)))


class TestFffp:
    def test_exact_rank_one_leaves_sparse_empty(self):
        rng = np.random.default_rng(6)
        x = np.outer(rng.standard_normal(50), rng.standard_normal(40))
        factors, s, report = solve_fffp(x, SolverConfig(k=1))
        assert np.linalg.norm(s) <= 1e-6 * np.linalg.norm(x)
        assert report.final_rank == 1
        assert report.converged

    def test_synthetic_recovery(self):
        prob = make_problem(200, 200, 5, 0.05, seed=0)
        factors, s, report = solve_fffp(prob.x, SolverConfig(k=5))
        assert report.converged
        assert recovery_error(factors.dense(), prob.l_star) <= 1e-3

    def test_report_bookkeeping(self):
        prob = make_problem(60, 50, 2, 0.05, seed=1)
        factors, s, report = solve_fffp(prob.x, SolverConfig(k=2))
        assert len(report.per_iter_residual) == report.iterations
        assert report.final_residual == report.per_iter_residual[-1]
        assert report.svd_count == 2 * report.iterations
        assert 0.0 <= report.sparsity_ratio <= 1.0
        assert np.isclose(report.final_objective, np.abs(s).sum())

    def test_deterministic(self):
        prob = make_problem(40, 30, 2, 0.1, seed=2)
        a = solve_fffp(prob.x, SolverConfig(k=2))
        b = solve_fffp(prob.x, SolverConfig(k=2))
        assert np.array_equal(a[0].u, b[0].u)
        assert np.array_equal(a[0].c, b[0].c)
        assert np.array_equal(a[1], b[1])

    def test_buffered_loop_matches_out_of_place_reference(self, monkeypatch):
        # float64 buffers at the default tol: any tol below FLOAT32_TOL takes 19
        # iterations, not 11, and theta's rounding grows with rho to 1.05e-12
        monkeypatch.setattr(solvers, "FLOAT32_TOL", 1.0)
        prob = make_problem(150, 150, 3, 0.05, seed=12)
        cfg = SolverConfig(k=3)
        x = prob.x
        _, _, _, s_ref, theta, rho, t = out_of_place_reference(x, cfg, lambda core, rho: core)
        states = []
        _, s, report = solve_fffp(x, cfg, on_iteration=states.append)
        assert report.converged and report.iterations == t
        assert np.max(np.abs(s - s_ref)) <= 1e-12
        # the solver derives its multiplier from the workspace; the last one
        # still matches the reference loop's, at the grown rho
        assert states[-1].rho == rho
        assert np.max(np.abs(states[-1].theta - theta)) <= 1e-12

    def test_lost_orthonormality_raises(self, monkeypatch):
        prob = make_problem(40, 30, 2, 0.05, seed=13)
        monkeypatch.setattr(solvers, "polar_orthogonal", lambda a: 2.0 * polar_orthogonal(a))
        with pytest.raises(DivergenceError, match="orthonormality at iteration 1"):
            solve_fffp(prob.x, SolverConfig(k=2))

    def test_divergence_error_names_iteration(self, monkeypatch):
        # a NaN in iteration 2's v reaches the u update, whose polar factor
        # refuses it; the step's ValueError becomes the DivergenceError
        prob = make_problem(40, 40, 2, 0.1, seed=3)
        monkeypatch.setattr(solvers, "polar_orthogonal", poisoned_polar(3))
        with pytest.raises(DivergenceError, match=r"non-finite iterate at iteration 2$") as err:
            solve_fffp(prob.x, SolverConfig(k=2))
        assert isinstance(err.value.__cause__, ValueError)


def out_of_place_reference(x, cfg, core_map):
    """The factored ALM iteration written out of place, one fresh array per
    step, from the solvers' start factors and default start 1/max|x|, with rho
    grown by residual balancing (the dense change of L against the last
    residual) and capped at RHO_CAP times it.  ``core_map(core, rho)`` maps
    the projected core ``u.T @ m @ v``.  Returns the last ``(u, c, v, s,
    theta, rho, t)``."""
    f = init_factors(x, cfg.k, cfg.seed)
    u, c, v = f.u, f.c, f.v
    theta, rho = np.zeros_like(x), 1.0 / np.abs(x).max()
    ceiling = solvers.RHO_CAP * rho
    l_prev, residual = np.zeros_like(x), None
    for t in range(1, cfg.max_iter + 1):
        misfit = x - (u @ c) @ v.T + theta / rho
        s = np.sign(misfit) * np.maximum(np.abs(misfit) - 1.0 / rho, 0.0)
        m = x - s + theta / rho
        v = polar_orthogonal(m.T @ (u @ c))
        u = polar_orthogonal(m @ (v @ c.T))
        c = core_map((u.T @ m) @ v, rho)
        l = (u @ c) @ v.T
        fast = residual is not None and (
            solvers.BALANCE * np.linalg.norm(l - l_prev) / np.linalg.norm(x) < residual)
        r = x - l - s
        theta = theta + rho * r
        rho = min(rho * (solvers.KAPPA_FAST if fast else solvers.KAPPA), ceiling)
        l_prev, residual = l, np.linalg.norm(r) / np.linalg.norm(x)
        if residual <= cfg.tol:
            break
    return u, c, v, s, theta, rho, t


def poisoned_polar(call):
    """polar_orthogonal whose ``call``-th result has a NaN entry; the factored
    step calls it twice per iteration, for v and then for u."""
    calls = []

    def poisoned(a):
        out = polar_orthogonal(a)
        calls.append(a)
        if len(calls) == call:
            out[0, 0] = np.nan
        return out

    return poisoned


SOLVERS = pytest.mark.parametrize("solve, lam", [(solve_fffp, None), (solve_uffp, 0.5),
                                                  (solve_ialm, None)],
                                   ids=["fffp", "uffp", "ialm"])


class TestAlmDriver:
    """Bookkeeping the ALM driver shares across the three solvers."""

    @SOLVERS
    def test_iteration_cap_reported(self, solve, lam):
        prob = make_problem(40, 40, 2, 0.1, seed=3)
        _, _, report = solve(prob.x, SolverConfig(k=2, lam=lam, max_iter=3))
        assert report.iterations == 3 and not report.converged
        assert len(report.per_iter_residual) == 3
        assert report.final_residual == report.per_iter_residual[-1]

    @SOLVERS
    def test_report_measures_the_returned_sparse_part(self, solve, lam):
        prob = make_problem(40, 40, 2, 0.1, seed=3)
        _, s, report = solve(prob.x, SolverConfig(k=2, lam=lam))
        assert report.sparse_l1 == np.abs(s).sum()
        assert report.sparsity_ratio == np.count_nonzero(s) / s.size

    @pytest.mark.parametrize("scale", [0.0, 1e-170], ids=["zero", "underflow"])
    @SOLVERS
    def test_zero_norm_rejected(self, solve, lam, scale):
        # the 1e-170 input is nonzero, but its Frobenius norm underflows to 0
        # in float64.  Neither may pass as "converged in one iteration with an
        # all-zero s": the zero matrix is refused, and the 1e-170 input solves
        # at the working scale, as its unit-scale copy does
        unit = np.random.default_rng(18).standard_normal((40, 30))
        x = scale * unit
        assert np.linalg.norm(x) == 0.0
        cfg = SolverConfig(k=2, lam=lam, tol=1e-6)
        if scale == 0.0:
            with pytest.raises(ValueError, match="zero Frobenius norm"):
                solve(x, cfg)
            return
        _, s, report = solve(x, cfg)
        assert report.converged and report.iterations > 1 and s.any()
        if solve is not solve_uffp:  # uffp's lam is absolute, so its solve is not scale-free
            _, s_unit, report_unit = solve(unit, cfg)
            assert report.iterations == report_unit.iterations
            assert np.max(np.abs(s / scale - s_unit)) <= 1e-6 * np.max(np.abs(s_unit))

    @SOLVERS
    def test_default_start_is_data_scaled(self, solve, lam):
        x = make_problem(40, 40, 2, 0.1, seed=3).x
        _, _, report = solve(x, SolverConfig(k=2, lam=lam, seed=5, tol=1e-6))
        if solve is solve_ialm:
            # Lin, Chen & Ma's 1.25/sigma_1; at 40 columns the first step's
            # factorization, which gives sigma_1, is the full SVD
            want = 1.25 / linalg.thin_svd(x).s[0]
        else:
            want = 1.0 / np.abs(x).max()
        assert report.rho0 == want
        if solve is not solve_ialm:
            # at the default tol the factored solvers start from max|x| of
            # the float32 working matrix
            _, _, report = solve(x, SolverConfig(k=2, lam=lam, seed=5))
            assert report.buffer_dtype == "float32"
            assert report.rho0 == 1.0 / float(np.abs(x.astype(np.float32)).max())

    @SOLVERS
    def test_default_start_is_unclamped(self, solve, lam):
        # 1/max|x| and 1.25/sigma_1 are both near 1e159 here; the ceiling is
        # a multiple of the start, so nothing clamps the start itself.  It is
        # taken on the working matrix x * 2**-e, where max|x| lies in [1, 2),
        # and reported in the data's units
        x = 1e-160 * np.random.default_rng(18).standard_normal((40, 30))
        _, _, report = solve(x, SolverConfig(k=2, lam=lam, max_iter=1, tol=1e-6))
        if solve is solve_ialm:
            e = math.frexp(np.abs(x).max())[1] - 1
            # the full SVD at 30 columns
            want = math.ldexp(1.25 / linalg.thin_svd(np.ldexp(x, -e)).s[0], -e)
        else:
            want = 1.0 / np.abs(x).max()
        assert report.rho0 == want

    @SOLVERS
    def test_rho_reaches_the_ceiling_at_a_multiple_of_its_start(self, solve, lam, monkeypatch):
        # 70 iterations run into the ceiling, which then holds; before it each
        # step is KAPPA, or KAPPA_FAST where the last primal residual exceeds
        # BALANCE times this iteration's change of L, as the report records
        # both.  solve_ialm reports no states, so its rho is read off the
        # threshold 1/rho that each singular-value step receives
        x = make_problem(40, 30, 2, 0.1, seed=3).x
        cfg = SolverConfig(k=2, lam=lam, tol=1e-300, max_iter=70)
        taus = []
        if solve is solve_ialm:
            real = solvers._svt_step
            monkeypatch.setattr(solvers, "_svt_step",
                                lambda m, tau, *rest: taus.append(tau) or real(m, tau, *rest))
            _, _, report = solve(x, cfg)
        else:
            states = []
            _, _, report = solve(x, cfg, on_iteration=states.append)
        assert report.iterations == 70
        ceiling = solvers.RHO_CAP * report.rho0
        change, residual = report.per_iter_change, report.per_iter_residual
        want, fast = [report.rho0], []
        for t in range(1, 71):
            fast.append(t >= 2 and solvers.BALANCE * change[t - 1] < residual[t - 2])
            growth = solvers.KAPPA_FAST if fast[-1] else solvers.KAPPA
            want.append(min(want[-1] * growth, ceiling))
        if solve is solve_ialm:
            assert taus == [1.0 / rho for rho in want[:70]]
        else:
            assert [state.rho for state in states] == want[1:]
        reached = want.index(ceiling)
        assert reached < 58 and want[reached:] == [ceiling] * (71 - reached)
        assert any(fast[:reached]) and not all(fast[1:reached])

    @pytest.mark.parametrize("solve, lam", [(solve_fffp, None), (solve_uffp, 0.5),
                                            (solve_ialm, None), (solve_ialm, 0.0)],
                             ids=["fffp", "uffp", "ialm", "ialm_lam0"])
    def test_l1_mass_past_the_float64_range_reads_inf(self, solve, lam):
        # finite data whose sparse part sums past 1.8e308: the solve finishes,
        # sparse_l1 saturates to inf and the objective is never nan
        x = make_problem(100, 100, 2, 0.1, seed=1).x
        x = np.ldexp(x, math.frexp(6.3e306 / np.abs(x).max())[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, s, report = solve(x, SolverConfig(k=2, lam=lam))
        assert report.converged and np.isfinite(s).all()
        assert report.sparse_l1 == math.inf
        assert not math.isnan(report.final_objective)
        if lam == 0.0:  # no l1 term, so the nuclear norm alone, which is finite
            assert math.isfinite(report.final_objective)

    @pytest.mark.parametrize("solve", [solve_fffp, solve_ialm], ids=["fffp", "ialm"])
    def test_default_start_is_scale_free(self, solve):
        # the start scales with 1/x, so a power-of-two rescaled input runs the
        # same schedule and returns the rescaled sparse part
        x = make_problem(60, 50, 2, 0.05, seed=19).x
        _, s, report = solve(x, SolverConfig(k=2))
        for scale in (2.0**-30, 2.0**20):
            _, s_scaled, scaled = solve(scale * x, SolverConfig(k=2))
            assert scaled.iterations == report.iterations
            assert np.isclose(scaled.rho0 * scale, report.rho0, rtol=1e-12, atol=0.0)
            assert np.max(np.abs(s_scaled / scale - s)) <= 1e-12 * np.abs(s).max()

    @pytest.mark.parametrize("solve", [solve_fffp, solve_ialm], ids=["fffp", "ialm"])
    def test_power_of_two_scale_is_exact(self, solve):
        # scaling by 2**-40 is exact, so a scale-free solve returns 2**-40 times
        # its outputs in as many iterations
        x = make_problem(120, 90, 4, 0.05, seed=1).x
        scale = 2.0**-40
        low_rank, s, report = solve(x, SolverConfig(k=4))
        low_scaled, s_scaled, scaled = solve(scale * x, SolverConfig(k=4))
        if solve is solve_fffp:
            low_rank, low_scaled = low_rank.dense(), low_scaled.dense()
        assert scaled.iterations == report.iterations
        assert np.array_equal(low_scaled, scale * low_rank)
        assert np.array_equal(s_scaled, scale * s)

    @pytest.mark.parametrize("solve", [solve_fffp, solve_ialm], ids=["fffp", "ialm"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_norm_scale_is_exact(self, solve):
        # scaling by 2**520 is exact and leaves every entry finite (max|x| is
        # 6.1e157), though ||x||_F overflows to inf in float64; the solves run
        # on the working matrix x * 2**-e and return 2**520 times their
        # outputs in as many iterations
        x = make_problem(60, 50, 2, 0.05, seed=1).x
        scale = 2.0**520
        low_rank, s, report = solve(x, SolverConfig(k=2))
        low_scaled, s_scaled, scaled = solve(scale * x, SolverConfig(k=2))
        if solve is solve_fffp:
            low_rank, low_scaled = low_rank.dense(), low_scaled.dense()
        assert scaled.iterations == report.iterations
        assert np.array_equal(low_scaled, scale * low_rank)
        assert np.array_equal(s_scaled, scale * s)

    @pytest.mark.parametrize("j", [-200, -500, -1000])
    @pytest.mark.parametrize("solve", [solve_fffp, solve_ialm], ids=["fffp", "ialm"])
    def test_tiny_power_of_two_scale_is_close(self, solve, j):
        # far below 1 the residual's smallest squares would underflow; the
        # solve runs on the working matrix x * 2**-e, at unit scale, and its
        # outputs match 2**j times the unscaled ones at least to rounding
        x = make_problem(120, 90, 4, 0.05, seed=1).x
        scale = 2.0**j
        low_rank, s, report = solve(x, SolverConfig(k=4))
        low_scaled, s_scaled, scaled = solve(scale * x, SolverConfig(k=4))
        if solve is solve_fffp:
            low_rank, low_scaled = low_rank.dense(), low_scaled.dense()
        assert scaled.iterations == report.iterations
        for got, want in ((low_scaled, scale * low_rank), (s_scaled, scale * s)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(8, 70), n=st.integers(8, 70), r=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), j=st.integers(-1000, 1000))
    @example(d=70, n=8, r=4, seed=0, j=-1000)
    @example(d=8, n=70, r=1, seed=1, j=1000)
    @example(d=40, n=50, r=2, seed=2, j=33)  # max|x| past 2**32: a rescaled working copy
    @example(d=60, n=50, r=2, seed=19, j=-30)
    @example(d=60, n=50, r=2, seed=19, j=20)
    @example(d=120, n=90, r=4, seed=1, j=-40)
    @example(d=60, n=50, r=2, seed=1, j=520)  # ||x||_F overflows to inf, max|x| is 6.1e157
    @example(d=120, n=90, r=4, seed=1, j=-200)  # below 1 the residual's squares would underflow
    @example(d=120, n=90, r=4, seed=1, j=-500)
    @example(d=120, n=90, r=4, seed=1, j=-1000)
    def test_power_of_two_scale_property(self, d, n, r, seed, j):
        # scaling by 2**j is exact while every entry stays normal, in float64
        # and in the float32 working copy; a scale-free solve then returns 2**j
        # times its outputs, bit for bit, in as many iterations, with a start
        # 2**-j times its own.  fffp runs float32 buffers at the default tol
        # and float64 buffers at 1e-6
        x = make_problem(d, n, r, 0.05, seed=seed).x
        scaled = np.ldexp(x, j)
        working = solvers._as_rows(scaled, np.float32)[0]
        assume(np.abs(scaled).min() >= np.finfo(np.float64).tiny
               and np.abs(working).min() >= np.finfo(np.float32).tiny)
        for solve, tol in ((solve_fffp, 1e-3), (solve_fffp, 1e-6), (solve_ialm, 1e-3)):
            cfg = SolverConfig(k=r, tol=tol)
            low_rank, s, report = solve(x, cfg)
            low_scaled, s_scaled, report_scaled = solve(scaled, cfg)
            case = (solve.__name__, tol)
            assert report_scaled.iterations == report.iterations, case
            assert report_scaled.rho0 == math.ldexp(report.rho0, -j), case
            assert np.array_equal(s_scaled, np.ldexp(s, j)), case
            if solve is solve_ialm:
                assert np.array_equal(low_scaled, np.ldexp(low_rank, j)), case
            else:
                assert np.array_equal(low_scaled.u, low_rank.u), case
                assert np.array_equal(low_scaled.v, low_rank.v), case
                assert np.array_equal(low_scaled.c, np.ldexp(low_rank.c, j)), case

    @pytest.mark.parametrize("max_iter", [200, 3], ids=["converged", "capped"])
    @pytest.mark.parametrize("solve, lam", [(solve_fffp, None), (solve_uffp, 0.5)],
                             ids=["fffp", "uffp"])
    def test_each_state_pairs_s_with_its_factors(self, solve, lam, max_iter, monkeypatch):
        # the factored solvers write the next s into a second buffer in the
        # residual pass; every state, and the result, must still hold the s
        # that the residual of its own factors was measured with
        monkeypatch.setattr(solvers, "ROW_BLOCK_ENTRIES", 7 * 50)
        x = make_problem(60, 50, 3, 0.08, seed=8).x
        for tol, rtol in ((1e-6, 1e-12), (1e-3, 1e-4)):  # float64, then float32 buffers
            states = []
            _, s, report = solve(x, SolverConfig(k=3, lam=lam, max_iter=max_iter, tol=tol),
                                 on_iteration=lambda state: states.append(
                                     state._replace(s=state.s.copy())))
            assert len(states) == report.iterations and report.converged == (max_iter == 200)
            for state in states:
                l = (state.u @ state.c) @ state.v.T
                # the float32 pass measures its residual against x cast to float32
                assert np.isclose(relative_residual(x.astype(state.s.dtype), l, state.s),
                                  state.residual, rtol=rtol, atol=0.0), state.t
            assert np.array_equal(states[-1].s, s)

    @pytest.mark.parametrize("solve, lam", [(solve_fffp, None), (solve_uffp, 0.5)],
                             ids=["fffp", "uffp"])
    def test_first_iteration_reads_zero_s(self, solve, lam):
        # a sparse step at the start's threshold max|x| on x - L0 keeps one
        # entry of this input, where |x - L0| exceeds max|x|; every solve
        # starts at s = 0 instead
        x = np.random.default_rng(2).standard_normal((5, 6))
        states = []
        solve(x, SolverConfig(k=1, lam=lam),
              on_iteration=lambda state: states.append(state.s.copy()))
        assert not np.any(states[0])

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 40), n=st.integers(1, 40), full=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(d=1, n=1, full=True, seed=0)
    @example(d=1, n=40, full=False, seed=1)
    @example(d=40, n=1, full=True, seed=2)
    @example(d=3, n=40, full=True, seed=3)
    @example(d=40, n=2, full=False, seed=4)
    @example(d=1, n=1, full=False, seed=5)  # ialm's residual is roundoff, ~7e-17
    def test_invariants_at_shape_extremes(self, d, n, full, seed):
        x = np.random.default_rng(seed).standard_normal((d, n))
        k = min(d, n) if full else 1
        cfg = SolverConfig(k=k, lam=1.0)
        # float64 buffers at the default tol; a tol below FLOAT32_TOL would leave
        # residuals near 1e-6, whose rounding exceeds the 1e-12 bound below
        with mock.patch.object(solvers, "FLOAT32_TOL", 1.0):
            fffp = solve_fffp(x, cfg)
            runs = {"fffp": fffp, "uffp": solve_uffp(x, cfg), "ialm": solve_ialm(x, cfg)}
            lam0 = solve_uffp(x, replace(cfg, lam=0.0))
        for name, (low_rank, s, report) in runs.items():
            l = low_rank if name == "ialm" else low_rank.dense()
            assert l.shape == s.shape == (d, n), name
            assert np.isfinite(l).all() and np.isfinite(s).all(), name
            assert np.isclose(report.final_residual, relative_residual(x, l, s),
                              rtol=1e-12, atol=0.0), name
            assert report.sparse_l1 == np.abs(s).sum(), name
            if name != "ialm":
                eye = np.eye(k)
                assert np.linalg.norm(low_rank.u.T @ low_rank.u - eye) <= 1e-8, name
                assert np.linalg.norm(low_rank.v.T @ low_rank.v - eye) <= 1e-8, name
                assert report.final_rank <= k, name
        factors, s, report = lam0
        for got, want in ((factors.u, fffp[0].u), (factors.c, fffp[0].c),
                          (factors.v, fffp[0].v), (s, fffp[1])):
            assert np.array_equal(got, want)
        assert report.iterations == fffp[2].iterations


def rounded_frames(height, width, frames, seed):
    """A static textured scene under per-frame gain, rounded to 8-bit gray
    levels, with a 245 block sliding across, one frame per float32 column
    (column-major, as ``load_frame_stack`` stacks them), and the true,
    unrounded background: ``(x, l_star)``."""
    rng = np.random.default_rng(seed)
    scene = rng.integers(60, 160, (height, width)).astype(np.float64)
    gain = rng.uniform(0.9, 1.1, frames)
    block_h, block_w = max(2, height // 6), max(2, width // 12)
    top = int(rng.integers(0, height - block_h))
    x = np.empty((height * width, frames), np.float32)
    l_star = np.empty((height * width, frames))
    for j in range(frames):
        frame = np.rint(gain[j] * scene)
        left = (width - block_w) * j // (frames - 1)
        frame[top:top + block_h, left:left + block_w] = 245.0
        x[:, j] = frame.ravel(order="F")
        l_star[:, j] = (gain[j] * scene).ravel(order="F")
    return x, l_star


class TestResidualBalancing:
    """The penalty grows by KAPPA_FAST while the primal residual exceeds
    BALANCE times the change of L, and by KAPPA otherwise."""

    @staticmethod
    def fixed_schedule(monkeypatch, solve, x, cfg):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "KAPPA_FAST", solvers.KAPPA)
            return solve(x, cfg)

    def test_plateau_of_rounded_frames(self, monkeypatch):
        # the rounding residual of 8-bit frames holds while L stands still, and
        # the sparse step absorbs it only once 1/rho falls below about half a
        # gray level; the fixed schedule waits 16 iterations for that
        x, l_star = rounded_frames(24, 32, 30, seed=1)
        cfg = SolverConfig(k=1)
        factors, _, report = solve_fffp(x, cfg)
        fixed, _, fixed_report = self.fixed_schedule(monkeypatch, solve_fffp, x, cfg)
        assert report.converged and fixed_report.converged
        assert (report.iterations, fixed_report.iterations) == (11, 16)
        assert recovery_error(factors.dense(), l_star) < recovery_error(fixed.dense(), l_star)

    def test_clean_problem_takes_no_fast_step(self, monkeypatch):
        prob = make_problem(400, 400, 5, 0.05, seed=7)
        cfg = SolverConfig(k=5)
        got = solve_fffp(prob.x, cfg)
        want = self.fixed_schedule(monkeypatch, solve_fffp, prob.x, cfg)
        for a, b in ((got[0].u, want[0].u), (got[0].c, want[0].c), (got[0].v, want[0].v),
                     (got[1], want[1])):
            assert np.array_equal(a, b)
        assert got[2].per_iter_residual == want[2].per_iter_residual

    def test_dense_noise_takes_fewer_iterations(self, monkeypatch):
        prob = make_problem(200, 200, 3, 0.05, seed=4)
        rms = np.sqrt(np.mean(prob.l_star**2))
        x = prob.x + np.random.default_rng(99).normal(0.0, 0.01 * rms, prob.x.shape)
        cfg = SolverConfig(k=3)
        factors, _, report = solve_fffp(x, cfg)
        fixed, _, fixed_report = self.fixed_schedule(monkeypatch, solve_fffp, x, cfg)
        assert report.converged and fixed_report.converged
        assert (report.iterations, fixed_report.iterations) == (17, 19)
        assert (recovery_error(factors.dense(), prob.l_star)
                <= recovery_error(fixed.dense(), prob.l_star))

    @SOLVERS
    def test_change_matches_the_dense_difference(self, solve, lam, monkeypatch):
        # per_iter_change[t-1] is ||L_t - L_{t-1}||_F / ||x||_F with L_0 = 0,
        # from the factors.  Its square is a difference of terms near
        # ||c||^2 / ||x||^2, about 1 here, so it is exact to about 1e-15 and the
        # change to 1e-6 relative from about 1e-5 up (2e-6 relative at 4.1e-6
        # on solve_ialm's iterates here)
        x = make_problem(60, 50, 3, 0.08, seed=8).x
        cfg = SolverConfig(k=4, lam=lam, tol=1e-6)
        lows = []
        if solve is solve_ialm:
            real = solvers._svt_step

            def recording(*args):
                out = real(*args)
                lows.append((out[0] * out[1]) @ out[2].T)
                return out

            monkeypatch.setattr(solvers, "_svt_step", recording)
            _, _, report = solve(x, cfg)
        else:
            _, _, report = solve(x, cfg, on_iteration=lambda state: lows.append(
                (state.u @ state.c) @ state.v.T))
        assert len(lows) == len(report.per_iter_change) == len(report.per_iter_residual)
        dense = [np.linalg.norm(b - a) / np.linalg.norm(x)
                 for a, b in zip([np.zeros_like(x)] + lows, lows)]
        for got, want in zip(report.per_iter_change, dense):
            assert abs(got**2 - want**2) <= 1e-14
            if want > 1e-5:
                assert got == pytest.approx(want, rel=1e-6, abs=0.0)
        assert sum(want > 1e-5 for want in dense) >= 5


class TestLoopInvariants:
    """Per-iteration contracts checked through the snapshot callback."""

    @staticmethod
    def run_with_snapshots(lam=None):
        prob = make_problem(50, 45, 3, 0.08, seed=4)
        cfg = SolverConfig(k=3, lam=lam, tol=1e-6)  # below FLOAT32_TOL: float64 buffers
        snaps = []
        copy = lambda st: snaps.append(
            (st.t, st.s.copy(), st.u.copy(), st.c.copy(), st.v.copy(), st.theta.copy(), st.rho)
        )
        solve = solve_fffp if lam is None else solve_uffp
        _, _, report = solve(prob.x, cfg, on_iteration=copy)
        return prob, cfg, report.rho0, snaps

    def test_rho_schedule(self):
        # residual balancing, with the dense change of L and the residual of
        # each snapshot's own s and factors
        prob, _, rho0, snaps = self.run_with_snapshots()
        rhos = [rho0] + [snap[6] for snap in snaps]
        ceiling = solvers.RHO_CAP * rho0
        lows = [np.zeros_like(prob.x)] + [(u @ c) @ v.T for _, _, u, c, v, _, _ in snaps]
        residuals = [relative_residual(prob.x, l, snap[1]) for l, snap in zip(lows[1:], snaps)]
        for t, (prev, cur) in enumerate(zip(rhos, rhos[1:]), 1):
            change = np.linalg.norm(lows[t] - lows[t - 1]) / np.linalg.norm(prob.x)
            fast = t >= 2 and solvers.BALANCE * change < residuals[t - 2]
            growth = solvers.KAPPA_FAST if fast else solvers.KAPPA
            assert np.isclose(cur, min(prev * growth, ceiling))
            assert cur > prev or prev == ceiling

    def test_sparse_update_minimizes_lagrangian(self):
        # The sparse step is the exact minimizer of
        #   |s|_1 + rho/2 * ||x - l - s + theta/rho||_F^2
        # at the factors it saw, so nudging entries can only raise the value.
        prob, cfg, rho0, snaps = self.run_with_snapshots()
        rng = np.random.default_rng(0)
        prev_theta, prev_rho = np.zeros_like(prob.x), rho0
        prev_low_rank = init_factors(prob.x, cfg.k, cfg.seed).dense()

        def lagrangian(s, low_rank, theta, rho):
            fit = prob.x - low_rank - s + theta / rho
            return np.abs(s).sum() + 0.5 * rho * (fit**2).sum()

        for t, s, u, c, v, theta, rho in snaps:
            base = lagrangian(s, prev_low_rank, prev_theta, prev_rho)
            for _ in range(10):
                bumped = s.copy()
                i = rng.integers(s.shape[0])
                j = rng.integers(s.shape[1])
                bumped[i, j] += rng.choice([-1e-3, 1e-3])
                value = lagrangian(bumped, prev_low_rank, prev_theta, prev_rho)
                assert value >= base - 1e-9 * max(1.0, abs(base))
            prev_theta, prev_rho = theta, rho
            prev_low_rank = (u @ c) @ v.T

    def test_procrustes_updates_never_decrease_trace(self):
        prob, cfg, rho0, snaps = self.run_with_snapshots()
        init = init_factors(prob.x, cfg.k, cfg.seed)
        prev_u, prev_c, prev_v = init.u, init.c, init.v
        prev_theta, prev_rho = np.zeros_like(prob.x), rho0
        for t, s, u, c, v, theta, rho in snaps:
            m = prob.x - s + prev_theta / prev_rho
            target_v = m.T @ (prev_u @ prev_c)
            assert np.trace(v.T @ target_v) >= np.trace(prev_v.T @ target_v) - 1e-9
            target_u = m @ (v @ prev_c.T)
            assert np.trace(u.T @ target_u) >= np.trace(prev_u.T @ target_u) - 1e-9
            prev_u, prev_c, prev_v = u, c, v
            prev_theta, prev_rho = theta, rho

    def test_orthonormal_every_iteration(self):
        for lam in (None, 3.0):
            _, cfg, _, snaps = self.run_with_snapshots(lam)
            eye = np.eye(cfg.k)
            for _, _, u, _, v, _, _ in snaps:
                assert np.linalg.norm(u.T @ u - eye) <= 1e-8
                assert np.linalg.norm(v.T @ v - eye) <= 1e-8

    def test_core_rank_never_exceeds_k(self):
        _, cfg, _, snaps = self.run_with_snapshots(lam=3.0)
        for _, _, _, c, _, _, _ in snaps:
            assert c.shape == (cfg.k, cfg.k)
            assert np.linalg.matrix_rank(c) <= cfg.k


class TestUffp:
    def test_zero_lam_matches_fffp_bitwise(self):
        # float64 data in float64 buffers (tol below FLOAT32_TOL) and in float32
        # ones (the default tol), and float32 data, which solves in float32
        for dtype, tol, buffers in ((np.float64, 1e-6, np.float64),
                                    (np.float64, 1e-3, np.float32),
                                    (np.float32, 1e-3, np.float32)):
            x = make_problem(50, 40, 2, 0.08, seed=5).x.astype(dtype)
            cfg_f = SolverConfig(k=2, tol=tol)
            cfg_u = SolverConfig(k=2, lam=0.0, tol=tol)
            trace_f, trace_u = [], []
            grab = lambda store: lambda st: store.append(
                (st.s.copy(), st.u.copy(), st.c.copy(), st.v.copy(), st.theta.copy())
            )
            rf = solve_fffp(x, cfg_f, on_iteration=grab(trace_f))
            ru = solve_uffp(x, cfg_u, on_iteration=grab(trace_u))
            assert rf[1].dtype == ru[1].dtype == dtype
            assert trace_f[-1][0].dtype == trace_f[-1][4].dtype == buffers
            assert len(trace_f) == len(trace_u)
            for snap_f, snap_u in zip(trace_f, trace_u):
                for a, b in zip(snap_f, snap_u):
                    assert np.array_equal(a, b)
            assert ru[2].svd_count == rf[2].svd_count

    def test_objective_includes_surrogate(self):
        prob = make_problem(60, 60, 2, 0.05, seed=6)
        lam = 0.1 * np.linalg.norm(prob.x, 2)
        factors, s, report = solve_uffp(prob.x, SolverConfig(k=6, lam=lam))
        from robustpca.linalg import log_det_surrogate

        want = np.abs(s).sum() + lam * log_det_surrogate(factors.c)
        assert np.isclose(report.final_objective, want)
        assert report.svd_count == 3 * report.iterations

    @staticmethod
    def dropping_problem():
        """A rank-3 problem at k = 8 whose uffp run keeps rank 3."""
        prob = make_problem(150, 150, 3, 0.05, seed=12)
        return prob, SolverConfig(k=8, lam=0.2 * np.linalg.norm(prob.x, 2))

    def test_kept_rank_iterate_is_padded_to_k(self):
        prob, cfg = self.dropping_problem()
        widths = []
        factors, _, report = solve_uffp(prob.x, cfg, on_iteration=lambda st: widths.append(
            (st.u.shape[1], st.c.shape, st.v.shape[1])))
        r = report.final_rank
        assert r == 3
        # every iterate carries only its kept directions, with a diagonal core
        assert all(c == (w, w) and wv == w for w, c, wv in widths)
        assert [w for w, _, _ in widths] == [r] * report.iterations
        # the result has k columns again: orthonormal, and zero core outside r x r
        assert factors.u.shape == factors.v.shape == (150, cfg.k)
        assert factors.c.shape == (cfg.k, cfg.k)
        for a in (factors.u, factors.v):
            assert np.linalg.norm(a.T @ a - np.eye(cfg.k)) <= solvers.ORTHO_TOL
        assert not np.any(factors.c[r:]) and not np.any(factors.c[:, r:])
        assert np.all(np.diag(factors.c)[:r] > 0.0)

    def test_widths_never_grow(self):
        # on these problems the first shrink fixes the width; a later step may
        # only drop further, never bring a direction back
        prob = make_problem(80, 70, 3, 0.1, seed=19)
        for lam in default_lambda_grid(prob.x):
            widths = []
            solve_uffp(prob.x, SolverConfig(k=10, lam=float(lam)),
                       on_iteration=lambda st: widths.append(st.c.shape[0]))
            assert all(a >= b for a, b in zip([10] + widths, widths)), lam

    def test_kept_rank_loop_matches_width_k_reference(self, monkeypatch):
        # the default tol takes float32 buffers; float64 ones are forced here
        monkeypatch.setattr(solvers, "FLOAT32_TOL", 1.0)
        self.check_kept_rank_loop_against_width_k_reference("float64")

    def test_kept_rank_loop_in_float32_buffers_matches_width_k_reference(self):
        self.check_kept_rank_loop_against_width_k_reference("float32")

    def check_kept_rank_loop_against_width_k_reference(self, buffers):
        # the uffp iteration written out of place at width k, with the zeroed
        # directions carried.  Before each shrink that loop's core couples the
        # kept directions to the free ones (u_kept.T @ m @ v_free), terms of the
        # order of the residual, which rotate what it keeps; so the two agree
        # to the solve's accuracy, here 1.8e-6 of max|L|, not to rounding
        prob, cfg = self.dropping_problem()
        x, k = prob.x, cfg.k
        u, c, v, s_ref, _, _, t = out_of_place_reference(
            x, cfg, lambda core, rho: ld_shrink(core, cfg.lam / rho))
        l_ref = (u @ c) @ v.T
        factors, s, report = solve_uffp(x, cfg)
        assert report.buffer_dtype == buffers
        assert report.converged and report.iterations == t
        assert report.final_rank == np.linalg.matrix_rank(c) < k
        assert np.max(np.abs(factors.dense() - l_ref)) <= 1e-5 * np.max(np.abs(l_ref))
        assert np.max(np.abs(s - s_ref)) <= 1e-5 * np.max(np.abs(x))

    def test_log_det_map_at_overflowing_scale(self):
        # lam is in the data's units, so the log-det map runs at the data's
        # scale, where sigma**2 overflows at 2**520; the solve there is 2**70
        # times the one at 2**450, bit for bit, in as many iterations
        x = make_problem(60, 50, 2, 0.05, seed=1).x
        cfg = SolverConfig(k=4, lam=0.5)
        factors, s, report = solve_uffp(x * 2.0**450, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled, s_scaled, report_scaled = solve_uffp(x * 2.0**520, cfg)
        assert report.iterations == report_scaled.iterations == 12
        assert report.final_rank == report_scaled.final_rank == 4
        assert np.array_equal(scaled.u, factors.u) and np.array_equal(scaled.v, factors.v)
        assert np.array_equal(scaled.c, factors.c * 2.0**70)
        assert np.array_equal(s_scaled, s * 2.0**70)

    def test_full_collapse_takes_no_factorization_after_iteration_1(self, monkeypatch):
        prob = make_problem(60, 50, 2, 0.05, seed=8)
        cfg = SolverConfig(k=4, lam=100.0 * np.linalg.norm(prob.x, 2), tol=1e-6)  # float64
        init = init_factors(prob.x, cfg.k, cfg.seed)
        monkeypatch.setattr(solvers, "init_factors", lambda *args: init)
        events = []
        polar, svd = solvers.polar_orthogonal, solvers._svd
        monkeypatch.setattr(solvers, "polar_orthogonal",
                            lambda a: events.append("factorization") or polar(a))
        monkeypatch.setattr(solvers, "_svd", lambda a: events.append("factorization") or svd(a))
        widths = []

        def on_iteration(state):
            widths.append(state.c.shape[0])
            events.append("iteration %d" % state.t)

        factors, s, report = solve_uffp(prob.x, cfg, on_iteration)
        assert events[:4] == ["factorization"] * 3 + ["iteration 1"]
        assert events[4:] == ["iteration %d" % t for t in range(2, report.iterations + 1)]
        assert report.svd_count == 3 and report.final_rank == 0
        assert widths == [0] * report.iterations
        assert report.final_objective == report.sparse_l1
        assert factors.u.shape == (60, 4) and factors.v.shape == (50, 4)
        for a in (factors.u, factors.v):
            assert np.linalg.norm(a.T @ a - np.eye(cfg.k)) <= solvers.ORTHO_TOL
        assert not np.any(factors.c) and not np.any(factors.dense())
        # every residual, the last included, is measured against L = 0
        assert np.isclose(relative_residual(prob.x, 0.0 * prob.x, s), report.final_residual,
                          rtol=1e-12, atol=0.0)

    def test_overspecified_k_recovers_true_rank(self):
        prob = make_problem(200, 200, 5, 0.05, seed=7)
        entries, selected = lambda_sweep(prob.x, SolverConfig(k=25))
        hits = [
            e
            for e in entries
            if e.report.final_rank == 5
            and recovery_error(e.factors.dense(), prob.l_star) <= 1e-2
        ]
        assert hits
        assert entries[selected].report.final_rank == 5

    def test_sweep_builds_init_once(self, monkeypatch):
        prob = make_problem(60, 60, 2, 0.05, seed=8)
        cfg = SolverConfig(k=6, tol=1e-6)  # below FLOAT32_TOL: float64 buffers
        calls = []
        real = solvers.init_factors
        monkeypatch.setattr(solvers, "init_factors", lambda *a: calls.append(a) or real(*a))
        entries, _ = lambda_sweep(prob.x, cfg)
        assert len(calls) == 1
        monkeypatch.undo()
        # the shared init is the one each solve would build on its own
        _, s, report = solve_uffp(prob.x, replace(cfg, lam=entries[4].lam))
        assert np.array_equal(entries[4].s, s)
        assert entries[4].report.iterations == report.iterations

    def test_sweep_keeps_sparse_parts_below_half_density_compact(self):
        # entries 0-10 are 4.9-6.7% dense, entries 11 and 12 collapse (98.1%);
        # below FLOAT32_TOL the sweep and solve_uffp run float64 buffers
        prob = make_problem(60, 60, 2, 0.05, seed=8)
        cfg = SolverConfig(k=6, tol=1e-6)
        entries, _ = lambda_sweep(prob.x, cfg)
        compact = [isinstance(e.sparse, tuple) for e in entries]
        assert compact == [e.report.sparsity_ratio < 0.5 for e in entries]
        assert compact == [True] * 11 + [False] * 2
        index, values = entries[4].sparse
        # int32 indices, since d * n < 2**31, and values in the float64 buffers' dtype
        assert index.dtype == np.int32 and values.dtype == np.float64
        assert values.size == index.size
        for i in (4, 12):  # one compact entry, one dense
            _, s, _ = solve_uffp(prob.x, replace(cfg, lam=entries[i].lam))
            got = entries[i].s
            assert got.dtype == s.dtype and got.shape == s.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == s.tobytes()  # every zero is +0.0, as in the solve
        assert entries[12].s is entries[12].sparse
        assert entries[4].s is not entries[4].s  # a compact entry expands per access

    def test_sweep_memory_with_compact_sparse_parts(self):
        # in units of x: 13 dense float64 sparse parts would peak at 16.4 and
        # hold 15.6 on return.  The default tol solves in float32 buffers, on
        # a float32 copy of x, and each entry keeps its part as the solve left
        # it: the 11 healthy ones (4.8-5.1% dense) compact, as int32 indices
        # and float32 values, and the 2 collapsed ones as their float32
        # buffers.  The sweep peaks at 5.4 and holds 4.1, 1.6 of it the 13
        # factor sets.  Stored as float64 with int64 indices they peaked at
        # 6.5 and held 5.7 (float64 buffers peaked at 7.9)
        x = make_problem(400, 400, 5, 0.05, seed=3).x
        unit = x.itemsize * x.size
        tracemalloc.start()
        try:
            entries, _ = lambda_sweep(x, SolverConfig(k=25))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * unit
        assert held <= 5 * unit
        assert sum(isinstance(e.sparse, tuple) for e in entries) == 11

    def test_sweep_memory_on_float32_data(self):
        # in units of the float64 x, as above: float32 data keeps its sparse
        # parts in float32, as solve_uffp returns them, and solves on x
        # itself, so the sweep peaks at 4.9 and holds 3.2 on return.  Upcast
        # to float64, they peaked at 6.5 and held 4.8
        x = make_problem(400, 400, 5, 0.05, seed=3).x
        unit = x.itemsize * x.size
        x = x.astype(np.float32)
        tracemalloc.start()
        try:
            entries, _ = lambda_sweep(x, SolverConfig(k=25))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * unit
        assert held <= 4 * unit
        assert {e.s.dtype for e in entries} == {np.dtype(np.float32)}

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale, dtype, tol", [
        (1.0, np.float64, 1e-3), (2.0**520, np.float64, 1e-3), (2.0**520, np.float64, 1e-6),
        (2.0**-600, np.float64, 1e-3), (2.0**-600, np.float64, 1e-6), (1.0, np.float32, 1e-3),
    ], ids=["float64", "x2^520", "x2^520_tol1e-6", "x2^-600", "x2^-600_tol1e-6", "float32"])
    def test_sweep_entries_keep_the_solve_precision(self, scale, dtype, tol):
        # each entry stores its sparse part in the buffers' dtype and the
        # working matrix's units, and converts it on each access as solve_uffp
        # converts its own: at 2**520 every entry collapses and stays dense, so
        # in float64 buffers a conversion in place would scale it twice
        x = (make_problem(60, 50, 2, 0.05, seed=1).x * scale).astype(dtype)
        cfg = SolverConfig(k=4, tol=tol)
        entries, _ = lambda_sweep(x, cfg)
        buffers = np.float32 if tol >= solvers.FLOAT32_TOL else np.float64
        compact = [isinstance(e.sparse, tuple) for e in entries]
        if scale == 1.0:
            assert any(compact) and not all(compact)
        for e in entries:
            if isinstance(e.sparse, tuple):
                index, values = e.sparse
                assert index.dtype == np.int32 and values.dtype == buffers
            else:
                assert e.sparse.dtype == buffers
            want = solve_uffp(x, replace(cfg, lam=e.lam))[1]
            for _ in range(2):
                got = e.s
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1 + 1e-12, 1 + 1e-6])
    @pytest.mark.parametrize("shape, k", [((200, 200), 25), ((300, 120), 10)],
                             ids=["200x200", "300x120"])
    def test_selection_survives_a_perturbed_grid(self, monkeypatch, shape, k, scale):
        # a grid moved by round-off changes entry ranks, iteration counts and
        # even the selected index; the selected rank and its recovery must hold
        prob = make_problem(*shape, 5, 0.05, seed=7)
        real = solvers.default_lambda_grid
        monkeypatch.setattr(solvers, "default_lambda_grid", lambda x: scale * real(x))
        entries, selected = lambda_sweep(prob.x, SolverConfig(k=k))
        chosen = entries[selected]
        assert chosen.lam == scale * real(prob.x)[selected]
        assert chosen.report.final_rank == 5
        assert recovery_error(chosen.factors.dense(), prob.l_star) <= 1e-2

    @pytest.mark.xfail(strict=True, reason="over-rank runs pull the mass gate's median down")
    def test_selection_with_k_far_above_the_rank(self):
        # 8 of the 11 candidates keep rank 3-21 and fold the 1% corruption into
        # spare directions, so their sparse parts are light and the median l1
        # mass is low; the rank-1 runs (recovery 8e-5, density 0.010) carry
        # l1 mass 210, above the gate of 1.5x the median (63), and the sweep
        # takes an over-rank run (rank 13, recovery 0.57)
        prob = make_problem(60, 60, 1, 0.01, seed=894423679)
        entries, selected = lambda_sweep(prob.x, SolverConfig(k=21))
        chosen = entries[selected]
        assert chosen.report.final_rank == 1
        assert recovery_error(chosen.factors.dense(), prob.l_star) <= 1e-2

    @pytest.mark.xfail(strict=True, reason="the surrogate log(1 + sigma) is not homogeneous")
    @pytest.mark.parametrize("scale", ["1/sigma_1", 2.0**-8])
    def test_selection_on_small_scale_data(self, scale):
        # at scale 1 the sweep selects rank 5 at recovery 3.0e-4; at both
        # scales here it selects entry 0, rank 25 at recovery 0.472
        prob = make_problem(200, 200, 5, 0.05, seed=7)
        if scale == "1/sigma_1":
            scale = 1.0 / np.linalg.norm(prob.x, 2)
        entries, selected = lambda_sweep(prob.x * scale, SolverConfig(k=25))
        chosen = entries[selected]
        assert chosen.report.final_rank == 5
        assert recovery_error(chosen.factors.dense(), prob.l_star * scale) <= 1e-2

    @pytest.mark.xfail(strict=True, reason="the log-det map's threshold lam*2**e/rho, in the "
                       "data's units, overflows to inf at 2**520")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_sweep_at_overflowing_scale(self):
        # at 2**450 the entries keep ranks 10, 5, 5, 5, 2, then 0, and the sweep
        # selects entry 1, rank 5; at 2**520 the map forms inf - inf, every
        # entry collapses to rank 0, and the sweep selects entry 0
        x = make_problem(300, 120, 5, 0.05, seed=7).x
        entries, selected = lambda_sweep(x * 2.0**520, SolverConfig(k=10))
        assert entries[selected].report.final_rank == 5

    def test_no_converged_run_selects_the_smallest_residual(self):
        # two iterations converge no entry, so no gate applies
        x = make_problem(60, 50, 2, 0.05, seed=1).x
        entries, selected = lambda_sweep(x, SolverConfig(k=4, max_iter=2))
        residuals = [e.report.final_residual for e in entries]
        assert not any(e.report.converged for e in entries)
        assert selected == residuals.index(min(residuals))

    def test_default_grid_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            default_lambda_grid(np.zeros((4, 4)))

    def test_default_grid_takes_no_full_svd(self, monkeypatch):
        # the anchor is a seeded rank-1 estimate of sigma_1, not a full SVD
        x = make_problem(400, 400, 5, 0.05, seed=7).x
        svd_shapes, spectral_norms = [], []
        real_svd, real_norm = np.linalg.svd, np.linalg.norm
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, *rest, **kw: svd_shapes.append(np.shape(a))
                            or real_svd(a, *rest, **kw))
        monkeypatch.setattr(np.linalg, "norm",
                            lambda a, ord=None, *rest, **kw: spectral_norms.append(ord == 2)
                            or real_norm(a, ord, *rest, **kw))
        grid = default_lambda_grid(x)
        monkeypatch.undo()
        assert svd_shapes and max(min(shape) for shape in svd_shapes) < 400
        assert not any(spectral_norms)
        anchor = grid[list(solvers._GRID_EXPONENTS).index(0.0)]
        assert abs(anchor - np.linalg.norm(x, 2)) <= 1e-9 * np.linalg.norm(x, 2)

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(8, 120), n=st.integers(8, 120), r=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), j=st.integers(-1000, 1000))
    @example(d=120, n=90, r=4, seed=1, j=-1000)  # min(d, n) > 73: a range-finder anchor
    @example(d=60, n=50, r=2, seed=1, j=-600)
    @example(d=120, n=90, r=4, seed=1, j=520)
    @example(d=8, n=70, r=1, seed=1, j=1000)
    def test_default_grid_power_of_two_scale_property(self, d, n, r, seed, j):
        # the anchor is taken on the entry gate's working matrix and the grid
        # scaled back, so scaling x by 2**j, exact while every entry stays
        # normal, scales the grid bit for bit
        x = make_problem(d, n, r, 0.05, seed=seed).x
        scaled = np.ldexp(x, j)
        assume(np.abs(scaled).min() >= np.finfo(np.float64).tiny)
        assert np.array_equal(default_lambda_grid(scaled), np.ldexp(default_lambda_grid(x), j))


def with_entry(value):
    x = make_problem(20, 15, 2, 0.05, seed=16).x
    x[3, 4] = value
    return x


ENTRY_POINTS = {
    "solve_fffp": lambda x: solve_fffp(x, SolverConfig(k=2)),
    "solve_uffp": lambda x: solve_uffp(x, SolverConfig(k=2, lam=0.5)),
    "solve_ialm": lambda x: solve_ialm(x, SolverConfig(k=2)),
    "init_factors": lambda x: init_factors(x, 2),
    "default_lambda_grid": default_lambda_grid,
    "lambda_sweep": lambda x: lambda_sweep(x, SolverConfig(k=2)),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "empty"])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_non_finite_or_empty_input_rejected(name, bad):
    x = np.empty((0, 15)) if bad == "empty" else with_entry(float(bad))
    with pytest.raises(ValueError, match="non-finite|nonempty"):
        ENTRY_POINTS[name](x)


@pytest.mark.parametrize("scale", [0.0, 1e-170], ids=["zero", "underflow"])
@pytest.mark.parametrize("name", ["solve_fffp", "solve_uffp", "solve_ialm", "lambda_sweep"])
def test_zero_norm_rejected_before_any_draw(name, scale, monkeypatch):
    # at 160x150 the range finder serves init_factors, ialm's first step and
    # the sweep's grid, so it would be the first random draw of every solve.
    # The 1e-170 input, whose float64 norm underflows to 0, is not zero, so
    # it is not refused: its solve reaches that draw
    class Drawn(Exception):
        pass

    def no_draw(*args):
        raise Drawn

    monkeypatch.setattr(solvers, "_range_basis", no_draw)
    x = scale * np.random.default_rng(18).standard_normal((160, 150))
    assert np.linalg.norm(x) == 0.0
    with pytest.raises(ValueError if scale == 0.0 else Drawn,
                       match="zero Frobenius norm" if scale == 0.0 else None):
        ENTRY_POINTS[name](x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("data", ["float64", "float32", "2**520", "2**-600"])
def test_entry_gate_max_is_that_of_its_working_matrix(data, dtype):
    # the factored solves start from 1/max|x| with the gate's max|x| and do
    # not scan the working matrix again, so the two agree bit for bit, cast
    # to float32 or not, rescaled or not
    x = make_problem(30, 20, 2, 0.1, seed=4).x
    x = {"float64": x, "float32": x.astype(np.float32),
         "2**520": np.ldexp(x, 520), "2**-600": np.ldexp(x, -600)}[data]
    working, e, _, top = solvers._as_rows(x, dtype)
    assert working.dtype == dtype and (e != 0) == data.startswith("2**")
    assert top == float(max(working.max(), -working.min()))


class TestRecoveryMap:
    """Cells of tools/recovery_map.py: make_problem(200, 200, r, f, seed=11)
    swept with k >= r.  A cell passes when the sweep selects rank r at
    recovery at most 1e-2."""

    @staticmethod
    def sweep(r, k, fraction):
        prob = make_problem(200, 200, r, fraction, seed=11)
        entries, selected = lambda_sweep(prob.x, SolverConfig(k=k))
        chosen = entries[selected]
        return prob, entries, chosen.report.final_rank, recovery_error(
            chosen.factors.dense(), prob.l_star)

    @pytest.mark.parametrize("r, k, fraction", [(2, 17, 0.05), (5, 20, 0.2), (10, 25, 0.05),
                                                (10, 10, 0.2)])
    def test_sweep_recovers_the_rank(self, r, k, fraction):
        _, _, rank, error = self.sweep(r, k, fraction)
        assert rank == r and error <= 1e-2

    @pytest.mark.xfail(strict=True, reason="selection failure: the gates pass a partial "
                                           "collapse although a rank-2 entry exists")
    def test_selection_at_20_percent_with_k_above_the_rank(self):
        # entry 10 has rank 2 at recovery 5.8e-4; the over-rank entries 0-9
        # are 42-50% dense, which lifts both medians, and the sweep takes
        # entry 11 (rank 1, recovery 0.66, density 0.96)
        prob, entries, rank, error = self.sweep(2, 17, 0.2)
        assert any(e.report.final_rank == 2
                   and recovery_error(e.factors.dense(), prob.l_star) <= 1e-2 for e in entries)
        assert rank == 2 and error <= 1e-2

    @pytest.mark.xfail(strict=True, reason="grid failure: no grid weight reaches rank 10")
    @pytest.mark.parametrize("k", [15, 25])
    def test_rank_10_plateau_between_grid_points(self, k):
        # entry 9 (exponent -0.75) keeps rank k and entry 10 (-0.5) falls to
        # rank 9; the rank-10 plateau lies near -0.53, narrower than the grid
        # step, and the sweep selects rank 15 (k = 15) or 9 (k = 25)
        _, _, rank, error = self.sweep(10, k, 0.2)
        assert rank == 10 and error <= 1e-2


class TestIalm:
    def test_synthetic_recovery_and_cross_solver_agreement(self):
        prob = make_problem(200, 200, 5, 0.05, seed=9)
        l_ialm, s_ialm, report = solve_ialm(prob.x, SolverConfig(k=5))
        assert recovery_error(l_ialm, prob.l_star) <= 1e-2
        factors, _, _ = solve_fffp(prob.x, SolverConfig(k=5))
        assert recovery_error(l_ialm, factors.dense()) <= 1e-2

    def test_report_bookkeeping(self):
        prob = make_problem(50, 40, 2, 0.05, seed=10)
        _, _, report = solve_ialm(prob.x, SolverConfig(k=2))
        assert report.svd_count == report.iterations

    def test_deterministic(self):
        prob = make_problem(40, 40, 2, 0.1, seed=11)
        a = solve_ialm(prob.x, SolverConfig(k=2))
        b = solve_ialm(prob.x, SolverConfig(k=2))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_reads_no_k(self):
        # the convex baseline has no rank parameter, so k is neither read nor checked
        x = make_problem(120, 90, 4, 0.05, seed=12).x
        l, s, report = solve_ialm(x, SolverConfig(k=1))
        for k in (90, None, 91):
            got_l, got_s, got = solve_ialm(x, SolverConfig(k=k))
            assert np.array_equal(got_l, l) and np.array_equal(got_s, s)
            assert replace(got, wall_time=0.0) == replace(report, wall_time=0.0)

    def test_seeded_partial_path_is_bit_reproducible(self):
        prob = make_problem(200, 180, 4, 0.05, seed=14)
        a = solve_ialm(prob.x, SolverConfig(k=4, seed=3))
        b = solve_ialm(prob.x, SolverConfig(k=4, seed=3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert a[2].svd_count == b[2].svd_count
        # the seed only picks the Gaussian padding of the range finder
        c = solve_ialm(prob.x, SolverConfig(k=4, seed=4))
        assert c[2].iterations == a[2].iterations
        assert np.linalg.norm(c[0] - a[0]) <= 1e-8 * np.linalg.norm(a[0])

    def test_report_reads_the_last_threshold_step(self):
        prob = make_problem(220, 200, 6, 0.05, seed=15)
        l, s, report = solve_ialm(prob.x, SolverConfig(k=6))
        sigma = np.linalg.svd(l, compute_uv=False)
        lam = 1.0 / np.sqrt(220)
        assert report.final_rank == int((sigma > 1e-6 * sigma[0]).sum()) == 6
        assert np.isclose(report.final_objective, sigma.sum() + lam * np.abs(s).sum(),
                          rtol=1e-12, atol=0.0)

    def test_flat_spectrum_forces_a_widened_retry(self):
        # thirty equal singular values cross the threshold in one iteration,
        # more than the predicted width holds, so that step runs twice
        rng = np.random.default_rng(16)
        for d, n in ((240, 200), (200, 240)):
            l_star = prescribed(d, n, np.full(30, 50.0), seed=d)
            corrupt = rng.random((d, n)) < 0.05
            x = l_star + np.where(corrupt, rng.uniform(-1.0, 1.0, (d, n)), 0.0)
            l, _, report = solve_ialm(x, SolverConfig(k=1))
            assert report.converged and report.final_rank == 30
            assert report.svd_count > report.iterations
            assert recovery_error(l, l_star) <= 1e-2

    def test_divergence_error_names_iteration(self, monkeypatch):
        prob = make_problem(40, 40, 2, 0.1, seed=3)
        real = solvers._svt_step
        calls = []

        def poisoned(*args):
            # the singular-value step of the second iteration yields a NaN entry
            out = real(*args)
            calls.append(out)
            if len(calls) == 2:
                out[0][0, 0] = np.nan  # left, a fresh array
            return out

        monkeypatch.setattr(solvers, "_svt_step", poisoned)
        with pytest.raises(DivergenceError, match=r"non-finite iterate at iteration 2$"):
            solve_ialm(prob.x, SolverConfig(k=2))

    def test_start_reads_sigma_1_from_the_partial_first_step(self):
        # 180 columns: the first step's width 20 takes the range finder, whose
        # top Ritz value reads sigma_1 to 8.4e-12 relative here
        x = make_problem(200, 180, 4, 0.05, seed=14).x
        _, _, report = solve_ialm(x, SolverConfig(k=4, max_iter=1))
        want = 1.25 / np.linalg.norm(x, 2)
        assert abs(report.rho0 - want) <= 1e-10 * want

    @pytest.mark.parametrize("shape", [(400, 400), (200, 180)])
    def test_warm_steps_keep_the_exact_rank(self, shape, monkeypatch):
        # the steps continue one subspace iteration across the solve: each
        # keeps the rank of the exact svt of its input, and the last one,
        # whose input has converged, matches svt to round-off
        prob = make_problem(*shape, 5, 0.05, seed=21)
        real = solvers._svt_step
        steps = []

        def recording(m, tau, *rest):
            out = real(m, tau, *rest)
            sigma = np.linalg.svd(m, compute_uv=False)
            steps.append((out[1].size, int((sigma > tau).sum()), out[3].shape[1]))
            recording.last = m.copy(), tau, out, sigma[0]
            return out

        monkeypatch.setattr(solvers, "_svt_step", recording)
        _, _, report = solve_ialm(prob.x, SolverConfig(k=5))
        assert report.converged and len(steps) == report.iterations
        for kept, exact, width in steps:
            assert kept == exact and width < 0.15 * min(shape)  # the partial path
        m, tau, (u, shrunk, v, *_), sigma_1 = recording.last
        assert np.max(np.abs((u * shrunk) @ v.T - svt(m, tau))) <= 1e-10 * sigma_1

    def test_buffered_loop_matches_out_of_place_reference(self):
        prob = make_problem(180, 160, 3, 0.05, seed=17)
        cfg = SolverConfig(k=3)
        x = prob.x
        lam = 1.0 / np.sqrt(180)
        # the IALM iteration written out of place around the same
        # thresholding step, one fresh array per step
        rng = np.random.default_rng(cfg.seed)
        rank, basis = solvers.SVT_START_RANK, None
        # the default start: 1.25/sigma_1 from the first step's factorization of x,
        # which the first step reuses; each step starts from the last Ritz basis
        first = solvers._ritz_triplets(x, rank, None, rng)
        rho = 1.25 / first.s[0]
        ceiling = solvers.RHO_CAP * rho
        s, theta = np.zeros_like(x), np.zeros_like(x)
        l_prev, residual = np.zeros_like(x), None
        for t in range(1, cfg.max_iter + 1):
            u, shrunk, v_kept, basis, rank, _ = solvers._svt_step(
                x - s + theta / rho, 1.0 / rho, rank, basis, rng, first if t == 1 else None)
            l_ref = (u * shrunk) @ v_kept.T
            # residual balancing: the dense change of L against the last residual
            fast = residual is not None and (
                solvers.BALANCE * np.linalg.norm(l_ref - l_prev) / np.linalg.norm(x) < residual)
            m = x - l_ref + theta / rho
            s = np.sign(m) * np.maximum(np.abs(m) - lam / rho, 0.0)
            r = x - l_ref - s
            theta = theta + rho * r
            rho = min(rho * (solvers.KAPPA_FAST if fast else solvers.KAPPA), ceiling)
            l_prev, residual = l_ref, np.linalg.norm(r) / np.linalg.norm(x)
            if residual <= cfg.tol:
                break
        l, s_got, report = solve_ialm(x, cfg)
        assert report.converged and report.iterations == t
        assert np.max(np.abs(l - l_ref)) <= 1e-12
        assert np.max(np.abs(s_got - s)) <= 1e-12


def prescribed(d, n, sigma, seed):
    """A (d, n) matrix with singular values ``sigma`` and random singular vectors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, len(sigma))))
    v, _ = np.linalg.qr(rng.standard_normal((n, len(sigma))))
    return (u * np.asarray(sigma, dtype=np.float64)) @ v.T


class TestPartialSvt:
    """solvers._svt_step against the exact linalg.svt."""

    SHAPES = [(480, 400), (400, 480)]  # min 400: partial below width 60, rank growth 20

    @staticmethod
    def step(m, tau, rank, monkeypatch):
        shapes = []
        real = solvers._svd
        monkeypatch.setattr(solvers, "_svd", lambda a: shapes.append(a.shape) or real(a))
        u, shrunk, v, _, next_rank, svds = solvers._svt_step(
            m, tau, rank, None, np.random.default_rng(0))
        out = (u * shrunk) @ v.T
        assert svds == len(shapes)
        assert v.shape == (m.shape[1], shrunk.size)
        return out, shrunk, next_rank, shapes

    @staticmethod
    def assert_matches_svt(out, shrunk, m, tau):
        want = svt(m, tau)
        sigma = np.linalg.svd(m, compute_uv=False)
        kept = sigma[sigma > tau] - tau
        assert np.max(np.abs(out - want)) <= 1e-10 * sigma[0]
        assert np.allclose(shrunk, kept, rtol=0.0, atol=1e-10 * sigma[0])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_nothing_above_tau_is_exact_zero(self, shape, monkeypatch):
        m = prescribed(*shape, np.linspace(2.0, 0.1, 40), seed=1)
        out, shrunk, next_rank, shapes = self.step(m, 2.5, 10, monkeypatch)
        assert not out.any() and shrunk.size == 0
        assert next_rank == 1 and shapes == [(20, shape[1])]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_few_values_above_tau(self, shape, monkeypatch):
        sigma = np.concatenate([[10.0, 8.0, 6.0, 4.0, 3.0], np.geomspace(0.9, 1e-3, 40)])
        m = prescribed(*shape, sigma, seed=2)
        out, shrunk, next_rank, shapes = self.step(m, 1.0, 10, monkeypatch)
        self.assert_matches_svt(out, shrunk, m, 1.0)
        assert shrunk.size == 5 and next_rank == 6 and shapes == [(20, shape[1])]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_more_values_than_width_widens_and_redoes(self, shape, monkeypatch):
        sigma = np.concatenate([np.linspace(20.0, 2.0, 25), np.geomspace(0.9, 1e-3, 40)])
        m = prescribed(*shape, sigma, seed=3)
        out, shrunk, next_rank, shapes = self.step(m, 1.0, 10, monkeypatch)
        self.assert_matches_svt(out, shrunk, m, 1.0)
        # width 20 keeps all 20 values; the rank grows to 20 + 20 and width 50 holds 25
        assert shapes == [(20, shape[1]), (50, shape[1])]
        assert shrunk.size == 25 and next_rank == 26

    @pytest.mark.parametrize("shape", SHAPES)
    def test_widened_retry_starts_from_the_attempt_basis(self, shape, monkeypatch):
        sigma = np.concatenate([np.linspace(20.0, 2.0, 25), np.geomspace(0.9, 1e-3, 40)])
        m = prescribed(*shape, sigma, seed=3)
        starts = []
        real = solvers._range_basis
        monkeypatch.setattr(solvers, "_range_basis",
                            lambda a, width, rng, start: starts.append(start) or
                            real(a, width, rng, start))
        _, _, _, basis, _, _ = solvers._svt_step(m, 1.0, 10, None, np.random.default_rng(0))
        first = solvers._ritz_triplets(m, 10, None, np.random.default_rng(0))
        assert starts[0] is None and np.array_equal(starts[1], first.v)
        assert first.v.shape == (shape[1], 20) and basis.shape == (shape[1], 50)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_width_past_crossover_takes_full_svd(self, shape, monkeypatch):
        sigma = np.concatenate([np.linspace(20.0, 2.0, 55), np.geomspace(0.9, 1e-3, 40)])
        m = prescribed(*shape, sigma, seed=4)
        out, shrunk, next_rank, shapes = self.step(m, 1.0, 50, monkeypatch)
        self.assert_matches_svt(out, shrunk, m, 1.0)
        assert shapes == [shape]
        # more values kept than the predicted rank: grow by 5% of min(d, n)
        assert shrunk.size == 55 and next_rank == 75

    @pytest.mark.xfail(strict=True, reason="a flat spectrum straddling tau at predicted "
                                           "rank 1 keeps values the basis resolves poorly")
    def test_flat_spectrum_straddling_tau_from_rank_1(self, monkeypatch):
        # 13 values in [0.1, 10] and tau = sigma_1 / 2: width 11 holds some
        # values below tau, so the one SVD is final and no redo runs, but the
        # kept triplets are off by 9.5e-4, far above 1e-10 * sigma_1
        sigma = np.sort(np.random.default_rng(24).uniform(0.1, 10.0, 13))[::-1]
        m = prescribed(81, 81, sigma, seed=24)
        out, shrunk, _, _ = self.step(m, sigma[0] / 2, 1, monkeypatch)
        self.assert_matches_svt(out, shrunk, m, sigma[0] / 2)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(80, 260), n=st.integers(80, 260), above=st.integers(0, 45),
           below=st.integers(0, 30), predicted=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_svt_across_a_spectral_gap(self, d, n, above, below, predicted, seed):
        # values above tau = 1 lie in [2, 20] and the rest in [0, 0.05]: with
        # that gap the range finder resolves every kept triplet to round-off,
        # whatever the shape, the predicted rank, retries or the full path
        rng = np.random.default_rng(seed)
        above = min(above, d, n)
        below = min(below, min(d, n) - above)
        sigma = np.concatenate([np.sort(rng.uniform(2.0, 20.0, above))[::-1],
                                np.sort(rng.uniform(0.0, 0.05, below))[::-1]])
        m = prescribed(d, n, sigma, seed) if sigma.size else np.zeros((d, n))
        u, shrunk, v, _, next_rank, svds = solvers._svt_step(m, 1.0, predicted, None, rng)
        out = (u * shrunk) @ v.T
        assert np.max(np.abs(out - svt(m, 1.0))) <= 1e-10 * 20.0
        assert np.allclose(shrunk, sigma[:above] - 1.0, rtol=0.0, atol=1e-10 * 20.0)
        assert v.shape == (n, above) and svds >= 1
        assert next_rank in (above + 1, above + max(1, round(0.05 * min(d, n))))


def _sweep(x, cfg):
    entries, selected = lambda_sweep(x, cfg)
    return [(e.factors.u, e.factors.c, e.factors.v, e.s, e.report) for e in entries], selected


# the two ialm cases differ only in the SVT_FULL_SHARE that TestRowBlocks.run sets
# fffp, uffp and sweep run float64 buffers (tol below FLOAT32_TOL); the *_f32
# cases run float32 ones, on float32 data or on float64 data at the default tol
BLOCK_CASES = {
    "fffp": lambda x: solve_fffp(x, SolverConfig(k=3, tol=1e-6)),
    "uffp": lambda x: solve_uffp(x, SolverConfig(k=6, lam=2.0, tol=1e-6)),
    "fffp_f32": lambda x: solve_fffp(x.astype(np.float32), SolverConfig(k=3)),
    "uffp_f32": lambda x: solve_uffp(x.astype(np.float32), SolverConfig(k=6, lam=2.0)),
    "fffp_tol_f32": lambda x: solve_fffp(x, SolverConfig(k=3)),
    "uffp_tol_f32": lambda x: solve_uffp(x, SolverConfig(k=6, lam=2.0)),
    "ialm_partial": lambda x: solve_ialm(x, SolverConfig(k=3)),
    "ialm_full": lambda x: solve_ialm(x, SolverConfig(k=3)),
    "sweep": lambda x: _sweep(x, SolverConfig(k=6, tol=1e-6)),
    "sweep_tol_f32": lambda x: _sweep(x, SolverConfig(k=6)),
    # width 1 forms its blocks by the broadcast product, not matmul
    "fffp_k1": lambda x: solve_fffp(x, SolverConfig(k=1, tol=1e-6)),
    "fffp_k1_tol_f32": lambda x: solve_fffp(x, SolverConfig(k=1)),
}


def _outputs(result):
    """Every array and every report of a solve or sweep, and the selected index."""
    if isinstance(result[0], list):  # a sweep: per-entry tuples and the selection
        entries, selected = result
        return ([a for e in entries for a in e[:4]], [e[4] for e in entries], selected)
    low_rank, s, report = result
    arrays = [low_rank] if isinstance(low_rank, np.ndarray) else [low_rank.u, low_rank.c,
                                                                   low_rank.v]
    return arrays + [s], [report], None


class TestRowBlocks:
    """The fused passes of solvers._alm walk the matrix in row blocks; the block
    height changes no output bit, only the residual's summation order."""

    @staticmethod
    def run(case, x, monkeypatch, rows=None):
        # 45 columns take the full SVD from width 7 on; a share of 1 keeps ialm partial
        monkeypatch.setattr(solvers, "SVT_FULL_SHARE", 1.0 if case == "ialm_partial" else 0.15)
        if rows is not None:
            monkeypatch.setattr(solvers, "ROW_BLOCK_ENTRIES", rows * x.shape[1])
        return _outputs(BLOCK_CASES[case](x))

    # of 61 rows: 1 is raised to 2 (a one-row block would take gemv); at 2 and
    # 6 rows a one-row remainder joins the block above, and 7 rows leave a
    # ragged block of 5
    @pytest.mark.parametrize("rows", [1, 6, 7])
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_block_height_changes_no_output(self, case, rows, monkeypatch):
        x = make_problem(61, 45, 3, 0.05, seed=5).x
        assert x.size <= solvers.ROW_BLOCK_ENTRIES  # the default is one block
        arrays, reports, selected = self.run(case, x, monkeypatch)
        got_arrays, got_reports, got_selected = self.run(case, x, monkeypatch, rows)
        assert got_selected == selected
        assert len(got_arrays) == len(arrays)
        for got, want in zip(got_arrays, arrays):
            assert got.shape == want.shape and np.array_equal(got, want)
        for got, want in zip(got_reports, reports):
            assert (got.iterations, got.svd_count, got.final_rank, got.converged) == \
                (want.iterations, want.svd_count, want.final_rank, want.converged)
            assert (got.sparse_l1, got.sparsity_ratio, got.final_objective, got.rho0) == \
                (want.sparse_l1, want.sparsity_ratio, want.final_objective, want.rho0)
            # float32 buffers sum each block's squares in float32 (eps 1.2e-7)
            np.testing.assert_allclose(got.per_iter_residual, want.per_iter_residual,
                                       rtol=1e-6 if case.endswith("f32") else 1e-14, atol=0.0)

    def test_partial_case_takes_the_partial_path(self, monkeypatch):
        widths = []
        real = solvers._range_basis
        monkeypatch.setattr(solvers, "_range_basis",
                            lambda a, width, *rest: widths.append(width) or real(a, width, *rest))
        self.run("ialm_partial", make_problem(61, 45, 3, 0.05, seed=5).x, monkeypatch, rows=7)
        assert widths and max(widths) < 45

    @pytest.mark.parametrize("case", ["fffp", "uffp", "ialm_full"])
    @pytest.mark.parametrize("layout", ["fortran", "column_slice"])
    def test_non_c_input_matches_its_c_copy(self, case, layout, monkeypatch):
        x = make_problem(60, 45, 3, 0.05, seed=6).x
        if layout == "fortran":
            given_x = np.asfortranarray(x)
        else:
            wide = np.zeros((60, 90))
            wide[:, 1::2] = x
            given_x = wide[:, 1::2]
        assert not given_x.flags.c_contiguous
        arrays, reports, _ = self.run(case, np.ascontiguousarray(given_x), monkeypatch)
        got_arrays, got_reports, _ = self.run(case, given_x, monkeypatch)
        for got, want in zip(got_arrays, arrays):
            assert np.array_equal(got, want)
        for got, want in zip(got_reports, reports):
            assert got.per_iter_residual == want.per_iter_residual
            assert got.iterations == want.iterations

    @pytest.mark.parametrize("solve, buffers, dtype, tol", [
        (solve_fffp, 3, np.float64, 1e-6),
        (solve_uffp, 3, np.float64, 1e-6),
        (solve_ialm, 2, np.float64, 1e-3),
        (solve_fffp, 3, np.float32, 1e-3),
        (solve_uffp, 3, np.float32, 1e-3),
        (solve_fffp, 4, np.float64, 1e-3),
        (solve_uffp, 4, np.float64, 1e-3),
    ], ids=["fffp", "uffp", "ialm", "fffp_f32", "uffp_f32", "fffp_tol_f32", "uffp_tol_f32"])
    def test_peak_memory_matches_the_buffer_count(self, solve, buffers, dtype, tol):
        # s and m are (d, n), and the factored solvers double-buffer s; the
        # multiplier is derived from m, and the low-rank part is never formed
        # whole in the loop (ialm forms it once the loop has released m).
        # Float32 data gets float32 buffers, and nothing upcasts it.  Float64
        # data at the default tol gets float32 buffers plus its float32 working
        # copy, which goes before the returned s is upcast.
        x = make_problem(1000, 800, 5, 0.05, seed=3).x.astype(dtype)
        cfg = SolverConfig(k=5, lam=1.0 if solve is solve_uffp else None, max_iter=4, tol=tol)
        tracemalloc.start()
        try:
            report = solve(x, cfg)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        itemsize = np.dtype(report.buffer_dtype).itemsize
        assert report.buffer_dtype == ("float64" if tol < 1e-5 or solve is solve_ialm
                                       else "float32")
        assert peak <= (buffers + 0.5) * itemsize * x.size


class TestFloat32:
    """Float32 data runs the factored solvers in float32 buffers; the factors,
    the core and the small factorizations stay float64."""

    def test_acceptance_problem_agrees_with_float64(self, monkeypatch):
        x = make_problem(400, 400, 5, 0.05, seed=7).x
        f32, s32, r32 = solve_fffp(x.astype(np.float32), SolverConfig(k=5))
        # float64 buffers at the default tol
        monkeypatch.setattr(solvers, "FLOAT32_TOL", 1.0)
        f64, _, r64 = solve_fffp(x, SolverConfig(k=5))
        assert r64.buffer_dtype == "float64"
        assert s32.dtype == np.float32
        assert f32.u.dtype == f32.c.dtype == f32.v.dtype == np.float64
        assert (r32.iterations, r32.final_rank) == (r64.iterations, r64.final_rank)
        assert recovery_error(f32.dense(), f64.dense()) <= 1e-5

    # float64 takes 22 and 27 iterations; the float32 residual stalls near 1e-7
    @pytest.mark.parametrize("tol, same_iterations", [(1e-6, True), (1e-9, False)])
    def test_tol_floor(self, tol, same_iterations):
        x = make_problem(300, 300, 5, 0.05, seed=0).x
        cfg = SolverConfig(k=5, tol=tol)
        r64 = solve_fffp(x, cfg)[2]
        r32 = solve_fffp(x.astype(np.float32), cfg)[2]
        assert r64.converged
        if same_iterations:
            assert r32.converged and r32.iterations == r64.iterations
        else:
            assert not r32.converged and r32.iterations == cfg.max_iter

    @pytest.mark.parametrize("shape, rank", [((400, 400), 5), ((19200, 200), 1)],
                             ids=["400x400", "19200x200"])
    def test_final_residual_matches_a_float64_residual(self, shape, rank):
        # the pass sums each block's squares in float32
        x = make_problem(*shape, rank, 0.05, seed=3).x.astype(np.float32)
        factors, s, report = solve_fffp(x, SolverConfig(k=rank))
        want = relative_residual(x, factors.dense(), s)
        assert abs(report.final_residual - want) <= 1e-4 * want

    @pytest.mark.parametrize("solve", [solve_fffp, solve_uffp], ids=["fffp", "uffp"])
    def test_float64_data_at_the_default_tol_solves_its_float32_cast(self, solve):
        # the working matrix is the cast, so every factor and report figure is
        # that of the float32 solve; only s comes back as float64
        x = make_problem(120, 90, 4, 0.05, seed=1).x
        cfg = SolverConfig(k=6, lam=2.0)
        f64, s64, r64 = solve(x, cfg)
        f32, s32, r32 = solve(x.astype(np.float32), cfg)
        assert s64.dtype == np.float64 and s32.dtype == np.float32
        assert np.array_equal(s64, s32.astype(np.float64))
        for got, want in ((f64.u, f32.u), (f64.c, f32.c), (f64.v, f32.v)):
            assert np.array_equal(got, want)
        assert replace(r64, wall_time=0.0) == replace(r32, wall_time=0.0)

    @pytest.mark.parametrize("scale", [1e18, 1e-25])
    def test_float32_data_of_any_scale_solves(self, scale):
        # float32 squares overflow above about 1e19 and underflow below about
        # 1e-23; the working matrix is rescaled so that max|x| lies in [1, 2),
        # and the solve takes as many iterations as at unit scale
        prob = make_problem(60, 50, 2, 0.05, seed=1)
        x = (prob.x * scale).astype(np.float32)
        factors, s, report = solve_fffp(x, SolverConfig(k=2))
        unit = solve_fffp(prob.x.astype(np.float32), SolverConfig(k=2))[2]
        assert report.converged and report.iterations == unit.iterations
        assert report.buffer_dtype == "float32"
        assert s.dtype == np.float32 and np.isfinite(s).all()
        assert recovery_error(factors.dense(), prob.l_star * scale) <= 1e-3
        assert report.rho0 * np.abs(x).max() == pytest.approx(1.0, rel=1e-6)

    def test_report_names_the_buffer_dtype(self):
        x = make_problem(60, 50, 2, 0.05, seed=1).x
        for solve, lam in ((solve_fffp, None), (solve_uffp, 0.5)):
            for tol, want in ((1e-3, "float32"), (1e-6, "float64")):
                report = solve(x, SolverConfig(k=2, lam=lam, tol=tol))[2]
                assert report.buffer_dtype == want
            # float32 data solves in float32 at any tol
            report = solve(x.astype(np.float32), SolverConfig(k=2, lam=lam, tol=1e-6))[2]
            assert report.buffer_dtype == "float32"
        # the sweep's solves follow the same rule, and each entry's s is
        # solve_uffp's at that weight, in dtype and bytes
        for data, tol, want in ((x, 1e-3, "float32"), (x, 1e-6, "float64"),
                                (x.astype(np.float32), 1e-3, "float32"),
                                (x.astype(np.float32), 1e-6, "float32")):
            cfg = SolverConfig(k=2, tol=tol)
            entries, _ = lambda_sweep(data, cfg)
            assert {e.report.buffer_dtype for e in entries} == {want}
            for e in entries:
                s = solve_uffp(data, replace(cfg, lam=e.lam))[1]
                got = e.s
                assert got.dtype == s.dtype == data.dtype
                assert got.tobytes() == s.tobytes()
        for tol in (1e-3, 1e-6):
            cfg = SolverConfig(k=2, tol=tol)
            assert solve_ialm(x.astype(np.float32), cfg)[2].buffer_dtype == "float64"

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-3), (np.float32, 1e-6)],
                             ids=["float64_default_tol", "float32_tol1e-6"])
    def test_sweep_entries_are_solve_uffp(self, dtype, tol):
        # each entry is solve_uffp at its weight, in the same float32 buffers
        # and with the same s, in dtype and bytes; the grid comes from the
        # float64 data, the solves from its float32 cast
        x = make_problem(120, 90, 4, 0.05, seed=1).x.astype(dtype)
        cfg = SolverConfig(k=8, tol=tol)
        entries, _ = lambda_sweep(x, cfg)
        assert {e.report.buffer_dtype for e in entries} == {"float32"}
        for e in entries:
            factors, s, report = solve_uffp(x, replace(cfg, lam=e.lam))
            for got, want in ((e.factors.u, factors.u), (e.factors.c, factors.c),
                              (e.factors.v, factors.v)):
                assert np.array_equal(got, want)
            got_s = e.s
            assert got_s.dtype == s.dtype == dtype
            assert got_s.tobytes() == s.tobytes()
            assert replace(e.report, wall_time=0.0) == replace(report, wall_time=0.0)

    def test_ialm_solves_in_float64(self):
        x = make_problem(120, 90, 4, 0.05, seed=1).x.astype(np.float32)
        l32, s32, r32 = solve_ialm(x, SolverConfig(k=4))
        l64, s64, r64 = solve_ialm(x.astype(np.float64), SolverConfig(k=4))
        assert s32.dtype == np.float64
        assert np.array_equal(l32, l64) and np.array_equal(s32, s64)
        assert r32.per_iter_residual == r64.per_iter_residual
