import numpy as np
import pytest

import robustpca.solvers as solvers
from robustpca.datagen import make_problem
from robustpca.linalg import polar_orthogonal
from robustpca.solvers import (
    DivergenceError,
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
        for cfg in (
            SolverConfig(k=0),
            SolverConfig(k=5),
            SolverConfig(k=2, kappa=1.0),
            SolverConfig(k=2, tol=0.0),
            SolverConfig(k=2, tol=1.0),
            SolverConfig(k=2, rho0=0.0),
            SolverConfig(k=2, max_iter=0),
            SolverConfig(k=2, lam=-1.0),
            SolverConfig(k=2, init="nope"),
        ):
            with pytest.raises(ValueError):
                solve_fffp(x, cfg)

    def test_uffp_requires_lam(self):
        with pytest.raises(ValueError):
            solve_uffp(np.ones((4, 4)), SolverConfig(k=2))


class TestInitFactors:
    def test_rank_one_exact_capture(self):
        rng = np.random.default_rng(0)
        x = np.outer(rng.standard_normal(12), rng.standard_normal(9))
        f = init_factors(x, 1, "truncated-svd")
        assert np.linalg.norm(f.dense() - x) <= 1e-9 * np.linalg.norm(x)

    @pytest.mark.parametrize("strategy", ["truncated-svd", "random-orthonormal"])
    def test_orthonormal_by_construction(self, strategy):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 8))
        f = init_factors(x, 3, strategy, seed=4)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(3)) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(3)) <= 1e-10

    def test_seeded_random_is_bit_reproducible(self):
        x = np.random.default_rng(2).standard_normal((10, 8))
        f1 = init_factors(x, 3, "random-orthonormal", seed=7)
        f2 = init_factors(x, 3, "random-orthonormal", seed=7)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.c, f2.c)
        assert np.array_equal(f1.v, f2.v)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            init_factors(np.ones((4, 6)), 5)

    def test_randomized_truncated_svd_matches_full_svd(self):
        x = make_problem(400, 400, 5, 0.05).x
        f = init_factors(x, 5, "truncated-svd")
        u, sigma, vt = np.linalg.svd(x)
        assert np.allclose(np.diag(f.c), sigma[:5], rtol=1e-8, atol=0.0)
        assert np.count_nonzero(f.c - np.diag(np.diag(f.c))) == 0
        assert sin_subspace_angle(u[:, :5], f.u) <= 1e-4
        assert sin_subspace_angle(vt[:5].T, f.v) <= 1e-4

    def test_truncated_svd_is_bit_reproducible(self):
        x = make_problem(120, 90, 3, 0.05, seed=3).x
        f1 = init_factors(x, 3, "truncated-svd", seed=5)
        f2 = init_factors(x, 3, "truncated-svd", seed=5)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.c, f2.c)
        assert np.array_equal(f1.v, f2.v)

    @pytest.mark.parametrize("shape", [(300, 8), (8, 300)])
    def test_oversampling_capped_at_min_dimension(self, shape):
        # k + oversampling exceeds min(d, n): the range finder spans the whole
        # column (or row) space, so the init is the exact rank-k truncation
        x = np.random.default_rng(9).standard_normal(shape)
        f = init_factors(x, 3, "truncated-svd")
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
        assert report.svd_per_iter == 2
        assert 0.0 <= report.sparsity_ratio <= 1.0
        assert np.isclose(report.final_objective, np.abs(s).sum())

    def test_deterministic(self):
        prob = make_problem(40, 30, 2, 0.1, seed=2)
        a = solve_fffp(prob.x, SolverConfig(k=2))
        b = solve_fffp(prob.x, SolverConfig(k=2))
        assert np.array_equal(a[0].u, b[0].u)
        assert np.array_equal(a[0].c, b[0].c)
        assert np.array_equal(a[1], b[1])

    def test_buffered_loop_matches_out_of_place_reference(self):
        prob = make_problem(150, 150, 3, 0.05, seed=12)
        cfg = SolverConfig(k=3)
        x = prob.x
        # the F-FFP iteration written out of place, one fresh array per step
        f = init_factors(x, cfg.k, cfg.init, cfg.seed)
        u, c, v = f.u, f.c, f.v
        theta, rho = np.zeros_like(x), cfg.rho0
        for t in range(1, cfg.max_iter + 1):
            misfit = x - (u @ c) @ v.T + theta / rho
            s_ref = np.sign(misfit) * np.maximum(np.abs(misfit) - 1.0 / rho, 0.0)
            m = x - s_ref + theta / rho
            v = polar_orthogonal(m.T @ (u @ c))
            u = polar_orthogonal(m @ (v @ c.T))
            c = (u.T @ m) @ v
            r = x - (u @ c) @ v.T - s_ref
            theta = theta + rho * r
            rho = min(rho * cfg.kappa, cfg.rho_cap)
            if np.linalg.norm(r) / np.linalg.norm(x) <= cfg.tol:
                break
        _, s, report = solve_fffp(x, cfg)
        assert report.converged and report.iterations == t
        assert np.max(np.abs(s - s_ref)) <= 1e-12

    def test_lost_orthonormality_raises(self, monkeypatch):
        prob = make_problem(40, 30, 2, 0.05, seed=13)
        monkeypatch.setattr(solvers, "polar_orthogonal", lambda a: 2.0 * polar_orthogonal(a))
        with pytest.raises(DivergenceError, match="orthonormality at iteration 1"):
            solve_fffp(prob.x, SolverConfig(k=2))

    def test_divergence_error_names_iteration(self):
        x = np.full((6, 6), 1e300)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=r"iteration \d+"):
            solve_fffp(x, SolverConfig(k=2, max_iter=200, rho_cap=1e300, tol=1e-12))

    def test_iteration_cap_reported(self):
        prob = make_problem(40, 40, 2, 0.1, seed=3)
        _, _, report = solve_fffp(prob.x, SolverConfig(k=2, max_iter=3))
        assert report.iterations == 3 and not report.converged


class TestLoopInvariants:
    """Per-iteration contracts checked through the snapshot callback."""

    @staticmethod
    def run_with_snapshots(lam=None):
        prob = make_problem(50, 45, 3, 0.08, seed=4)
        cfg = SolverConfig(k=3, lam=lam)
        snaps = []
        copy = lambda st: snaps.append(
            (st.t, st.s.copy(), st.u.copy(), st.c.copy(), st.v.copy(), st.theta.copy(), st.rho)
        )
        if lam is None:
            solve_fffp(prob.x, cfg, on_iteration=copy)
        else:
            solve_uffp(prob.x, cfg, on_iteration=copy)
        return prob, cfg, snaps

    def test_rho_schedule(self):
        _, cfg, snaps = self.run_with_snapshots()
        rhos = [cfg.rho0] + [snap[6] for snap in snaps]
        for prev, cur in zip(rhos, rhos[1:]):
            assert np.isclose(cur, min(prev * cfg.kappa, cfg.rho_cap))
            assert cur > prev or prev == cfg.rho_cap

    def test_sparse_update_minimizes_lagrangian(self):
        # The sparse step is the exact minimizer of
        #   |s|_1 + rho/2 * ||x - l - s + theta/rho||_F^2
        # at the factors it saw, so nudging entries can only raise the value.
        prob, cfg, snaps = self.run_with_snapshots()
        rng = np.random.default_rng(0)
        prev_theta, prev_rho = np.zeros_like(prob.x), cfg.rho0
        prev_low_rank = init_factors(prob.x, cfg.k, cfg.init, cfg.seed).dense()

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
        prob, cfg, snaps = self.run_with_snapshots()
        init = init_factors(prob.x, cfg.k, cfg.init, cfg.seed)
        prev_u, prev_c, prev_v = init.u, init.c, init.v
        prev_theta, prev_rho = np.zeros_like(prob.x), cfg.rho0
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
            _, cfg, snaps = self.run_with_snapshots(lam)
            eye = np.eye(cfg.k)
            for _, _, u, _, v, _, _ in snaps:
                assert np.linalg.norm(u.T @ u - eye) <= 1e-8
                assert np.linalg.norm(v.T @ v - eye) <= 1e-8

    def test_core_rank_never_exceeds_k(self):
        _, cfg, snaps = self.run_with_snapshots(lam=3.0)
        for _, _, _, c, _, _, _ in snaps:
            assert c.shape == (cfg.k, cfg.k)
            assert np.linalg.matrix_rank(c) <= cfg.k


class TestUffp:
    def test_zero_lam_matches_fffp_bitwise(self):
        prob = make_problem(50, 40, 2, 0.08, seed=5)
        cfg_f = SolverConfig(k=2)
        cfg_u = SolverConfig(k=2, lam=0.0)
        trace_f, trace_u = [], []
        grab = lambda store: lambda st: store.append(
            (st.s.copy(), st.u.copy(), st.c.copy(), st.v.copy(), st.theta.copy())
        )
        rf = solve_fffp(prob.x, cfg_f, on_iteration=grab(trace_f))
        ru = solve_uffp(prob.x, cfg_u, on_iteration=grab(trace_u))
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
        assert report.svd_per_iter == 3

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
        cfg = SolverConfig(k=6)
        calls = []
        real = solvers.init_factors
        monkeypatch.setattr(solvers, "init_factors", lambda *a: calls.append(a) or real(*a))
        entries, _ = lambda_sweep(prob.x, cfg)
        assert len(calls) == 1
        monkeypatch.undo()
        # the shared init is the one each solve would build on its own
        _, s, report = solve_uffp(prob.x, SolverConfig(k=6, lam=entries[4].lam))
        assert np.array_equal(entries[4].s, s)
        assert entries[4].report.iterations == report.iterations

    def test_sweep_parallel_matches_sequential(self):
        prob = make_problem(60, 60, 2, 0.05, seed=8)
        seq, seq_pick = lambda_sweep(prob.x, SolverConfig(k=6))
        par, par_pick = lambda_sweep(prob.x, SolverConfig(k=6), n_jobs=3)
        assert seq_pick == par_pick
        for a, b in zip(seq, par):
            assert a.lam == b.lam
            assert np.array_equal(a.s, b.s)

    def test_default_grid_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            default_lambda_grid(np.zeros((4, 4)))


class TestIalm:
    def test_zero_matrix_single_iteration(self):
        l, s, report = solve_ialm(np.zeros((5, 4)), SolverConfig(k=1))
        assert report.iterations == 1 and report.converged
        assert not l.any() and not s.any()

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
        assert report.svd_per_iter == 1

    def test_deterministic(self):
        prob = make_problem(40, 40, 2, 0.1, seed=11)
        a = solve_ialm(prob.x, SolverConfig(k=2))
        b = solve_ialm(prob.x, SolverConfig(k=2))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
