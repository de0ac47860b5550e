import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustpca.solvers as solvers
from robustpca.datagen import make_problem
from robustpca.linalg import polar_orthogonal, soft_threshold, svt
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
        for cfg in (
            SolverConfig(k=0),
            SolverConfig(k=5),
            SolverConfig(k=2, kappa=1.0),
            SolverConfig(k=2, tol=0.0),
            SolverConfig(k=2, tol=1.0),
            SolverConfig(k=2, rho0=0.0),
            SolverConfig(k=2, rho0=2.0 * solvers.RHO_CAP),
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

    def test_truncated_svd_matches_inline_range_finder(self):
        # the range finder written out as it stood before it moved into
        # linalg, for a tall and a wide input
        for shape, k, seed in (((130, 70), 4, 2), ((60, 150), 7, 11)):
            x = np.random.default_rng(seed).standard_normal(shape)
            rng = np.random.default_rng(seed)
            width = min(k + solvers.RANGE_OVERSAMPLE, *shape)
            q, _ = np.linalg.qr(x @ rng.standard_normal((shape[1], width)))
            for _ in range(solvers.RANGE_POWER_STEPS):
                z, _ = np.linalg.qr(x.T @ q)
                q, _ = np.linalg.qr(x @ z)
            f = solvers.thin_svd(q.T @ x)
            u, v = solvers._fix_signs(q @ f.u[:, :k], f.v[:, :k])
            got = init_factors(x, k, "truncated-svd", seed=seed)
            assert np.array_equal(got.u, u)
            assert np.array_equal(got.c, np.diag(f.s[:k]))
            assert np.array_equal(got.v, v)

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
            rho = min(rho * cfg.kappa, solvers.RHO_CAP)
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

    def test_divergence_error_names_iteration(self, monkeypatch):
        x = np.full((6, 6), 1e300)
        monkeypatch.setattr(solvers, "RHO_CAP", 1e300)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=r"iteration \d+"):
            solve_fffp(x, SolverConfig(k=2, max_iter=200, tol=1e-12))


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
        # the 1e-170 input is nonzero, but its Frobenius norm underflows to 0;
        # neither may pass as "converged in one iteration with an all-zero s"
        x = scale * np.random.default_rng(18).standard_normal((40, 30))
        assert np.linalg.norm(x) == 0.0
        with pytest.raises(ValueError, match="zero Frobenius norm"):
            solve(x, SolverConfig(k=2, lam=lam))


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
            assert np.isclose(cur, min(prev * cfg.kappa, solvers.RHO_CAP))
            assert cur > prev or prev == solvers.RHO_CAP

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
        assert report.svd_count == 3 * report.iterations

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

    def test_default_grid_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            default_lambda_grid(np.zeros((4, 4)))


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
        calls = []

        def poisoned(m, tau, out=None):
            # the sparse step of the second iteration yields a NaN entry
            out = soft_threshold(m, tau, out=out)
            calls.append(tau)
            if len(calls) == 2:
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(solvers, "soft_threshold", poisoned)
        with pytest.raises(DivergenceError, match=r"non-finite iterate at iteration 2$"):
            solve_ialm(prob.x, SolverConfig(k=2))

    def test_buffered_loop_matches_out_of_place_reference(self):
        prob = make_problem(180, 160, 3, 0.05, seed=17)
        cfg = SolverConfig(k=3)
        x = prob.x
        lam = 1.0 / np.sqrt(180)
        # the IALM iteration written out of place around the same
        # thresholding step, one fresh array per step
        rng = np.random.default_rng(cfg.seed)
        rank, v_kept = solvers.SVT_START_RANK, None
        s, theta, rho = np.zeros_like(x), np.zeros_like(x), cfg.rho0
        for t in range(1, cfg.max_iter + 1):
            l_ref = np.empty_like(x)
            _, v_kept, rank, _ = solvers._svt_step(x - s + theta / rho, 1.0 / rho, rank,
                                                   v_kept, rng, l_ref)
            m = x - l_ref + theta / rho
            s = np.sign(m) * np.maximum(np.abs(m) - lam / rho, 0.0)
            r = x - l_ref - s
            theta = theta + rho * r
            rho = min(rho * cfg.kappa, solvers.RHO_CAP)
            if np.linalg.norm(r) / np.linalg.norm(x) <= cfg.tol:
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
        real = solvers.thin_svd
        monkeypatch.setattr(solvers, "thin_svd", lambda a: shapes.append(a.shape) or real(a))
        out = np.full(m.shape, np.nan)
        shrunk, v, next_rank, svds = solvers._svt_step(
            m, tau, rank, None, np.random.default_rng(0), out)
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
    def test_width_past_crossover_takes_full_svd(self, shape, monkeypatch):
        sigma = np.concatenate([np.linspace(20.0, 2.0, 55), np.geomspace(0.9, 1e-3, 40)])
        m = prescribed(*shape, sigma, seed=4)
        out, shrunk, next_rank, shapes = self.step(m, 1.0, 50, monkeypatch)
        self.assert_matches_svt(out, shrunk, m, 1.0)
        assert shapes == [shape]
        # more values kept than the predicted rank: grow by 5% of min(d, n)
        assert shrunk.size == 55 and next_rank == 75

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
        out = np.full((d, n), np.nan)
        shrunk, v, next_rank, svds = solvers._svt_step(m, 1.0, predicted, None, rng, out)
        assert np.max(np.abs(out - svt(m, 1.0))) <= 1e-10 * 20.0
        assert np.allclose(shrunk, sigma[:above] - 1.0, rtol=0.0, atol=1e-10 * 20.0)
        assert v.shape == (n, above) and svds >= 1
        assert next_rank in (above + 1, above + max(1, round(0.05 * min(d, n))))
