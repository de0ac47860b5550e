import numpy as np
import pytest

from robustpca.analysis import (
    anomaly_detect,
    benchmark_csv,
    compute_metrics,
    linear_fit_r2,
    scaling_benchmark,
    top_m_columns,
)
from robustpca.datagen import make_problem
from robustpca.linalg import soft_threshold
from robustpca.solvers import SolveReport, SolverConfig, _spectrum_rank, relative_residual, \
    solve_fffp, sparsity_ratio


def numerical_rank(m):
    """The solvers' rank rule applied to the full spectrum of ``m``."""
    return _spectrum_rank(np.linalg.svd(m, compute_uv=False))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 5))) == 0

    def test_outer_product(self):
        rng = np.random.default_rng(0)
        assert numerical_rank(np.outer(rng.standard_normal(6), rng.standard_normal(8))) == 1

    def test_zero_padding_invariance(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 3))
        padded = np.zeros((7, 5))
        padded[:4, :3] = m
        assert numerical_rank(padded) == numerical_rank(m)


class TestSparsityRatio:
    def test_zero_matrix(self):
        assert sparsity_ratio(np.zeros((3, 3))) == 0.0

    def test_all_ones(self):
        assert sparsity_ratio(np.ones((3, 3))) == 1.0

    def test_soft_threshold_output_has_exact_zeros(self):
        rng = np.random.default_rng(2)
        out = soft_threshold(rng.standard_normal((50, 50)), 0.5)
        assert sparsity_ratio(out) < 1.0

    def test_counts_nonzeros_literally(self):
        assert sparsity_ratio(np.array([[1e-300, 2.0, 0.0, -0.0]])) == 0.5


class TestAnomalyDetect:
    def test_zero_matrix_flags_nothing(self):
        result = anomaly_detect(np.zeros((4, 6)), 5.0)
        assert not result.scores.any()
        assert result.flagged.size == 0

    def test_single_loud_column(self):
        s = np.zeros((10, 5))
        s[:, 2] = 7.0 / np.sqrt(10)
        result = anomaly_detect(s, 5.0)
        assert list(result.flagged) == [2]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((8, 12))
        perm = rng.permutation(12)
        base = anomaly_detect(s, 1.0)
        shuffled = anomaly_detect(s[:, perm], 1.0)
        assert np.allclose(shuffled.scores, base.scores[perm])

    def test_planted_outliers_found_by_fffp(self):
        rng = np.random.default_rng(4)
        u = np.abs(rng.standard_normal(64))
        u /= np.linalg.norm(u)
        inliers = np.outer(u, rng.uniform(5, 9, 190))
        outliers = rng.standard_normal((64, 10))
        outliers *= rng.uniform(5, 9, 10) / np.linalg.norm(outliers, axis=0)
        x = np.concatenate([inliers, outliers], axis=1)
        _, s, _ = solve_fffp(x, SolverConfig(k=1))
        flagged = top_m_columns(np.linalg.norm(s, axis=0), 10)
        assert np.array_equal(flagged, np.arange(190, 200))

    def test_top_m_ties_take_lower_index(self):
        scores = np.array([3.0, 1.0, 3.0, 2.0])
        assert np.array_equal(top_m_columns(scores, 2), [0, 2])
        assert np.array_equal(top_m_columns(scores, 3), [0, 2, 3])

    def test_negative_threshold_rejected(self):
        for threshold in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                anomaly_detect(np.zeros((2, 2)), threshold)


def stub_report(final_rank=2, sparsity=0.25, residual=0.01):
    return SolveReport(iterations=3, svd_count=6, rho0=0.25,
                       per_iter_residual=[0.5, 0.1, residual],
                       final_rank=final_rank, sparsity_ratio=sparsity, sparse_l1=1.5,
                       final_residual=residual, wall_time=0.125, final_objective=1.5,
                       converged=True)


class TestComputeMetrics:
    def test_bundles_ground_truth_error(self):
        prob = make_problem(60, 60, 2, 0.05, seed=5)
        factors, s, report = solve_fffp(prob.x, SolverConfig(k=2))
        l = factors.dense()
        metrics = compute_metrics(report, l, l_star=prob.l_star)
        assert metrics.rank_l == 2
        assert metrics.recovery_error is not None and metrics.recovery_error < 1e-2
        assert metrics.residual == report.final_residual
        assert metrics.sparsity_ratio == report.sparsity_ratio
        # the report's residual is that of the returned split
        assert np.isclose(report.final_residual, relative_residual(prob.x, l, s))

    def test_known_rank_is_taken_as_given(self):
        # the rank comes from the report, not from an SVD of l (rank 3 here)
        metrics = compute_metrics(stub_report(final_rank=2), np.eye(3))
        assert (metrics.rank_l, metrics.sparsity_ratio, metrics.residual) == (2, 0.25, 0.01)

    def test_recovery_optional(self):
        metrics = compute_metrics(stub_report(), np.eye(3))
        assert metrics.recovery_error is None
        metrics = compute_metrics(stub_report(), np.eye(3), l_star=2.0 * np.eye(3))
        assert metrics.recovery_error == 0.5

    def test_zero_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="l_star is zero"):
            compute_metrics(stub_report(), np.eye(3), l_star=np.zeros((3, 3)))


class TestScalingBenchmark:
    BASE = {"d": 120, "n": 120, "r": 2, "fraction": 0.05, "seed": 0}

    def test_single_factor_single_row(self):
        rows = scaling_benchmark(self.BASE, "samples", [1.0], iters=3, k=2, repeats=1)
        assert len(rows) == 1
        assert rows[0][0] == 120 and rows[0][1] > 0

    def test_sizes_follow_axis(self):
        rows = scaling_benchmark(self.BASE, "dimension", [0.5, 1.0], iters=2, k=2, repeats=1)
        assert [size for size, _ in rows] == [60, 120]

    def test_timings_roughly_monotone(self):
        # 80 iterations keep each timed solve in the tens of milliseconds,
        # well above scheduler noise
        base = {"d": 400, "n": 400, "r": 2, "fraction": 0.05, "seed": 1}
        rows = scaling_benchmark(base, "samples", [0.25, 1.0], iters=80, k=2, repeats=3)
        assert rows[1][1] >= 0.9 * rows[0][1]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            scaling_benchmark(self.BASE, "rows", [1.0], iters=1)
        with pytest.raises(ValueError):
            scaling_benchmark(self.BASE, "samples", [], iters=1)
        with pytest.raises(ValueError):
            scaling_benchmark(self.BASE, "samples", [1.0, 0.5], iters=1)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_no_repeats_rejected(self, repeats):
        # no run means no median: refuse instead of reporting nan seconds
        with pytest.raises(ValueError, match="repeats"):
            scaling_benchmark(self.BASE, "samples", [1.0], iters=1, repeats=repeats)


class TestLinearFit:
    def test_perfect_line(self):
        rows = [(100, 0.1), (200, 0.2), (300, 0.3)]
        assert np.isclose(linear_fit_r2(rows), 1.0)

    def test_single_row_is_nan(self):
        assert np.isnan(linear_fit_r2([(100, 0.1)]))

    def test_equal_timings_fit_exactly(self):
        # a flat line explains flat timings: no variance is left to explain
        assert linear_fit_r2([(100, 0.25), (200, 0.25), (300, 0.25)]) == 1.0

    def test_csv_rendering(self):
        text = benchmark_csv([(100, 0.125), (200, 0.25)])
        lines = text.strip().split("\n")
        assert lines[0] == "size,seconds"
        assert lines[1].startswith("100,")
        assert len(lines) == 3
