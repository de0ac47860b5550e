import numpy as np
import pytest

from robustpca.datagen import gen_low_rank, gen_sparse, make_problem


def numerical_rank(m):
    sigma = np.linalg.svd(m, compute_uv=False)
    return int((sigma > 1e-6 * max(sigma[0], 1e-300)).sum())


class TestGenLowRank:
    def test_zero_rank_gives_zero_matrix(self):
        assert not gen_low_rank(6, 5, 0).any()

    def test_rank_matches(self):
        assert numerical_rank(gen_low_rank(50, 50, 3, seed=0)) == 3

    def test_deterministic(self):
        a = gen_low_rank(20, 30, 4, seed=5)
        b = gen_low_rank(20, 30, 4, seed=5)
        assert np.array_equal(a, b)

    def test_rank_too_large_rejected(self):
        with pytest.raises(ValueError):
            gen_low_rank(4, 6, 5)


class TestGenSparse:
    def test_zero_fraction_gives_zero_matrix(self):
        assert not gen_sparse(10, 10, 0.0, 1.0).any()

    def test_exact_nonzero_count(self):
        s = gen_sparse(100, 100, 0.05, 10.0, seed=2)
        assert np.count_nonzero(s) == 500

    def test_values_approximately_uniform(self):
        # empirical CDF against uniform on [-m, m]; the max deviation for
        # 1e5 draws should sit well under 0.01
        s = gen_sparse(400, 400, 0.625, 3.0, seed=3)
        values = np.sort(s[s != 0])
        assert values.size == 100000
        cdf = (values + 3.0) / 6.0
        empirical = np.arange(1, values.size + 1) / values.size
        assert np.abs(empirical - cdf).max() < 0.01
        assert values.min() >= -3.0 and values.max() <= 3.0

    def test_deterministic(self):
        assert np.array_equal(gen_sparse(30, 30, 0.1, 1.0, seed=4), gen_sparse(30, 30, 0.1, 1.0, seed=4))

    def test_full_fraction_rejected(self):
        with pytest.raises(ValueError):
            gen_sparse(5, 5, 1.0, 1.0)


class TestMakeProblem:
    def test_additivity_is_exact(self):
        prob = make_problem(50, 40, 3, 0.1, seed=5)
        assert not (prob.x - prob.l_star - prob.s_star).any()

    def test_zero_fraction_keeps_x_equal_to_low_rank(self):
        prob = make_problem(50, 50, 2, 0.0, seed=6)
        assert np.array_equal(prob.x, prob.l_star)
        assert not prob.s_star.any()

    def test_rank_and_corruption_fraction(self):
        prob = make_problem(200, 200, 5, 0.05, seed=7)
        assert numerical_rank(prob.l_star) == 5
        achieved = np.count_nonzero(prob.s_star) / prob.s_star.size
        assert abs(achieved - 0.05) <= 0.005

    def test_default_magnitude_is_gross(self):
        prob = make_problem(100, 100, 4, 0.05, seed=8)
        rms = np.sqrt(np.mean(prob.l_star**2))
        nonzero = np.abs(prob.s_star[prob.s_star != 0])
        assert nonzero.max() <= 10.0 * rms * 1.001
        assert nonzero.max() >= 5.0 * rms  # the range is actually exercised

    def test_full_rank_degenerate_case_succeeds(self):
        prob = make_problem(50, 50, 50, 0.02, seed=9)
        assert numerical_rank(prob.l_star) == 50

    def test_sparse_support_independent_of_factors(self):
        a = make_problem(80, 80, 2, 0.1, seed=10)
        b = make_problem(80, 80, 3, 0.1, seed=10)  # different rank, same seed
        assert np.array_equal(a.s_star != 0, b.s_star != 0)

    def test_deterministic(self):
        a = make_problem(30, 30, 2, 0.1, seed=11)
        b = make_problem(30, 30, 2, 0.1, seed=11)
        assert np.array_equal(a.x, b.x)

    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError):
            make_problem(10, 10, 0, 0.1)
