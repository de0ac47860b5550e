import json
import math
import tracemalloc

import numpy as np
import pytest

import robustpca.analysis as analysis
import robustpca.solvers as solvers
from robustpca import cli
from robustpca.cli import build_parser, main
from robustpca.datagen import make_problem
from robustpca.dataio import load_frame_stack, read_matrix, read_pgm, write_frame, \
    write_matrix, write_pgm
from robustpca.solvers import SolverConfig, solve_uffp


def run(*argv):
    return main([str(a) for a in argv])


def assert_environment(manifest):
    """The manifest names what its numbers depend on beyond the inputs."""
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["cpu_count"] >= 1
    assert env["cpu_affinity"] is None or env["cpu_affinity"] >= 1  # None: not Linux
    assert set(env["blas_thread_vars"]) == set(cli.BLAS_THREAD_VARS)
    assert "OPENBLAS_NUM_THREADS" in env["blas_thread_vars"]


def synth_args(out, d=80, n=80, rank=2, fraction=0.05, seed=7):
    return ["synth", "--d", d, "--n", n, "--rank", rank,
            "--fraction", fraction, "--seed", seed, "--out", out]


class TestSynth:
    def test_writes_problem_files_and_manifest(self, tmp_path):
        out = tmp_path / "prob"
        assert run(*synth_args(out)) == 0
        for name in ("X.ffpm", "L_star.ffpm", "S_star.ffpm", "manifest.json"):
            assert (out / name).exists()
        x = read_matrix(out / "X.ffpm")
        l = read_matrix(out / "L_star.ffpm")
        s = read_matrix(out / "S_star.ffpm")
        assert not (x - l - s).any()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert manifest["version"]

    def test_manifest_echoes_the_parsed_arguments(self, tmp_path):
        out = tmp_path / "prob"
        assert run(*synth_args(out)) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {"command": "synth", "d": 80, "n": 80, "rank": 2, "fraction": 0.05,
                          "seed": 7, "out": str(out)}

    def test_impossible_rank_exits_2(self, tmp_path):
        assert run(*synth_args(tmp_path / "p", rank=500, d=200, n=200)) == 2

    def test_bad_flag_exits_2(self, tmp_path):
        assert run("synth", "--d", "50", "--out", tmp_path / "p") == 2

    def test_bit_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(*synth_args(out1)) == 0
        assert run(*synth_args(out2)) == 0
        assert (out1 / "X.ffpm").read_bytes() == (out2 / "X.ffpm").read_bytes()


@pytest.fixture()
def problem_dir(tmp_path):
    out = tmp_path / "prob"
    assert run(*synth_args(out, d=100, n=100, rank=3, fraction=0.05)) == 0
    return out


class TestDecompose:
    def test_fffp_recovers_with_ground_truth(self, problem_dir, tmp_path):
        out = tmp_path / "dec"
        code = run("decompose", problem_dir / "X.ffpm", "--method", "fffp", "--k", "3",
                   "--truth", problem_dir / "L_star.ffpm", "--out", out)
        assert code == 0
        for name in ("U.ffpm", "C.ffpm", "V.ffpm", "S.ffpm", "report.json", "manifest.json"):
            assert (out / name).exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["converged"] is True
        assert payload["report"]["final_rank"] == 3
        assert payload["metrics"]["recovery_error"] <= 1e-3
        u = read_matrix(out / "U.ffpm")
        c = read_matrix(out / "C.ffpm")
        v = read_matrix(out / "V.ffpm")
        s = read_matrix(out / "S.ffpm")
        x = read_matrix(problem_dir / "X.ffpm")
        rebuilt = u @ c @ v.T + s
        assert np.linalg.norm(x - rebuilt) <= 1e-2 * np.linalg.norm(x)

    def test_manifest_echoes_the_parsed_arguments(self, problem_dir, tmp_path):
        out = tmp_path / "dec"
        code = run("decompose", problem_dir / "X.ffpm", "--method", "ialm", "--k", "3",
                   "--seed", "5", "--out", out)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "decompose"
        assert manifest["seed"] == 5
        config = manifest["config"]
        assert (config["method"], config["k"], config["seed"]) == ("ialm", 3, 5)
        assert config["input"] == str(problem_dir / "X.ffpm")
        assert "func" not in config and "jobs" not in config
        assert manifest["inputs"] == [str(problem_dir / "X.ffpm")]
        assert str(out / "report.json") in manifest["outputs"]
        assert_environment(manifest)

    def test_uffp_without_lambda_exits_2(self, problem_dir, tmp_path):
        code = run("decompose", problem_dir / "X.ffpm", "--method", "uffp", "--k", "6",
                   "--out", tmp_path / "dec")
        assert code == 2

    def test_uffp_sweep_selects_true_rank(self, problem_dir, tmp_path):
        out = tmp_path / "sweep"
        code = run("decompose", problem_dir / "X.ffpm", "--method", "uffp", "--k", "10",
                   "--lambda-sweep", "--out", out)
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["final_rank"] == 3
        assert len(payload["sweep"]) >= 4
        assert payload["selected_lam"] > 0
        # each row shows the two figures the selection gates read
        lams = [row["lam"] for row in payload["sweep"]]
        assert lams == sorted(lams)
        chosen = payload["sweep"][lams.index(payload["selected_lam"])]
        assert chosen["density"] == payload["report"]["sparsity_ratio"]
        assert chosen["sparse_l1"] == payload["report"]["sparse_l1"]
        assert all(0 <= row["density"] <= 1 and row["sparse_l1"] >= 0
                   for row in payload["sweep"])

    def test_ialm_needs_no_k(self, problem_dir, tmp_path):
        out = tmp_path / "ialm"
        assert run("decompose", problem_dir / "X.ffpm", "--method", "ialm", "--out", out) == 0
        assert json.loads((out / "report.json").read_text())["config"]["k"] is None

    def test_ialm_writes_dense_low_rank(self, problem_dir, tmp_path):
        out = tmp_path / "ialm"
        code = run("decompose", problem_dir / "X.ffpm", "--method", "ialm", "--k", "3",
                   "--out", out)
        assert code == 0
        assert (out / "L.ffpm").exists() and not (out / "U.ffpm").exists()

    @pytest.mark.parametrize("method", ["fffp", "ialm"])
    def test_rank_comes_from_the_solve_report(self, problem_dir, tmp_path, monkeypatch,
                                              method):
        # the rank is the report's final_rank, not that of a full SVD of L
        shapes = []
        real = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        out = tmp_path / method
        code = run("decompose", problem_dir / "X.ffpm", "--method", method, "--k", "3",
                   "--out", out)
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["final_rank"] == 3
        if method == "fffp":
            assert (100, 100) not in shapes  # no (d, n) array is ever factorized
        else:
            # every SVD is a thresholding step; the first also gives the start
            assert len(shapes) == payload["report"]["svd_count"]

    @pytest.mark.parametrize("method", [["fffp"], ["ialm"], ["uffp", "--lambda-sweep"]],
                             ids=["fffp", "ialm", "uffp-sweep"])
    @pytest.mark.parametrize("truth", [False, True], ids=["no_truth", "truth"])
    def test_report_json_holds_no_copy_of_the_report(self, problem_dir, tmp_path, method,
                                                     truth):
        # every solve statistic has one home, the report block; --truth adds
        # the one figure it cannot hold
        out = tmp_path / "dec"
        flags = ["--truth", problem_dir / "L_star.ffpm"] if truth else []
        code = run("decompose", problem_dir / "X.ffpm", "--method", *method, "--k", "3",
                   *flags, "--out", out)
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        report, metrics = payload["report"], payload.get("metrics", {})
        assert list(metrics) == (["recovery_error"] if truth else [])
        assert not (set(metrics) | set(payload)) & set(report)
        s = read_matrix(out / "S.ffpm")
        assert report["sparse_l1"] == np.abs(s).sum()

    def test_zero_matrix_exits_2(self, tmp_path):
        path = tmp_path / "zero.ffpm"
        write_matrix(path, np.zeros((6, 5)))
        for method in ("fffp", "ialm"):
            code = run("decompose", path, "--method", method, "--k", "2",
                       "--out", tmp_path / method)
            assert code == 2

    @pytest.mark.parametrize("method", [["fffp", "--k", "2"], ["ialm"]], ids=["fffp", "ialm"])
    def test_non_finite_iterate_exits_1_and_writes_nothing(self, tmp_path, method,
                                                           monkeypatch):
        # the low-rank step of iteration 2 returns a factor with a NaN entry
        real = {"fffp": solvers.polar_orthogonal, "ialm": solvers._svt_step}[method[0]]
        calls = []

        def poisoned(*args):
            out = real(*args)
            calls.append(out)
            if len(calls) == (4 if method[0] == "fffp" else 2):  # fffp: 2 calls per step
                (out if method[0] == "fffp" else out[0])[0, 0] = np.nan
            return out

        monkeypatch.setattr(solvers, real.__name__, poisoned)
        path = tmp_path / "x.ffpm"
        write_matrix(path, make_problem(60, 50, 2, 0.05, seed=1).x)
        out = tmp_path / "dec"
        assert run("decompose", path, "--method", *method, "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("method, parts", [
        (["fffp", "--k", "2"], ["U", "C", "V"]),
        (["uffp", "--k", "2", "--lambda", "0.5"], ["U", "C", "V"]),
        (["ialm"], ["L"])], ids=["fffp", "uffp", "ialm"])
    def test_l1_mass_past_the_float64_range_exits_0_with_outputs(self, tmp_path, method,
                                                               parts):
        # finite data whose sparse part sums past 1.8e308: the report's
        # sparse_l1 reads inf, and every output is written
        x = make_problem(100, 100, 2, 0.1, seed=1).x
        x = np.ldexp(x, math.frexp(6.3e306 / np.abs(x).max())[1])
        path = tmp_path / "x.ffpm"
        write_matrix(path, x)
        out = tmp_path / "dec"
        assert run("decompose", path, "--method", *method, "--out", out) == 0
        for name in parts + ["S"]:
            assert np.isfinite(read_matrix(out / ("%s.ffpm" % name))).all(), name
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["converged"] and report["sparse_l1"] == math.inf
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("method, tol, want", [
        ("fffp", "1e-3", "float32"), ("fffp", "1e-6", "float64"), ("ialm", "1e-3", "float64")])
    def test_report_names_the_buffer_dtype(self, problem_dir, tmp_path, method, tol, want):
        out = tmp_path / "dec"
        code = run("decompose", problem_dir / "X.ffpm", "--method", method, "--k", "3",
                   "--tol", tol, "--out", out)
        assert code == 0
        assert json.loads((out / "report.json").read_text())["report"]["buffer_dtype"] == want

    @pytest.mark.parametrize("method", [["fffp", "--k", "4"], ["ialm"]], ids=["fffp", "ialm"])
    def test_power_of_two_scaled_input_scales_the_sparse_part(self, tmp_path, method):
        # the penalty schedule scales with the data, so 2**-40 times X converges
        # as X does and gives 2**-40 times its sparse part, bit for bit
        assert run(*synth_args(tmp_path / "p", d=120, n=90, rank=4, seed=1)) == 0
        scaled = tmp_path / "scaled.ffpm"
        write_matrix(scaled, read_matrix(tmp_path / "p" / "X.ffpm") * 2.0**-40)
        for name, path in (("plain", tmp_path / "p" / "X.ffpm"), ("scaled", scaled)):
            assert run("decompose", path, "--method", *method, "--out", tmp_path / name) == 0
        s = read_matrix(tmp_path / "plain" / "S.ffpm")
        assert np.array_equal(read_matrix(tmp_path / "scaled" / "S.ffpm"), s * 2.0**-40)

    def test_iteration_cap_exits_3_with_outputs(self, problem_dir, tmp_path):
        out = tmp_path / "cap"
        code = run("decompose", problem_dir / "X.ffpm", "--method", "fffp", "--k", "3",
                   "--max-iter", "2", "--out", out)
        assert code == 3
        assert (out / "S.ffpm").exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["converged"] is False

    def test_non_finite_weight_or_growth_exits_2(self, problem_dir, tmp_path):
        for method, flag, value in (("uffp", "--lambda", "nan"), ("ialm", "--lambda", "nan"),
                                    ("uffp", "--lambda", "inf")):
            code = run("decompose", problem_dir / "X.ffpm", "--method", method, "--k", "3",
                       flag, value, "--out", tmp_path / method)
            assert code == 2, (method, flag, value)

    def test_nan_cell_exits_2(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,2.0,3.0\n4.0,nan,6.0\n7.0,8.0,10.0\n")
        code = run("decompose", path, "--method", "fffp", "--k", "1", "--out", tmp_path / "o")
        assert code == 2

    @pytest.fixture()
    def small_problem(self, tmp_path):
        prob = make_problem(40, 30, 2, 0.05, seed=1)
        write_matrix(tmp_path / "X.ffpm", prob.x)
        return tmp_path / "X.ffpm", prob.l_star

    @pytest.mark.parametrize("shape", ["1x30", "40x5"])
    def test_truth_of_another_shape_exits_2_and_writes_nothing(self, small_problem, tmp_path,
                                                               shape):
        # a 1x30 truth would broadcast against the 40x30 L
        x_path, l_star = small_problem
        write_matrix(tmp_path / "T.ffpm", {"1x30": l_star[:1], "40x5": l_star[:, :5]}[shape])
        out = tmp_path / "dec"
        code = run("decompose", x_path, "--method", "fffp", "--k", "2",
                   "--truth", tmp_path / "T.ffpm", "--out", out)
        assert code == 2
        assert not out.exists()

    def test_missing_truth_exits_4_and_writes_nothing(self, small_problem, tmp_path):
        x_path, _ = small_problem
        out = tmp_path / "dec"
        code = run("decompose", x_path, "--method", "fffp", "--k", "2",
                   "--truth", tmp_path / "nope.ffpm", "--out", out)
        assert code == 4
        assert not out.exists()

    def test_missing_input_exits_4(self, tmp_path):
        code = run("decompose", tmp_path / "nope.ffpm", "--method", "fffp", "--k", "2",
                   "--out", tmp_path / "o")
        assert code == 4

    def test_corrupt_input_exits_4(self, tmp_path):
        bad = tmp_path / "bad.ffpm"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = run("decompose", bad, "--method", "fffp", "--k", "2", "--out", tmp_path / "o")
        assert code == 4


def write_frames(dir_path, frames):
    dir_path.mkdir(parents=True, exist_ok=True)
    for j, frame in enumerate(frames):
        write_pgm(dir_path / ("frame_%03d.pgm" % j), np.asarray(frame, dtype=np.uint8))


class TestBackground:
    def test_static_scene_reproduces_frames(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.integers(40, 200, (6, 5), dtype=np.uint8)
        frames_dir = tmp_path / "frames"
        write_frames(frames_dir, [frame] * 10)
        out = tmp_path / "sep"
        code = run("background", frames_dir, "--k", "1", "--method", "fffp", "--out", out)
        assert code == 0
        assert_environment(json.loads((out / "manifest.json").read_text()))
        for j in range(10):
            bg = read_pgm(out / ("background_frame_%03d.pgm" % j))
            fg = read_pgm(out / ("foreground_frame_%03d.pgm" % j))
            assert np.array_equal(bg, frame.astype(np.float64))
            assert fg.max() == 0.0

    def test_planted_block_lands_in_foreground(self, tmp_path):
        rng = np.random.default_rng(1)
        base = rng.integers(40, 120, (8, 8), dtype=np.uint8)
        moving = base.copy()
        moving[2:5, 2:5] = 250
        frames_dir = tmp_path / "frames"
        write_frames(frames_dir, [base] * 10 + [moving])
        out = tmp_path / "sep"
        assert run("background", frames_dir, "--k", "1", "--out", out) == 0
        quiet = [read_pgm(out / ("foreground_frame_%03d.pgm" % j)).max() for j in range(10)]
        loud = read_pgm(out / "foreground_frame_010.pgm")
        assert max(quiet) <= 2.0
        assert loud[2:5, 2:5].min() >= 100.0
        assert loud[6:, 6:].max() <= 2.0

    def test_ialm_needs_no_k(self, tmp_path):
        frame = np.random.default_rng(3).integers(40, 200, (6, 5), dtype=np.uint8)
        frames_dir = tmp_path / "frames"
        write_frames(frames_dir, [frame] * 8)
        out = tmp_path / "sep"
        assert run("background", frames_dir, "--method", "ialm", "--out", out) == 0
        assert json.loads((out / "report.json").read_text())["config"]["k"] is None

    def test_report_json_has_no_metrics_block(self, tmp_path):
        # background takes no truth, and the report block holds every statistic
        frame = np.random.default_rng(3).integers(40, 200, (6, 5), dtype=np.uint8)
        frames_dir = tmp_path / "frames"
        write_frames(frames_dir, [frame] * 8)
        out = tmp_path / "sep"
        assert run("background", frames_dir, "--k", "1", "--out", out) == 0
        assert set(json.loads((out / "report.json").read_text())) == {"report", "config"}

    def test_empty_directory_exits_2(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run("background", empty, "--k", "1", "--out", tmp_path / "o") == 2

    def test_output_phase_holds_no_dense_copy(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        base = rng.uniform(40, 200, (60, 50))
        frames = []
        for j in range(40):
            frame = base + rng.normal(0, 2, base.shape)
            frame[j:j + 8, 10:18] = 250
            frames.append(np.clip(frame, 0, 255).round())
        frames_dir = tmp_path / "frames"
        write_frames(frames_dir, frames)
        d, n = 60 * 50, 40
        memory = []
        real = cli.write_frame

        def traced(column, *rest):
            memory.append(tracemalloc.get_traced_memory()[0])
            real(column, *rest)

        monkeypatch.setattr(cli, "write_frame", traced)
        out = tmp_path / "sep"
        tracemalloc.start()
        try:
            code = run("background", frames_dir, "--method", "uffp", "--lambda", "100",
                       "--k", "2", "--out", out)
        finally:
            tracemalloc.stop()
        assert code == 0 and len(memory) == 2 * n
        # the input stack and s are one (d, n) array each; a dense L or |s| is a third
        assert max(memory) <= 2.5 * 8 * d * n
        # frames streamed from the factors match frames cut from the dense L
        stack = load_frame_stack(frames_dir)
        factors, _, _ = solve_uffp(stack.matrix, SolverConfig(k=2, lam=100.0))
        dense = factors.dense()
        for j, name in enumerate(stack.frame_names):
            path = tmp_path / name
            write_frame(dense[:, j], 60, 50, path)
            assert (out / ("background_" + name)).read_bytes() == path.read_bytes()

    def test_downsample_factor(self, tmp_path):
        frames_dir = tmp_path / "frames"
        write_frames(frames_dir, [np.arange(16).reshape(4, 4)] * 3)
        out = tmp_path / "sep"
        assert run("background", frames_dir, "--k", "1", "--downsample", "2", "--out", out) == 0
        assert read_pgm(out / "background_frame_000.pgm").shape == (2, 2)


class TestAnomaly:
    @staticmethod
    def planted_matrix(tmp_path):
        rng = np.random.default_rng(5)
        u = np.abs(rng.standard_normal(32))
        u /= np.linalg.norm(u)
        inliers = np.outer(u, rng.uniform(5, 9, 55))
        outliers = rng.standard_normal((32, 5))
        outliers *= rng.uniform(5, 9, 5) / np.linalg.norm(outliers, axis=0)
        x = np.concatenate([inliers, outliers], axis=1)
        path = tmp_path / "x.ffpm"
        write_matrix(path, x)
        return path, np.arange(55, 60)

    def test_top_m_flags_planted_columns(self, tmp_path):
        path, truth = self.planted_matrix(tmp_path)
        out = tmp_path / "anom"
        assert run("anomaly", path, "--top-m", "5", "--out", out) == 0
        flagged = [int(line) for line in
                   (out / "flagged.csv").read_text().strip().split("\n")[1:]]
        assert flagged == list(truth)
        scores = (out / "scores.csv").read_text().strip().split("\n")
        assert scores[0] == "index,score" and len(scores) == 61

    def test_threshold_mode(self, tmp_path):
        path, truth = self.planted_matrix(tmp_path)
        out = tmp_path / "anom"
        assert run("anomaly", path, "--threshold", "3.0", "--out", out) == 0
        flagged = [int(line) for line in
                   (out / "flagged.csv").read_text().strip().split("\n")[1:]]
        assert flagged == list(truth)

    def test_exact_low_rank_flags_nothing_above_threshold(self, tmp_path):
        rng = np.random.default_rng(6)
        x = np.outer(rng.standard_normal(20), rng.standard_normal(15))
        path = tmp_path / "clean.ffpm"
        write_matrix(path, x)
        out = tmp_path / "anom"
        assert run("anomaly", path, "--threshold", "1.0", "--out", out) == 0
        lines = (out / "flagged.csv").read_text().strip().split("\n")
        assert lines == ["index"]

    def test_nan_threshold_exits_2(self, tmp_path):
        path, _ = self.planted_matrix(tmp_path)
        assert run("anomaly", path, "--threshold", "nan", "--out", tmp_path / "anom") == 2

    @pytest.mark.parametrize("flag", [["--threshold", "nan"], ["--threshold", "-1"],
                                      ["--top-m", "-1"]], ids=["nan", "negative", "top-m"])
    def test_bad_flag_exits_2_before_solving(self, tmp_path, monkeypatch, flag):
        path, _ = self.planted_matrix(tmp_path)
        solves = []
        real = cli.solve_fffp
        monkeypatch.setattr(cli, "solve_fffp", lambda *a: solves.append(a) or real(*a))
        assert run("anomaly", path, *flag, "--out", tmp_path / "anom") == 2
        assert solves == []

    def test_threshold_and_top_m_modes_write_the_same_scores(self, tmp_path):
        path, _ = self.planted_matrix(tmp_path)
        by_threshold, by_top_m = tmp_path / "threshold", tmp_path / "top_m"
        assert run("anomaly", path, "--threshold", "1.0", "--out", by_threshold) == 0
        assert run("anomaly", path, "--top-m", "4", "--out", by_top_m) == 0
        scores = (by_threshold / "scores.csv").read_bytes()
        assert scores == (by_top_m / "scores.csv").read_bytes()

    def test_iteration_cap_exits_3_with_outputs(self, tmp_path):
        path, _ = self.planted_matrix(tmp_path)
        out = tmp_path / "anom"
        assert run("anomaly", path, "--max-iter", "3", "--out", out) == 3
        for name in ("scores.csv", "flagged.csv", "report.json", "manifest.json"):
            assert (out / name).exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["converged"] is False
        assert payload["report"]["iterations"] == 3


class TestBench:
    def test_single_factor_single_row(self, tmp_path):
        out = tmp_path / "bench"
        code = run("bench", "--axis", "samples", "--factors", "1.0", "--base-d", "60",
                   "--base-n", "60", "--rank", "2", "--k", "2", "--iters", "2",
                   "--repeats", "1", "--out", out)
        assert code == 0
        lines = (out / "scaling.csv").read_text().strip().split("\n")
        assert lines[0] == "size,seconds" and len(lines) == 2
        assert json.loads((out / "fit.json").read_text())["rows"][0][0] == 60

    def test_zero_repeats_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run("bench", "--axis", "samples", "--factors", "1.0", "--base-d", "60",
                   "--base-n", "60", "--rank", "2", "--k", "2", "--iters", "2",
                   "--repeats", "0", "--out", out)
        assert code == 2
        assert "repeats" in capsys.readouterr().err
        assert not (out / "scaling.csv").exists()

    def test_empty_factors_exits_2(self, tmp_path):
        code = run("bench", "--axis", "samples", "--factors", "", "--out", tmp_path / "b")
        assert code == 2

    @pytest.mark.parametrize("factors", ["inf", "1e400", "nan", "1,inf"])
    def test_non_finite_factor_exits_2_before_any_problem(self, factors, tmp_path,
                                                          monkeypatch, capsys):
        made = []
        monkeypatch.setattr(analysis, "make_problem", lambda **kw: made.append(kw))
        out = tmp_path / "bench"
        code = run("bench", "--axis", "samples", "--factors", factors, "--out", out)
        assert code == 2
        assert made == [] and not out.exists()
        assert "positive scalars" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [(["--k", "0"], "k must be at least 1"),
                                                (["--seed", "-1"], "seed must be nonnegative")],
                             ids=["k", "seed"])
    def test_bad_k_or_seed_exits_2_before_any_problem(self, flags, message, tmp_path,
                                                      monkeypatch, capsys):
        made = []
        monkeypatch.setattr(analysis, "make_problem", lambda **kw: made.append(kw))
        out = tmp_path / "bench"
        code = run("bench", "--axis", "samples", "--factors", "1.0", "--out", out, *flags)
        assert code == 2
        assert made == [] and not out.exists()
        assert message in capsys.readouterr().err

    def test_one_distinct_size_writes_a_null_fit(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run("bench", "--axis", "samples", "--factors", "1,1", "--base-d", "40",
                   "--base-n", "40", "--rank", "2", "--k", "2", "--iters", "2",
                   "--repeats", "1", "--out", out)
        assert code == 0
        assert json.loads((out / "fit.json").read_text())["r2"] is None
        assert "R^2 = nan over 2 sizes" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--method", "fffp", "--lambda", "123"],  # fffp has no weight
        ["--method", "uffp"],  # uffp needs one
    ], ids=["fffp_lambda", "uffp_no_weight"])
    def test_ignored_or_missing_weight_exits_2_before_solving(self, flags, tmp_path,
                                                              monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(cli, "scaling_benchmark", lambda *a, **kw: runs.append(a))
        out = tmp_path / "bench"
        code = run("bench", "--axis", "samples", "--factors", "1.0", "--base-d", "40",
                   "--base-n", "40", "--rank", "2", "--k", "2", "--iters", "2",
                   "--repeats", "1", "--out", out, *flags)
        assert code == 2
        assert runs == [] and not out.exists()
        assert "--lambda" in capsys.readouterr().err

    def test_missing_weight_names_only_flags_bench_has(self, tmp_path, capsys):
        # bench has --lambda but no --lambda-sweep, so the message offers only --lambda
        code = run("bench", "--axis", "samples", "--factors", "1", "--method", "uffp",
                   "--out", tmp_path / "bench")
        assert code == 2
        err = capsys.readouterr().err
        assert "--method uffp needs --lambda" in err and "--lambda-sweep" not in err


# the factored solvers have one start and one penalty schedule, and anomaly
# always runs fffp, which has no weight: no flag picks any of these
UNKNOWN_FLAGS = [(command, flag) for command in ("decompose", "background", "anomaly")
                 for flag in ("--init", "--rho0", "--kappa")] + [("anomaly", "--lambda")]


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["decompose", "background", "anomaly"])
    def test_solver_flag_defaults_are_the_config_defaults(self, command):
        method = ["--method", "fffp"] if command == "decompose" else []
        args = build_parser().parse_args([command, "in", "--k", "2", "--out", "o"] + method)
        cfg = SolverConfig(k=2)
        fields = ["tol", "max_iter", "seed"] + ([] if command == "anomaly" else ["lam"])
        for field in fields:
            assert getattr(args, field) == getattr(cfg, field)

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=command + flag.replace("--init", ""))
        for command, flag in UNKNOWN_FLAGS])
    def test_init_flag_is_unknown(self, command, flag, capsys):
        method = ["--method", "fffp"] if command == "decompose" else []
        assert run(command, "in", "--k", "2", "--out", "o", flag, "1", *method) == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "background"])
    @pytest.mark.parametrize("flags", [
        ["--method", "fffp", "--lambda-sweep"],
        ["--method", "ialm", "--lambda-sweep"],
        ["--method", "uffp", "--lambda", "5", "--lambda-sweep"],
        ["--method", "fffp", "--lambda", "5"],
        ["--method", "uffp"],
    ], ids=["fffp-sweep", "ialm-sweep", "uffp-lambda-sweep", "fffp-lambda", "uffp-no-weight"])
    def test_ignored_or_missing_weight_exits_2_before_reading(self, command, flags, tmp_path,
                                                              monkeypatch, capsys):
        reads = []
        monkeypatch.setattr(cli, "read_matrix", lambda *a: reads.append(a))
        monkeypatch.setattr(cli, "load_frame_stack", lambda *a: reads.append(a))
        out = tmp_path / "out"
        assert run(command, "in", "--k", "2", "--out", out, *flags) == 2
        assert reads == [] and not out.exists()
        assert "--lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "background"])
    @pytest.mark.parametrize("flags", [["--method", "fffp"], ["--method", "uffp", "--lambda", "1"]],
                             ids=["fffp", "uffp"])
    def test_factored_method_without_k_exits_2_before_reading(self, command, flags, tmp_path,
                                                              monkeypatch, capsys):
        reads = []
        monkeypatch.setattr(cli, "read_matrix", lambda *a: reads.append(a))
        monkeypatch.setattr(cli, "load_frame_stack", lambda *a: reads.append(a))
        out = tmp_path / "out"
        assert run(command, "in", "--out", out, *flags) == 2
        assert reads == [] and not out.exists()
        assert "%s needs --k" % flags[1] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "background", "anomaly"])
    @pytest.mark.parametrize("flags", [["--tol", "0"], ["--max-iter", "0"], ["--k", "0"],
                                       ["--seed", "-1"]],
                             ids=["tol", "max-iter", "k", "seed"])
    def test_bad_solver_value_exits_2_before_reading(self, command, flags, tmp_path,
                                                     monkeypatch, capsys):
        reads = []
        monkeypatch.setattr(cli, "read_matrix", lambda *a: reads.append(a))
        monkeypatch.setattr(cli, "load_frame_stack", lambda *a: reads.append(a))
        method = ["--method", "fffp"] if command == "decompose" else []
        out = tmp_path / "out"
        assert run(command, "in", "--k", "2", "--out", out, *method, *flags) == 2
        assert reads == [] and not out.exists()
        assert "%s must" % flags[0][2:].replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [(["--threshold", "nan"], "threshold must"),
                                                (["--top-m", "-1"], "--top-m must")],
                             ids=["threshold", "top-m"])
    def test_bad_anomaly_value_exits_2_before_reading(self, flags, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("anomaly", tmp_path / "missing.ffpm", "--out", out, *flags) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_version_flag(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out.strip()
