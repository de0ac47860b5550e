import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import ab_pairs  # noqa: E402
import trees  # noqa: E402

# A toy tool whose collect step reports which robustpca it imported.  This
# checkout's src comes last on its path, as an installed copy would, so a
# checkout without the package falls through to it.
TOY = """
import sys
sys.path.insert(0, {tools!r})
sys.path.append({src!r})
import trees


def collect(*args):
    import robustpca
    return getattr(robustpca, "MARKER", None), robustpca.__file__, args


if __name__ == "__main__":
    sys.exit(0 if trees.serve(collect, sys.argv) else 2)
"""


@pytest.fixture()
def toy(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY.format(tools=str(ROOT / "tools"), src=str(ROOT / "src")))
    return path


def fake_checkout(root, with_package=True):
    (root / "perfbench").mkdir(parents=True)
    if with_package:
        (root / "src" / "robustpca").mkdir(parents=True)
        (root / "src" / "robustpca" / "__init__.py").write_text('MARKER = "fake"\n')
    return root


class TestTrees:
    def test_collect_imports_the_given_checkout(self, toy, tmp_path):
        fake = fake_checkout(tmp_path / "fake")
        marker, path, args = trees.run(toy, fake, "a", "b")
        assert marker == "fake"
        assert Path(path).is_relative_to(fake / "src")
        assert args == ("a", "b")

    def test_checkout_without_the_package_fails(self, toy, tmp_path, capfd):
        # robustpca then comes from this checkout, which the step refuses
        empty = fake_checkout(tmp_path / "empty", with_package=False)
        with pytest.raises(subprocess.CalledProcessError):
            trees.run(toy, empty)
        err = capfd.readouterr().err
        assert "RuntimeError: imported " in err and "not from %s" % empty in err
        assert str(ROOT / "src" / "robustpca" / "__init__.py") in err

    def test_bound_reads_this_checkouts_benchmark(self):
        assert trees.bound("recovery_error") == 0.2

# A stand-in for perfbench/run.py: it logs which tree ran which seed and
# prints the canned result that its tree's values.json holds for that seed
FAKE_RUN = """
import json
import sys
from pathlib import Path

tree = Path(__file__).resolve().parent.parent
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(tree.parent / "order.log", "a") as log:
    log.write("%s %s\\n" % (tree.name, seed))
canned = json.loads((tree / "values.json").read_text())
print("environment: " + json.dumps({"numpy": "1.0", "git_commit": None,
                                    "src_sha256": tree.name}))
print("wall_s  %s s" % canned["wall_s"][seed])
metrics = {name: {"value": value, "unit": "-"} for name, value in canned["fixed"].items()}
metrics["wall_s"] = {"value": canned["wall_s"][seed], "unit": "s"}
print(json.dumps({"correct": canned["correct"], "attempted": 4, "failed": 0,
                  "metrics": metrics}))
"""
FIXED = {"setup_s": 1.0, "iterations": 11, "recovery_error": 1e-4, "peak_mem_mb": 10.0,
         "ok_ratio": 1.0}


def fake_bench_tree(root, wall_s, correct=True):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "values.json").write_text(json.dumps({
        "wall_s": {str(seed): value for seed, value in enumerate(wall_s, 1)},
        "fixed": FIXED, "correct": correct}))
    return root


class TestAbPairs:
    def test_pairs_alternate_and_summary(self, tmp_path, capsys):
        old = fake_bench_tree(tmp_path / "old", [1.0, 1.1, 0.9, 1.2])
        new = fake_bench_tree(tmp_path / "new", [0.5, 0.6, 1.0, 0.55])
        out = tmp_path / "bench.json"
        code = ab_pairs.main([str(old), str(new), "--workload", "sweep_cli_400", "--pairs", "4",
                              "--seconds", "1", "--claim", "sweep_cli_400:wall_s",
                              "--out", str(out)])
        assert code == 0
        # OLD first on odd pairs, NEW first on even ones
        assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
            "old 1", "new 1", "new 2", "old 2", "old 3", "new 3", "new 4", "old 4"]
        bench = json.loads(out.read_text())
        assert list(bench) == list(json.loads((ROOT / "BENCH_pr27.json").read_text()))
        workload = bench["workloads"]["sweep_cli_400"]
        assert workload["parent_first"] == [True, False, True, False]
        assert workload["seeds"] == [1, 2, 3, 4] and workload["correct"]
        wall = workload["metrics"]["wall_s"]
        assert wall["parent_runs"] == [1.0, 1.1, 0.9, 1.2]
        assert wall["change_runs"] == [0.5, 0.6, 1.0, 0.55]
        assert wall["parent_median"] == pytest.approx(1.05)
        assert wall["change_median"] == pytest.approx(0.575)
        assert wall["parent_iqr"] == pytest.approx(1.125 - 0.975)
        assert (wall["change_wins"], wall["change_losses"]) == (3, 1)
        assert not wall["gain_met"]  # 3 of 4 is below nine tenths
        ties = workload["metrics"]["ok_ratio"]
        assert (ties["change_wins"], ties["change_losses"]) == (0, 0)
        assert bench["claim"]["met"] is False and bench["claim"]["change_wins"] == 3
        assert bench["environment"]["src_sha256"] == {"parent": "old", "change": "new"}
        printed = capsys.readouterr().out
        assert "wall_s          1.05 (0.15) -> 0.575 (0.162)  3/4" in printed
        assert "claim sweep_cli_400:wall_s: not met" in printed

    def test_gain_met_when_every_pair_wins(self, tmp_path):
        old = fake_bench_tree(tmp_path / "old", [1.0, 1.1])
        new = fake_bench_tree(tmp_path / "new", [0.5, 0.6])
        out = tmp_path / "bench.json"
        assert ab_pairs.main([str(old), str(new), "--workload", "fffp_2000", "--pairs", "2",
                              "--seconds", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["workloads"]["fffp_2000"]["metrics"]["wall_s"][
            "gain_met"]

    def test_incorrect_run_exits_1(self, tmp_path):
        old = fake_bench_tree(tmp_path / "old", [1.0])
        new = fake_bench_tree(tmp_path / "new", [0.5], correct=False)
        assert ab_pairs.main([str(old), str(new), "--workload", "ialm_400", "--pairs", "1",
                              "--seconds", "1"]) == 1

    def test_tree_without_run_py_is_refused(self, tmp_path):
        old = fake_bench_tree(tmp_path / "old", [1.0])
        (tmp_path / "bare").mkdir()
        with pytest.raises(SystemExit) as exc:
            ab_pairs.main([str(old), str(tmp_path / "bare"), "--workload", "ialm_400",
                           "--pairs", "1", "--seconds", "1"])
        assert exc.value.code == 2
        assert not (tmp_path / "order.log").exists()
