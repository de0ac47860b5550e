"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every workload prints every metric named in
``BENCHMARK.json`` with its unit, that another seed yields the same
metric names, and that a deliberately wrong output trips the workload's
gate and counts as a failed operation.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import robustpca as rp  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture()
def workdir():
    path = ROOT / ".bench_work" / ("smoke-%d" % os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_printed_with_its_unit(workload, trace):
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    runs = [bench(workload, seed, trace) for seed in (1, 2)]
    for text, result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for metric in wanted:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
            assert any(line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"]
                       for line in text)
    assert list(runs[0][1]["metrics"]) == list(runs[1][1]["metrics"])


def scale_core(wl, result):
    c = wl.out / "C.ffpm"
    rp.write_matrix(c, 1.1 * workloads.read_ffpm(c))
    return result


def brighten_background(wl, result):
    path = wl.out / ("background_%s.pgm" % wl.case.stems[0])
    frame = workloads.read_p5(path).astype(np.float64)
    rp.write_pgm(path, np.minimum(frame + 3.0, 255.0))
    return result


def scale_factored_core(wl, result):
    factors, s, report = result
    return rp.FactoredLowRank(factors.u, 1.01 * factors.c, factors.v), s, report


def scale_low_rank(wl, result):
    l, s, report = result
    return 1.05 * l, s, report


CORRUPT = {
    "fffp_2000": scale_factored_core,
    "ialm_400": scale_low_rank,
    "sweep_cli_400": scale_core,
    "background_cli": brighten_background,
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_wrong_output_trips_the_gate(workload, workdir):
    wl = workloads.WORKLOADS[workload](1, "tiny", workdir)
    wl.generate()
    runner = run.Runner(wl, rp)
    runner.op()
    assert (runner.attempted, runner.failed) == (1, 0)

    honest_op = wl.op
    wl.op = lambda: CORRUPT[workload](wl, honest_op())
    runner.op()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert not wl.check(CORRUPT[workload](wl, honest_op())).ok


def test_layer_predictions_name_benchmark_metrics():
    predictions = json.loads((ROOT / "perfbench" / "layers.json").read_text())["predictions"]
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    named = [name for p in predictions for name in p["layer_metrics"]]
    assert sorted(named) == sorted(layer_names)
    for p in predictions:
        assert set(p["moves"]) <= end_to_end
        assert set(p["workloads"]) | set(p["unmoved"]) <= set(run.WORKLOAD_NAMES)


def test_tracer_installs_removes_and_checks_self_times():
    tracer = spans.Tracer(rp)
    tracer.install()
    try:
        with pytest.raises(spans.TraceError):
            spans.assert_clean(rp)
        with tracer.span("bench.op") as root:
            rp.soft_threshold(np.ones((3, 3)), 0.5)
    finally:
        tracer.remove()
    spans.assert_clean(rp)
    assert [span.name for span in tracer.spans] == ["linalg.soft_threshold", "bench.op"]
    assert spans.op_layer_metrics(tracer.spans, root)["linalg.soft_threshold.calls"] == 1

    child = tracer.spans[0]
    child.end = root.end + 1.0  # a child that outlives its parent
    with pytest.raises(spans.TraceError):
        spans.subtree(tracer.spans, root)
