"""Self-tests of the repository benchmark (``perfbench/``).

Every workload runs at a tiny geometry, untraced and traced, through the
same command the benchmark uses; the tests check that every metric prints
by name with its unit and that the harness pieces (span self time, process
tree memory, environment hygiene) do what the benchmark relies on.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import proctree  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    """``{trace: (stdout, result)}`` of every workload at tiny geometry."""
    runs = {}
    for trace in (0, 1):
        proc = _run("--workload", "all", "--tiny", "--seed", "3",
                    "--seconds", "0.2", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        runs[trace] = proc.stdout, json.loads(proc.stdout.splitlines()[-1])
    return runs


def test_units_match_benchmark_json():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
def test_every_workload_prints_every_metric_with_unit(tiny_runs, trace):
    stdout, result = tiny_runs[trace]
    bench = _benchmark_json()
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for metric in declared:
            printed = result["metrics"][f"{name}/{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
            assert any(
                line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                for line in stdout.splitlines()
            ), metric["name"]
        if not trace:
            assert all(result["metrics"][f"{name}/{m['name']}"]["value"] > 0
                       for m in declared)


def test_traced_run_reports_layers(tiny_runs):
    _, result = tiny_runs[1]
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["meta-10m/executor.wait_s"] == 0
    assert value["meta-10m/plan.table_calls"] > 0
    assert value["meta-10m/hazard.on_plan_s"] > 0
    # Planner workers ship their spans back: Plan time shows on train-200k.
    assert value["train-200k/executor.wait_s"] > 0
    assert value["train-200k/plan.table_s"] > 0
    assert value["train-200k/train.step_s"] > 0
    assert value["fig13-sweep/sweep.points"] == 28
    assert value["fig13-sweep/sweep.point_failures"] == 0
    assert value["fig13-sweep/systems.run_trace_s.scratchpipe"] > 0
    for name in workloads.WORKLOADS:
        assert value[f"{name}/hazard.violations"] == 0
        assert value[f"{name}/trace.overhead"] > 0


def test_trace_overhead_reads_the_cost_of_the_wrappers(monkeypatch, tmp_path):
    """Each traced unit is paired with an untraced unit after the same kind
    of set-up, so wrappers made to cost 1 ms a span read well above 1 (the
    real wrappers cost less than the noise of a tiny unit)."""
    wrap = spans.Recorder.wrap

    def slow_wrap(self, name, fn, after=None):
        timed = wrap(self, name, fn, after)

        def spanned(*args, **kwargs):
            time.sleep(0.001)
            return timed(*args, **kwargs)

        return spanned

    monkeypatch.setattr(spans.Recorder, "wrap", slow_wrap)
    g = workloads.WORKLOADS["meta-10m"].tiny()
    outcome = workloads.Outcome()
    metrics = workloads.traced("meta-10m", workloads.MetaWorkload(g, 3), 3, True,
                               tmp_path, outcome)
    assert outcome.errors == []
    assert len(outcome.units) == 2 * workloads.TRACE_PAIRS
    assert metrics["trace.overhead"] > 2


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meta-10m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_child_env_clears_inherited_repro_variables():
    run = _load_run()
    inherited = {"REPRO_TRACE_CACHE": "/x", "REPRO_LEGACY_SELECT": "1",
                 "REPRO_EXECUTOR_WORKERS": "7", "HOME": "/home/u"}
    meta = run.child_env("meta-10m", inherited)
    assert not any(k.startswith("REPRO_") for k in meta)
    assert meta["HOME"] == "/home/u"
    assert meta["PYTHONPATH"].split(":")[0] == str(ROOT / "src")
    train = run.child_env("train-200k", inherited)
    assert [k for k in train if k.startswith("REPRO_")] == ["REPRO_EXECUTOR_WORKERS"]
    assert train["REPRO_EXECUTOR_WORKERS"] == str(max(1, workloads.nproc() - 1))


def test_tree_memory_counts_an_allocating_grandchild():
    grandchild = ("import numpy as np, time; a = np.ones(25_000_000); "
                  "time.sleep(1.5)")
    child = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {grandchild!r}])"
    with proctree.TreeMemory(interval_s=0.05) as memory:
        subprocess.run([sys.executable, "-c", child], timeout=60)
    assert memory.peak_kb >= 150 * 1024  # the grandchild's 200 MB array
    assert len(memory.seen) >= 2  # the child and the grandchild


def test_span_self_time_excludes_children_and_reentry():
    recorder = spans.Recorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = recorder.wrap("inner", inner)

    def outer(depth):
        time.sleep(0.01)
        wrapped_inner()
        if depth:
            wrapped_outer(depth - 1)

    wrapped_outer = recorder.wrap("outer", outer)
    wrapped_outer(1)
    assert recorder.calls["outer"] == 1  # the re-entry is not a second span
    assert recorder.calls["inner"] == 2
    assert recorder.total["outer"] >= 0.06
    assert recorder.self_time["outer"] == pytest.approx(
        recorder.total["outer"] - recorder.total["inner"])
    assert recorder.nested_calls["outer>inner"] == 2


def test_tail_is_highest_percentile_with_ten_beyond():
    value, percentile, beyond = workloads.tail(list(range(100)))
    assert (value, percentile, beyond) == (89, 90.0, 10)
    assert workloads.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_e2e_metrics_pool_throughput_and_p50_and_take_the_tail_per_unit():
    units = [workloads.Unit(wall=w, batches=3, ops=3, digest="d", intervals=list(i))
             for w, i in ((4.0, (1.0, 1.0, 9.0)), (3.0, (2.0, 2.0, 3.0)),
                          (5.0, (3.0, 9.0, 9.0)))]
    metrics = workloads.e2e_metrics(units, [0.5, 0.7, 0.6], {})
    assert metrics["throughput_bps"] == 9 / 12
    assert metrics["figure_s"] == 4.0
    assert metrics["batch_ms_p50"] == 3000.0  # pooled; the unit medians' is 2
    assert metrics["batch_ms_tail"] == 9000.0  # unit maxima 9, 3, 9
    assert metrics["setup_s"] == 0.6
    calls = [workloads.Unit(wall=w, batches=10, ops=1, digest="d") for w in (5.0, 4.0, 6.0)]
    metrics = workloads.e2e_metrics(calls, [1.0], {})
    assert metrics["figure_s"] == 5.0
    assert metrics["batch_ms_p50"] == metrics["batch_ms_tail"] == 500.0
