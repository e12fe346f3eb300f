"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.load_library()

import tracer  # noqa: E402
import workloads  # noqa: E402
from rfharvest import learning  # noqa: E402


def small(name, tmp_path):
    """The workload with at most two operations per round."""
    workload = workloads.WORKLOADS[name](3, tmp_path)
    full = workload.round
    workload.round = lambda r: full(r)[:2]
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_output_and_self_times_fit_in_wall_time(name, tmp_path):
    workload = small(name, tmp_path)
    plain, traced, spans = run.Pass(workload), run.Pass(workload), tracer.Tracer()
    plain.run_round()
    with spans.patch():
        traced.run_round(spans)
    workload.close()

    assert plain.round_digests == traced.round_digests
    assert not any(o.wrong for o in plain.outcomes + traced.outcomes)
    assert spans.names, "no layer boundary was crossed"
    selfs = spans.self_times()
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= sum(sum(t) for t in traced.wall_times)


def test_function_bound_in_several_modules_is_traced_everywhere():
    spans = tracer.Tracer()
    with spans.patch():
        from rfharvest import gilbert_elliott, harness

        assert harness.simulate is learning.simulate is gilbert_elliott.simulate
        assert harness.simulate.__wrapped__ is not None
    assert not hasattr(harness.simulate, "__wrapped__")


def test_declared_per_layer_metrics_are_the_computed_ones():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(tracer.layer_metrics(tracer.Tracer(), {}, 0.0)) == declared


def test_removed_names_and_attributes_read_null(monkeypatch):
    monkeypatch.delattr(learning, "observe")
    monkeypatch.delattr(learning.SleepTimePlanner, "plan")
    spans = tracer.Tracer()
    with spans.patch():
        pass
    metrics = tracer.layer_metrics(spans, {}, 0.0)
    assert metrics["learning.observe.calls"] is None
    assert metrics["learning.observe.us_p50"] is None
    assert metrics["learning.plan.calls"] is None
    assert metrics["learning.plan.miss_ratio"] is None
    assert metrics["gilbert_elliott.simulate.calls"] == 0

    def solve(*args, **kwargs):
        return object()  # a result without ``iterations`` or ``value``

    spans = tracer.Tracer()
    spans.wrapped.add("value_iteration.solve")
    wrapped = spans._wrap("value_iteration.solve", solve)
    spans.enabled = True
    wrapped(None, None)
    metrics = tracer.layer_metrics(spans, {}, 0.0)
    assert metrics["value_iteration.solve.calls"] == 1
    assert metrics["value_iteration.solve.iterations"] is None
    assert metrics["value_iteration.lines_max"] is None


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()


def test_learn_long_counts_do_not_depend_on_host_speed(monkeypatch, tmp_path):
    workload = workloads.WORKLOADS["learn_long"](3, tmp_path)

    def instant(workload, op, tracer=None):
        failing = op[2] > 2000
        return workloads.Outcome(ok=not failing, work=0.0 if failing else op[2], output=b"x"), 1e-6, 1e-6

    monkeypatch.setattr(run, "setup_samples", lambda args: [0.1])
    monkeypatch.setattr(run, "run_op", instant)
    args = run.argparse.Namespace(workload="learn_long", seed=3, seconds=5.0, trace=0)
    result = json.loads(run.measure(workload, args))
    assert (result["attempted"], result["failed"]) == (1 + 2 * 4, 2 * 2)
