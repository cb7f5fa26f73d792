"""The benchmark's workloads, run in process: one pass of each fails nothing,
and a second pass of oracle-d2 and sweep-d2 repeats the first exactly, so a
kept-state fault (kept grid, kept paths, estimate memo) that changes a later
pass's output shows here before the benchmark runs.  Every operation's
per-layer metric is declared in BENCHMARK.json, which the traced bench
requires."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


class NoReference:
    """A machine-speed reference that never samples."""

    spent = 0.0

    def maybe_sample(self):
        pass


@pytest.mark.parametrize("name, passes", [("lemmas-d3", 1), ("oracle-d2", 2), ("sweep-d2", 2)])
def test_passes_fail_nothing_and_repeat(tmp_path, name, passes):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(0)
    results = [workload.run_pass(inputs, 0, workloads.OpClock(NoReference()), str(tmp_path))
               for _ in range(passes)]
    for result in results:
        assert result.attempted > 0
        assert result.failures == []
    assert all(r.fingerprint == results[0].fingerprint for r in results[1:])


@pytest.mark.parametrize("name, count", [("lemmas-d3", 20), ("oracle-d2", 4), ("sweep-d2", 0)])
def test_every_op_metric_is_declared(name, count):
    # the traced bench refuses an op metric that BENCHMARK.json does not list,
    # and every public suite row or oracle group function is an op
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    workload = workloads.WORKLOADS[name]
    metrics = [workload.op_metric(fn) for _, fn in workload.op_targets()]
    assert len(metrics) == count
    assert [m for m in metrics if m is not None and m not in declared] == []
