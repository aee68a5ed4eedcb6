"""The calls the benchmark harness makes into kummerlat still work.

Each workload of ``bench/workloads.py`` builds its tiny inputs, runs every
item and checks every output against its oracle, at two seeds, in this
process.  A package change that breaks a call the harness makes (a renamed
function, a changed signature, a wrong answer) fails here, in seconds,
instead of in a benchmark run.  A tiny traced child of each workload runs
in a subprocess too, and so does the runner itself, ``bench/run.py --trace
1 --seconds 0``, whose result line must parse and carry every per-layer
metric.  The bench files are only imported and run.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
WORKLOAD_NAMES = ["catalog_table", "kummer_sweep", "isometry_pool", "classify_forms"]


@pytest.fixture(scope="module")
def workloads():
    # import without writing bytecode caches under bench/
    sys.path.insert(0, str(BENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return workloads


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_workload_verifies(workloads, name):
    wl = workloads.WORKLOADS[name]
    for seed in (workloads.DEFAULT_SEED, 7):
        items = wl.build(seed, True, 2)
        outputs = [wl.run(item) for item in items]
        assert items and wl.check(items, outputs) == [True] * len(items), (name, seed)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_traced_child_reports_every_layer(name):
    # the traced run imports every submodule and wraps every public function
    # and method (bench/spans.py); a package change that breaks under it
    # leaves the traced benchmark run without metrics
    proc = subprocess.run(
        [sys.executable, "-B", str(BENCH / "child.py"), "--workload", name,
         "--seed", "20260808", "--tiny", "--trace"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["ok"] and all(result["ok"]), result["failed"]
    per_layer = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["layers"]) == {m["name"] for m in per_layer} - {"trace.overhead_ratio"}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_runner_reports_every_layer(name):
    # the runner aggregates its children's metrics; a child that crashes or a
    # metric that goes missing leaves the run without a valid result line
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-B", str(BENCH / "run.py"), "--workload", name,
         "--trace", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=120, cwd=BENCH.parent, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    per_layer = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in per_layer} <= set(result["metrics"])
