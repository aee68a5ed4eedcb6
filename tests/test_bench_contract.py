"""The calls the benchmark harness makes into kummerlat still work.

Each workload of ``bench/workloads.py`` builds its tiny inputs, runs every
item and checks every output against its oracle, at two seeds, in this
process.  A package change that breaks a call the harness makes (a renamed
function, a changed signature, a wrong answer) fails here, in seconds,
instead of in a benchmark run.  The bench files are only imported.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


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


@pytest.mark.parametrize(
    "name", ["catalog_table", "kummer_sweep", "isometry_pool", "classify_forms"]
)
def test_tiny_workload_verifies(workloads, name):
    wl = workloads.WORKLOADS[name]
    for seed in (workloads.DEFAULT_SEED, 7):
        items = wl.build(seed, True, 2)
        outputs = [wl.run(item) for item in items]
        assert items and wl.check(items, outputs) == [True] * len(items), (name, seed)
