"""kummerlat benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``; nothing is built).  Load is one closed-loop client: each
repetition runs in a fresh child interpreter (bench/child.py), one child
at a time, as a command line user pays for every run.  A warm-up child on
tiny inputs runs first and is not counted.

``--trace 0`` repeats the workload until ``--seconds`` have passed (and at
least MIN_REPS times) and reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced children on the same inputs, reports the
per-layer metrics of the traced ones and their overhead, and requires both
kinds to produce identical outputs.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  NOTES.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from child import REFERENCE_S  # noqa: E402
from workloads import DEFAULT_SEED, SWEEP_SECONDS, WORKLOADS  # noqa: E402

MIN_REPS = 5
BUDGET_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10
TAIL_REPS = 2


def top_n_for(seconds: float) -> int:
    """Largest n whose kummer_sweep repetition fits MIN_REPS times into a run."""
    fitting = [n for n, cost in SWEEP_SECONDS.items() if cost * MIN_REPS <= seconds]
    return max(fitting, default=min(SWEEP_SECONDS))


def tail_percentile(items_per_rep: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND items beyond it in TAIL_REPS repetitions.

    It depends on the workload's size alone, not on how many repetitions a
    run manages, so a faster program is compared at the same percentile.
    The percentile is taken over the items of all repetitions of the run.
    Counting over two repetitions rather than one puts the tail inside the
    cluster of slowest items (the ten conjugates of one glued lattice in
    isometry_pool, the nine non-isomorphic (Z/5)^3 queries in
    classify_forms) instead of at its lower edge, where it jumps.
    """
    total = TAIL_REPS * items_per_rep
    return max(1, min(99, math.floor(100 * (total - TAIL_BEYOND) / total)))


class Runner:
    """Starts the children of one run, one at a time."""

    def __init__(self, workload: str, seed: int, top_n: int, tiny: bool = False):
        self.base = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
                     "--seed", str(seed), "--top-n", str(top_n)] + ["--tiny"] * tiny
        self.origin = self.start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since the measured loop started."""
        return time.perf_counter() - self.start

    def budget_left(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.origin)

    def child(self, *extra: str) -> dict | None:
        """Run one child to completion; None when it crashed or ran out of time."""
        timeout = max(1.0, self.budget_left())
        try:
            proc = subprocess.run(self.base + list(extra), cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"child {' '.join(extra)} exceeded {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else
                  f"child exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def count(results: list[dict | None]) -> tuple[int, int]:
    """(attempted, failed) items; a crashed child counts as one failed item."""
    attempted = sum(len(r["ok"]) if r else 1 for r in results)
    failed = sum(len(r["ok"]) - sum(r["ok"]) if r else 1 for r in results)
    return attempted, failed


def report_failures(results: list[dict | None]) -> None:
    for r in results:
        for line in (r["failed"] if r else [])[:5]:
            print(f"FAILED {line}", file=sys.stderr)


def end_to_end(runner: Runner, seconds: float, workload: str) -> tuple[dict, list]:
    results = []
    rep = 0
    while rep < MIN_REPS or runner.elapsed() < seconds:
        if runner.budget_left() < 10:
            break
        results.append(runner.child("--rep", str(rep)))
        rep += 1
    done = [r for r in results if r]
    if not done:
        return {}, results
    times_ms = [t * 1000 for r in done for t in r["item_s"]]
    pct = tail_percentile(len(done[0]["item_s"]))
    attempted, failed = count(results)
    print(f"{workload}: {len(done)} repetitions of {len(done[0]['item_s'])} items; "
          f"item_ms.tail is p{pct}, item_ms.p50 and .tail over {len(times_ms)} items; "
          f"raw median wall_s {statistics.median(r['raw_wall_s'] for r in done):.4f}, "
          f"calibration {statistics.median(r['calibration_s'] for r in done):.5f} s "
          f"against {REFERENCE_S} s")
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in done), "s"),
        "item_ms.p50": (statistics.median(times_ms), "ms"),
        "item_ms.tail": (statistics.quantiles(times_ms, n=100, method="inclusive")[pct - 1], "ms"),
        "verified_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
    }
    return metrics, results


def traced(runner: Runner, seconds: float, workload: str) -> tuple[dict, list, bool]:
    plain, traced_runs = [], []
    while not plain or runner.elapsed() < seconds:
        if runner.budget_left() < 10:
            break
        plain.append(runner.child("--rep", "0"))
        traced_runs.append(runner.child("--rep", "0", "--trace"))
    results = plain + traced_runs
    if not all(results):
        return {}, results, False
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        print("traced and untraced runs gave different outputs", file=sys.stderr)
    # counts repeat exactly; median_low keeps them whole numbers
    layers = {name: ((statistics.median if unit == "s" else statistics.median_low)(
                  r["layers"][name][0] for r in traced_runs), unit)
              for name, (_, unit) in traced_runs[0]["layers"].items()}
    overhead = (statistics.median(r["wall_s"] for r in traced_runs)
                / statistics.median(r["wall_s"] for r in plain))
    layers["trace.overhead_ratio"] = (overhead, "ratio")
    print(f"{workload}: {len(plain)} untraced and {len(traced_runs)} traced repetitions")
    return layers, results, len(digests) == 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kummerlat" / "__init__.py").is_file():
        print(f"error: no kummerlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, top_n_for(args.seconds))
    if runner.child("--tiny") is None:
        print("error: the warm-up repetition failed", file=sys.stderr)
        return 1
    runner.start = time.perf_counter()
    if args.trace:
        metrics, results, same = traced(runner, args.seconds, args.workload)
    else:
        metrics, results = end_to_end(runner, args.seconds, args.workload)
        same = True
    report_failures(results)
    attempted, failed = count(results)
    print(json.dumps({
        "correct": bool(metrics) and failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
