"""One repetition of one workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N --rep R [--top-n N] [--tiny] [--trace]

Imports kummerlat from ``src`` next to this directory, generates the inputs
(the timed set-up), runs every item one after another (each timed), checks
the outputs against their oracles and prints one JSON object.  With
``--trace`` it first wraps the package (see spans.py) and adds the per-layer
metrics of the run, taken before the checks so that they count the workload
alone.

The host's speed drifts by a quarter within a minute (other tenants share
its cores), which would swamp any change worth measuring.  So each child
also times a fixed pure-Python loop, ``reference_work``: three times before
and after set-up, between items about every CALIBRATE_EVERY_S, and three
times at the end.  Every time it reports is scaled by REFERENCE_S over the
median loop time around it (around set-up, or the two samples before and
after an item), so times are in seconds of a host running at the
reference speed.  The loop does not touch kummerlat, so a change to
the package moves the scaled times exactly as it moves the raw ones.  The
raw times are reported as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, rep_seed  # noqa: E402

# Seconds reference_work takes at the reference speed, about its median on a
# 2-core Xeon VM at 2.0 GHz with Python 3.11.7.
REFERENCE_S = 0.0100
CALIBRATE_EVERY_S = 0.1


def reference_work() -> int:
    """A fixed mix of the interpreter work kummerlat does: ints, dicts, tuples, Fractions."""
    acc, table, rows = 0, {}, []
    for i in range(6_000):
        acc += (i * i) % 7
        table[i & 255] = table.get(i & 255, 0) + acc
        rows.append((i, -i))
    for i in range(1, 800):
        x = Fraction(i % 5, 7) * Fraction(2, 3) + Fraction(i, 11)
        acc += x.numerator
    return acc


def calibration(samples: list[float], count: int = 1) -> None:
    """Append ``count`` timings of reference_work to ``samples``."""
    for _ in range(count):
        t0 = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - t0)


CYCLOTOMIC_OPS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "inverse",
                  "__truediv__", "embed")


def _count_characters(tracer, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.counts["characters_scanned"] += n**4
    tracer.counts["characters_fixed"] += len(result)


def _note_profile(tracer, args, kwargs, result):
    aut = args[0] if args else kwargs["aut"]
    tracer.seen.setdefault("profiles", set()).add((aut.matrix.data, aut.torsion))


def _count_smith(tracer, args, kwargs, result):
    if tracer.active["isometries.compute_invariants"]:
        tracer.counts["smith_in_invariants"] += 1


OBSERVERS = {
    "lefschetz.fixed_characters": _count_characters,
    "lefschetz.lefschetz_q": _note_profile,
    "matrix.smith_normal_form": _count_smith,
}


RATIOS = ("isometries.smith_per_isometry", "lefschetz.fixed_ratio", "lefschetz.profile_reuse")


def layer_metrics(tr: spans.Tracer, scale: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, with their units.

    Times are multiplied by ``scale``, the speed correction of the run.
    """

    def secs(ns):
        return ns / 1e9 * scale

    def ratio(num, den):
        return num / den if den else 0.0

    calls, counts = tr.calls, tr.counts
    invariants = calls["isometries.compute_invariants"]
    q_calls = calls["lefschetz.lefschetz_q"]
    values = {
        "matrix.self_s": secs(tr.layer_self_ns["matrix"]),
        "matrix.Matrix.calls": calls["matrix.Matrix.__init__"],
        "matrix.smith_normal_form.calls": calls["matrix.smith_normal_form"],
        "matrix.smith_normal_form.self_s": secs(tr.self_ns["matrix.smith_normal_form"]),
        "matrix.exact_det.calls": calls["matrix.exact_det"],
        "matrix.integer_kernel.calls": calls["matrix.integer_kernel"],
        "isometries.self_s": secs(tr.layer_self_ns["isometries"]),
        "isometries.smith_per_isometry": ratio(counts["smith_in_invariants"], invariants),
        "pool.total_s": secs(tr.layer_total_ns["pool"]),
        "cyclotomic.self_s": secs(tr.layer_self_ns["cyclotomic"]),
        "cyclotomic.ops": sum(calls[f"cyclotomic.CyclotomicNumber.{op}"] for op in CYCLOTOMIC_OPS),
        "series.self_s": secs(tr.layer_self_ns["series"]),
        "series.bi_mul.calls": calls["series.TruncatedBiSeries.__mul__"],
        "series.bi_invert.calls": calls["series.TruncatedBiSeries.invert"],
        "series.laurent_divmod.self_s": secs(tr.self_ns["series.laurent_divmod"]),
        "lefschetz.self_s": secs(tr.layer_self_ns["lefschetz"]),
        "lefschetz.fixed_characters.self_s": secs(tr.self_ns["lefschetz.fixed_characters"]),
        "lefschetz.characters_scanned": counts["characters_scanned"],
        "lefschetz.characters_fixed": counts["characters_fixed"],
        "lefschetz.fixed_ratio": ratio(counts["characters_fixed"], counts["characters_scanned"]),
        "lefschetz.profile_reuse": ratio(q_calls - len(tr.seen.get("profiles", ())), q_calls),
        "lefschetz.corollary_value.total_s": secs(tr.total_ns["lefschetz.corollary_value"]),
        "lattices.self_s": secs(tr.layer_self_ns["lattices"]),
        "lattices.fqf_isomorphic.calls": calls["lattices.fqf_isomorphic"],
        "lattices.fqf_isomorphic.self_s": secs(tr.self_ns["lattices.fqf_isomorphic"]),
        "lattices.discriminant_form.calls": calls["lattices.discriminant_form"],
        "lattices.signature.calls": calls["lattices.signature"],
        "classification.total_s": secs(tr.layer_total_ns["classification"]),
    }
    return {name: (value, "s" if name.endswith("_s") else "ratio" if name in RATIOS else "count")
            for name, value in values.items()}


def run_repetition(workload: str, seed: int, rep: int, top_n: int, tiny: bool,
                   traced: bool) -> dict:
    wl = WORKLOADS[workload]
    tracer = spans.Tracer() if traced else None
    setup_cal: list[float] = []
    calibration(setup_cal, 3)
    start = time.perf_counter()
    if tracer:
        spans.import_spans(tracer)
        spans.install(tracer, OBSERVERS)
    else:
        import kummerlat  # noqa: F401
    items = wl.build(rep_seed(seed, rep), tiny, top_n)
    setup_s = time.perf_counter() - start
    calibration(setup_cal, 3)

    # calibrate between items too, about every CALIBRATE_EVERY_S of item time;
    # item i is scaled by the samples around it, as the speed drifts within
    # a long repetition
    item_cal: list[float] = setup_cal[3:]
    outputs, item_s, errors, marks = [], [], {}, []
    since_cal = 0.0
    for i, item in enumerate(items):
        marks.append(len(item_cal))
        t0 = time.perf_counter()
        try:
            outputs.append(wl.run(item))
        except Exception as exc:  # an item that raises counts as failed
            outputs.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
        item_s.append(time.perf_counter() - t0)
        since_cal += item_s[-1]
        if since_cal >= CALIBRATE_EVERY_S:
            calibration(item_cal)
            since_cal = 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration(item_cal, 3)
    setup_scale = REFERENCE_S / statistics.median(setup_cal)
    scaled_s = [t * REFERENCE_S / statistics.median(item_cal[max(0, m - 2):m + 2])
                for t, m in zip(item_s, marks)]
    item_scale = sum(scaled_s) / sum(item_s) if sum(item_s) else 1.0
    layers = layer_metrics(tracer, item_scale) if tracer else None

    good = [i for i in range(len(items)) if i not in errors]
    verdicts = wl.check([items[i] for i in good], [outputs[i] for i in good])
    ok = [False] * len(items)
    for i, verdict in zip(good, verdicts):
        ok[i] = bool(verdict)
    digest = hashlib.sha256(repr([None if i in errors else wl.canon(outputs[i])
                                  for i in range(len(items))]).encode()).hexdigest()
    return {
        "setup_s": setup_s * setup_scale,
        "wall_s": sum(scaled_s),
        "item_s": scaled_s,
        "raw_setup_s": setup_s,
        "raw_wall_s": sum(item_s),
        "calibration_s": statistics.median(item_cal),
        "ok": ok,
        "failed": [f"{items[i].label}: {errors.get(i, 'wrong output')}"
                   for i in range(len(items)) if not ok[i]],
        "digest": digest,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--top-n", type=int, default=2)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = run_repetition(args.workload, args.seed, args.rep, args.top_n, args.tiny, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
