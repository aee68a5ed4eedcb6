"""Quick self-test of the benchmark harness, on tiny inputs.

    python3 bench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with
all outputs verified at two seeds; that each workload's oracle rejects a
deliberately wrong expected value; and that the tracer sees every call of
every function it wraps (compared with a count taken by sys.setprofile),
which fails if some module keeps an unwrapped binding.
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from collections import Counter
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from child import OBSERVERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, rep_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_outputs(workload: str, seed: int = DEFAULT_SEED):
    wl = WORKLOADS[workload]
    items = wl.build(rep_seed(seed, 0), True, 2)
    return wl, items, [wl.run(item) for item in items]


class Metrics(unittest.TestCase):
    def test_workload_names_match_benchmark_json(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))

    def test_every_metric_is_emitted_and_verified(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            for seed in (DEFAULT_SEED, 1):
                with self.subTest(workload=workload, seed=seed):
                    runner = run.Runner(workload, seed, 2, tiny=True)
                    metrics, results = run.end_to_end(runner, 0, workload)
                    self.assertEqual(set(metrics), e2e)
                    self.assertEqual(metrics["verified_frac"][0], 1.0)
                    self.assertEqual(run.count(results)[1], 0)
            with self.subTest(workload=workload, trace=1):
                runner = run.Runner(workload, DEFAULT_SEED, 2, tiny=True)
                metrics, results, same = run.traced(runner, 0, workload)
                self.assertEqual(set(metrics), layers)
                self.assertTrue(same, "traced and untraced outputs differ")
                self.assertEqual(run.count(results)[1], 0)


class Oracles(unittest.TestCase):
    """Each oracle passes the real outputs and rejects one wrong expectation."""

    def assert_fires(self, workload, pick, wrong):
        wl, items, outputs = tiny_outputs(workload)
        self.assertTrue(all(wl.check(items, outputs)))
        index = next(i for i, item in enumerate(items) if pick(item))
        tampered = list(items)
        tampered[index] = wrong(items[index], items, outputs)
        self.assertFalse(wl.check(tampered, outputs)[index])

    def test_catalog_table(self):
        self.assert_fires("catalog_table", lambda it: True,
                          lambda it, items, outs: replace(it, expected=it.expected + 1))

    def test_kummer_sweep(self):
        # claim the identity's values (n^3 sigma(n), Goettsche-Soergel) for an order 5 h
        self.assert_fires("kummer_sweep", lambda it: it.label == "n=2 type 8 h b=(0, 0, 0, 0)",
                          lambda it, items, outs: replace(it, expected=True))

    def test_isometry_pool(self):
        # list a conjugate under a source entry with other invariants
        def wrong(item, items, outputs):
            mine = outputs[items.index(item)][:3]
            other = next(it.label for it, out in zip(items, outputs)
                         if "conjugate" not in it.label and out[:3] != mine)
            return replace(item, label=f"{other} (conjugate 0)")

        self.assert_fires("isometry_pool", lambda it: it.label.endswith("(conjugate 0)"), wrong)

    def test_classify_forms(self):
        self.assert_fires("classify_forms", lambda it: it.inputs is not None,
                          lambda it, items, outs: replace(it, expected=not it.expected))


class Wrapping(unittest.TestCase):
    def test_tracer_sees_every_call(self):
        tracer = spans.Tracer()
        spans.import_spans(tracer)
        spans.install(tracer, OBSERVERS)
        codes = {fn.__code__: name for name, fn in tracer.originals.items()
                 if isinstance(fn, types.FunctionType)}
        profiled: Counter = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                profiled[codes[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            for workload in WORKLOADS:
                tiny_outputs(workload)
        finally:
            sys.setprofile(None)
        self.assertGreater(len(profiled), 50)
        for name in codes.values():
            self.assertEqual(tracer.calls[name], profiled[name], name)


if __name__ == "__main__":
    unittest.main()
