"""Tests of run.py's result check and of its refusal to compare results of
different machine shapes."""

import copy
import importlib.util
import os
import unittest

_spec = importlib.util.spec_from_file_location(
    "perfbench_run",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

CONTRACT = {
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [{"name": "sta.full_ms", "unit": "ms", "better": "lower"}],
}


def record(latency=10.0, rate=100.0, trace=0, **shape):
    full_shape = {"workload": "predict_mix", "seed": 1, "nproc": 4,
                  "kernel_backend": "avx2", "tg_threads": 1,
                  "server_workers": 2, "scale": "1/32",
                  "build_type": "Release"}
    full_shape.update(shape)
    return {"shape": full_shape, "trace": trace,
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {
                           "latency_p50_ms": {"value": latency, "unit": "ms"},
                           "throughput_per_s": {"value": rate, "unit": "1/s"},
                       }}}


def by_name(lines):
    return {line.split()[0]: line for line in lines}


class CompareTest(unittest.TestCase):
    def test_same_shape_compares(self):
        lines = run.compare(record(), record(latency=10.5), CONTRACT)
        self.assertEqual(len(lines), 2)
        self.assertFalse(any("WORSE" in line for line in lines))

    def test_another_seed_is_the_same_shape(self):
        run.compare(record(seed=1), record(seed=2), CONTRACT)

    def test_refuses_every_shape_difference(self):
        changed = {"workload": "eco_stream", "nproc": 8,
                   "kernel_backend": "portable", "tg_threads": 4,
                   "server_workers": 1, "scale": "1/16",
                   "build_type": "Debug"}
        self.assertEqual(set(changed), set(run.SHAPE_KEYS))
        for key, value in changed.items():
            with self.subTest(key=key):
                with self.assertRaises(run.ShapeMismatch) as ctx:
                    run.compare(record(), record(**{key: value}), CONTRACT)
                self.assertIn(key, str(ctx.exception))

    def test_refuses_traced_against_untraced(self):
        with self.assertRaises(run.ShapeMismatch):
            run.compare(record(trace=0), record(trace=1), CONTRACT)

    def test_flags_a_change_past_the_bound_in_the_worse_direction(self):
        lines = by_name(run.compare(record(), record(latency=12.0, rate=120.0),
                                    CONTRACT))
        self.assertIn("WORSE", lines["latency_p50_ms"])
        self.assertNotIn("WORSE", lines["throughput_per_s"])
        lines = by_name(run.compare(record(), record(rate=85.0), CONTRACT))
        self.assertIn("WORSE", lines["throughput_per_s"])


class CheckResultTest(unittest.TestCase):
    def result(self):
        return copy.deepcopy(record()["result"])

    def test_accepts_the_contract_metrics(self):
        run.check_result(self.result(), CONTRACT, 0)

    def test_rejects_a_missing_extra_or_misunited_metric(self):
        missing = self.result()
        del missing["metrics"]["throughput_per_s"]
        extra = self.result()
        extra["metrics"]["queue_ms"] = {"value": 1.0, "unit": "ms"}
        unit = self.result()
        unit["metrics"]["latency_p50_ms"]["unit"] = "s"
        for r in (missing, extra, unit):
            with self.assertRaises(run.BenchError):
                run.check_result(r, CONTRACT, 0)

    def test_a_traced_result_carries_the_per_layer_metrics(self):
        with self.assertRaises(run.BenchError):
            run.check_result(self.result(), CONTRACT, 1)
        traced = self.result()
        traced["metrics"] = {"sta.full_ms": {"value": 7.5, "unit": "ms"}}
        run.check_result(traced, CONTRACT, 1)

    def test_rejects_bad_counts_and_values(self):
        mutations = (
            lambda r: r.update(attempted=0),
            lambda r: r.update(failed=True),
            lambda r: r.update(extra=1),
            lambda r: r["metrics"]["latency_p50_ms"].update(
                value=float("nan")),
        )
        for mutate in mutations:
            r = self.result()
            mutate(r)
            with self.assertRaises(run.BenchError):
                run.check_result(r, CONTRACT, 0)


if __name__ == "__main__":
    unittest.main()
