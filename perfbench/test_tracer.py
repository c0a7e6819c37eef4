"""Tests of the benchmark's own tracer.

    python3 -m pytest perfbench/test_tracer.py      (or: python3 perfbench/test_tracer.py)
"""

import itertools
import types
import unittest

from tracer import Tracer


def ticking_clock(step=1.0):
    counter = itertools.count()
    return lambda: next(counter) * step


class SelfTimeTest(unittest.TestCase):
    def test_nested_self_times_sum_to_parent(self):
        tr = Tracer(clock=ticking_clock())
        with tr.span("root"):
            with tr.span("a"):
                with tr.span("leaf"):
                    pass
                with tr.span("leaf"):
                    pass
            with tr.span("b"):
                pass
        spans = tr.summary()["spans"]
        root = spans["root"]["total_s"]
        self.assertEqual(sum(rec["self_s"] for rec in spans.values()), root)
        a = spans["a"]
        self.assertEqual(a["self_s"], a["total_s"] - spans["leaf"]["total_s"])
        self.assertEqual(spans["leaf"]["calls"], 2)
        self.assertEqual(spans["root"]["self_s"],
                         root - spans["a"]["total_s"] - spans["b"]["total_s"])

    def test_by_parent_splits_one_name_by_caller(self):
        tr = Tracer(clock=ticking_clock())
        with tr.span("solve"):
            with tr.span("value"):
                pass
        with tr.span("residual"):
            with tr.span("value"):
                pass
            with tr.span("value"):
                pass
        summ = tr.summary()
        self.assertEqual(summ["by_parent"]["solve>value"], 1.0)
        self.assertEqual(summ["by_parent"]["residual>value"], 2.0)
        self.assertEqual(summ["spans"]["value"]["total_s"], 3.0)


class WrapTest(unittest.TestCase):
    def setUp(self):
        self.lib = types.ModuleType("lib")

        def inner(x):
            return x + 1

        def outer(x):
            return self.lib.inner(x) * 2

        self.lib.inner = inner
        self.lib.outer = outer
        self.user = types.ModuleType("user")
        self.user.inner = inner          # as after `from lib import inner`

    def test_wrapped_calls_nest_through_aliases(self):
        tr = Tracer(clock=ticking_clock())
        seen = []
        self.assertTrue(tr.wrap(self.lib, "inner", "lib.inner", aliases=[self.user],
                                on_return=lambda t, a, k, r: seen.append(r)))
        self.assertTrue(tr.wrap(self.lib, "outer", "lib.outer"))
        self.assertEqual(self.lib.outer(1), 4)
        self.assertEqual(self.user.inner(5), 6)
        summ = tr.summary()
        self.assertEqual(summ["spans"]["lib.inner"]["calls"], 2)
        self.assertIn("lib.outer>lib.inner", summ["by_parent"])
        self.assertIn(">lib.inner", summ["by_parent"])
        self.assertEqual(seen, [2, 6])

    def test_missing_name_is_absent_not_an_error(self):
        tr = Tracer()
        self.assertFalse(tr.wrap(self.lib, "jacobi_eigh", "lib.jacobi_eigh"))
        self.assertFalse(tr.wrap(None, "ordered_map", "_parallel.ordered_map"))
        self.assertEqual(tr.summary()["absent"], ["_parallel.ordered_map", "lib.jacobi_eigh"])
        self.assertNotIn("lib.jacobi_eigh", tr.summary()["spans"])

    def test_span_closes_when_the_call_raises(self):
        tr = Tracer(clock=ticking_clock())

        def boom():
            raise KeyError("x")

        self.lib.boom = boom
        tr.wrap(self.lib, "boom", "lib.boom")
        with self.assertRaises(KeyError):
            self.lib.boom()
        with tr.span("after"):
            pass
        spans = tr.summary()["spans"]
        self.assertEqual(spans["lib.boom"]["calls"], 1)
        self.assertEqual(spans["after"]["self_s"], spans["after"]["total_s"])


class LayerMetricsTest(unittest.TestCase):
    def test_absent_layers_read_zero_and_names_match_benchmark_json(self):
        import json
        from pathlib import Path

        import run

        tr = Tracer(clock=ticking_clock())
        with tr.span("cli.main"):
            with tr.span("solver.solve_dirichlet"):
                with tr.span("matrixcore.herm_eigensystem"):
                    pass
        tr.wrap(None, "jacobi_eigh", "matrixcore.jacobi_eigh")
        trace = {"import_s": 0.5, "bytes_written": 10, "summary": tr.summary()}
        metrics = run.layer_metrics(trace, 2.0, 3.0, 1e-5, scale=2.0)
        self.assertEqual(metrics["matrixcore.jacobi_calls"], (0, "count"))
        self.assertEqual(metrics["matrixcore.eig_calls"], (1, "count"))
        self.assertEqual(metrics["cli.load_s"], (2.0, "s"))  # times are rescaled
        self.assertEqual(metrics["trace.overhead_frac"], (0.5, "ratio"))

        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual({k: unit for k, (_, unit) in metrics.items()}, declared)


if __name__ == "__main__":
    unittest.main()
