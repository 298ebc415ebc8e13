"""Self-tests of the benchmark harness: generator, oracles, tracer, metric names.

    python3 perfbench/selftest.py

Run from the repository root; takes well under a minute.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import statistics
import unittest
from fractions import Fraction

import gen
import oracles
import run

SAMPLE_SEED = 7


def _generate(workload: str, seed: int, tag: str):
    """Generate into a fresh directory and make it the working directory,
    where the ops find their files."""
    out = os.path.join(run.WORK, f"selftest-{tag}")
    shutil.rmtree(out, ignore_errors=True)
    ops = gen.generate(workload, seed, out)
    os.chdir(out)
    return out, ops


def _small(ops):
    """Ops cheap enough for a quick test: scans up to bound 4."""
    return [op for op in ops if op["check"]["type"] != "scan" or op["check"]["bound"] <= 4]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in gen.WORKLOADS:
            a, _ = _generate(workload, 3, "a")
            b, _ = _generate(workload, 3, "b")
            names = sorted(os.listdir(a))
            self.assertEqual(names, sorted(os.listdir(b)))
            match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []), workload)

    def test_other_seed_other_inputs(self):
        for workload in gen.WORKLOADS:
            a, _ = _generate(workload, 3, "a")
            b, _ = _generate(workload, 4, "b")
            with open(os.path.join(a, "ops.json")) as fa, open(os.path.join(b, "ops.json")) as fb:
                self.assertNotEqual(fa.read(), fb.read(), workload)

    def test_abc_rows_match_the_enumeration_size(self):
        self.assertEqual(len(gen.abc_rows()), 45)


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.hamfano = run.import_package()
        cls.execute = staticmethod(run.make_executor(cls.hamfano))

    def test_oracles_accept_the_package_on_a_sample(self):
        for workload in gen.WORKLOADS:
            _, ops = _generate(workload, SAMPLE_SEED, workload)
            checker = run.Checker(_small(ops)[:120])
            for k, op in enumerate(checker.ops):
                _, outcome, error = run.timed_call(self.execute, op)
                checker.record(k, outcome, error)
            self.assertEqual(checker.failed, 0, workload)
            self.assertGreater(checker.attempted, 10)

    def test_oracles_reject_wrong_outputs(self):
        _, ops = _generate("docs6", SAMPLE_SEED, "docs6")
        by_type = {}
        for op in ops:
            by_type.setdefault(op["check"]["type"], op)
        wrong = {
            "localize": '{"sum":"7/3"}',
            "chi_y_product": '{"chi_y":"1","coefficients":[1],"todd":1,"c1c2":24}',
            "dh": '{"breakpoints":[-1,1],"pieces":[[1]]}',
            "abc": '{"n_A":99,"n_B":0,"n_C":0,"b2_min":1,"report":{"ok":true}}',
            "normalize": '{"constant":1,"data":{"components":[]}}',
        }
        for kind, text in wrong.items():
            self.assertTrue(oracles.check(by_type[kind], by_type[kind]["expect"], text), kind)
        op = by_type["validate"]
        self.assertTrue(oracles.check(op, 2, '{"error":"x"}'))

    def test_slice_length_of_cp2(self):
        cp2 = gen.POLYGONS["CP2"]
        self.assertEqual(oracles.slice_length(cp2, (1, 2), 0), Fraction(3, 2))
        self.assertEqual(oracles.slice_length(cp2, (0, 1), -1), 3)


class TracerTest(unittest.TestCase):
    def test_polygon_scans_regenerate_generic_directions(self):
        # At this commit a polygon scan generates the data of every direction,
        # and the del Pezzo lemma suite generates it again for each generic one.
        hamfano = run.import_package()
        _, ops = _generate("scan2d", SAMPLE_SEED, "trace")
        ops = _small(ops)
        checker, metrics = run.traced(ops, run.make_executor(hamfano), "selftest")
        self.assertEqual(checker.failed, 0)
        directions = generic = 0
        for op in ops:
            c = op["check"]
            for xi in gen.primitive_directions(2, c["bound"]):
                directions += 1
                generic += all(gen.dot(xi, d) != 0 for d in c["edge_dirs"])
        self.assertEqual(metrics["toric.fixed_data_from_polytope.calls"], directions + generic)
        self.assertEqual(metrics["toric.LatticePolytope.calls"], len(ops))
        self.assertEqual(metrics["cli.run.calls"], len(ops))
        # the wrappers are gone again, in every namespace that bound them
        self.assertIs(hamfano.dh.fixed_data_from_polytope, hamfano.toric.fixed_data_from_polytope)
        self.assertFalse(hasattr(hamfano.toric.fixed_data_from_polytope, "__wrapped__"))
        self.assertFalse(hasattr(hamfano.fixed_data.FixedComponent.__init__, "__wrapped__"))


class HostSpeedTest(unittest.TestCase):
    def test_reference_loop_does_fixed_work(self):
        self.assertEqual(run.reference_loop(), run.reference_loop())

    def test_reference_share_is_paid_after_each_op(self):
        host = run.HostSpeed()
        op_ns = 20_000_000
        host.settle(op_ns)
        self.assertGreaterEqual(sum(host.cycle_ns), op_ns * run.REF_SHARE / (1 - run.REF_SHARE))
        self.assertLessEqual(host.owed_ns, 0)
        mean = statistics.fmean(host.cycle_ns)
        self.assertAlmostEqual(host.take_factor(), run.REF_MS * 1e6 / mean)
        self.assertEqual(host.cycle_ns, [])
        self.assertGreater(host.take_factor(), 0)  # measures once when nothing was paid


class MetricNamesTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        self.assertEqual(layers, run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(gen.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
