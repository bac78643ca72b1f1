"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


class SelfTimeTest(unittest.TestCase):
    def test_nested_span_tree(self):
        # a[0,10] holds b[1,4] (which holds c[2,3]) and d[5,9]
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def tick(dt):
            now[0] += dt

        def c():
            tick(1)

        def b():
            tick(1)
            wc()
            tick(1)

        def d():
            tick(4)

        def a():
            tick(1)
            wb()
            tick(1)
            wd()
            tick(1)

        wa, wb, wc, wd = (tracer.wrap(name, fn) for name, fn in
                          (("t.a", a), ("t.b", b), ("t.c", c), ("t.d", d)))
        wa()
        self_s = {name: rec[1] for name, rec in tracer.functions.items()}
        self.assertEqual(self_s, {"t.a": 3.0, "t.b": 2.0, "t.c": 1.0, "t.d": 4.0})
        self.assertEqual(tracer.stack, [10.0])

    def test_generator_resumptions_are_spans(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def gen():
            for i in range(3):
                now[0] += 2
                yield i

        def consume():
            total = sum(wgen())
            now[0] += 1  # work of the consumer between resumptions counts here
            return total

        wgen = tracer.wrap("t.gen", gen)
        self.assertEqual(tracer.wrap("t.consume", consume)(), 3)
        self.assertEqual(tracer.functions["t.gen"], [1, 6.0, 3])
        self.assertEqual(tracer.functions["t.consume"][1], 1.0)


class PatcherTest(unittest.TestCase):
    def test_binom_caught_when_coset_codes_calls_it(self):
        from ksums import combinat, coset_codes
        original = coset_codes.binom
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(coset_codes.binom, original)
            self.assertIs(coset_codes.binom, combinat.binom)
            coset_codes.weight_distribution({0: 2, 1: 3})
        finally:
            tracer.uninstall()
        self.assertIs(coset_codes.binom, original)
        self.assertGreater(tracer.functions["combinat.binom"][0], 0)
        self.assertEqual(tracer.functions["coset_codes.weight_distribution"][0], 1)
        self.assertEqual(tracer.counters["coset_codes.dp_terms"], 6)


class EndToEndTest(unittest.TestCase):
    @staticmethod
    def sample(latency_s, speed, setup_s=0.1, rss_mb=10.0):
        req = run.Request(["x"], trace=False)
        req.latency_s, req.speed, req.setup_s, req.rss_mb = latency_s, speed, setup_s, rss_mb
        return req

    def test_times_are_scaled_and_each_request_counts_at_its_median(self):
        # request 0 ran twice, once in a slow spell (speed 0.5); request 1 ran
        # once; request 2 three times, as when the last pass is cut off
        samples = [[self.sample(2.0, 0.5), self.sample(1.0, 1.0)],
                   [self.sample(3.0, 1.0)],
                   [self.sample(5.0, 1.0), self.sample(5.0, 1.0), self.sample(4.0, 1.0)]]
        metrics = run.end_to_end(samples, verified=5, attempted=6)
        self.assertEqual(metrics["wall_s"], 1.0 + 3.0 + 5.0)
        self.assertEqual(metrics["request_p50_s"], 3.0)
        self.assertEqual(metrics["setup_s"], 0.1)
        self.assertEqual(metrics["verified_frac"], 5 / 6)


class ChecksTest(unittest.TestCase):
    def test_wrong_kloosterman_value_is_rejected(self):
        argv = ["ksum", "--r", "3", "--a", "5", "--m", "2", "--c", "3"]
        right = subprocess.run([sys.executable, "-m", "ksums.cli", *argv],
                               cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
                               capture_output=True, check=True).stdout
        self.assertIsNone(checks.check(argv, right))
        doc = json.loads(right)
        doc["value"] = str(int(doc["value"]) + 1)
        self.assertIsNotNone(checks.check(argv, json.dumps(doc)))
        self.assertIsNotNone(checks.check(argv, b"not json"))


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def result(self, seed, trace):
        proc = run_bench("--workload", "smoke", "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def assert_names(self, metrics, section):
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         {m["name"]: m["unit"] for m in self.spec[section]})

    def test_end_to_end_metric_names_match_benchmark_json(self):
        self.assert_names(self.result(1, 0), "end_to_end")

    def test_per_layer_names_match_and_counts_repeat_across_seeds(self):
        first, second = self.result(1, 1), self.result(2, 1)
        self.assert_names(first, "per_layer")
        counts = {k for k, v in first.items() if v["unit"] == "count"}
        self.assertIn("field.mul_calls", counts)
        self.assertEqual({k: first[k]["value"] for k in counts},
                         {k: second[k]["value"] for k in counts})
        self.assertGreater(first["field.mul_calls"]["value"], 0)
        self.assertGreater(first["verify.checks"]["value"], 0)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
