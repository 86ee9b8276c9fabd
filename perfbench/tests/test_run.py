"""Self-tests of the benchmark's pure helpers.

Run from the repository root:  python3 -m unittest discover perfbench/tests
"""

import collections
import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import run  # noqa: E402


class StreamTest(unittest.TestCase):
    def test_pure_function_of_seed(self):
        for seed in (0, 1, 7, 12345):
            self.assertEqual(run.tune_round(seed), run.tune_round(seed))
            self.assertEqual(run.store_keys(seed), run.store_keys(seed))
            for index in range(4):
                self.assertEqual(run.serve_round(seed, index), run.serve_round(seed, index))

    def test_seed_changes_the_input(self):
        self.assertGreater(len({tuple(run.tune_round(s)) for s in range(20)}), 1)
        self.assertGreater(len({tuple(run.serve_round(s, 0)) for s in range(20)}), 1)

    def test_same_class_counts_every_round(self):
        counts = {("cold", 7), ("db", 3), ("repeat", run.REPEATS)}
        for seed in range(10):
            for index in range(6):
                classes = collections.Counter(r[0] for r in run.serve_round(seed, index))
                self.assertEqual(set(classes.items()), counts)

    def test_every_key_once_before_repeats(self):
        stream = run.serve_round(3, 0)
        first = stream[: len(run.SERVE_KEYS)]
        self.assertEqual(sorted(r[1:] for r in first), sorted(run.SERVE_KEYS))
        self.assertTrue(all(r[0] == "repeat" for r in stream[len(run.SERVE_KEYS):]))

    def test_matmul_and_jacobi3d_always_cold(self):
        for seed in range(20):
            for cls, kernel, _ in run.serve_round(seed, 0)[: len(run.SERVE_KEYS)]:
                if kernel in ("matmul", "jacobi3d"):
                    self.assertEqual(cls, "cold")

    def test_repeats_are_zipf_over_every_key(self):
        want = dict(zip(run.SERVE_KEYS, run.zipf_counts(run.REPEATS, len(run.SERVE_KEYS))))
        self.assertEqual(len(want), 10)
        self.assertTrue(all(c > 0 for c in want.values()))
        for seed in range(5):
            repeats = run.serve_round(seed, 1)[len(run.SERVE_KEYS):]
            self.assertEqual(collections.Counter(r[1:] for r in repeats), want)

    def test_zipf_counts(self):
        self.assertEqual(run.zipf_counts(20, 10), [7, 3, 2, 2, 1, 1, 1, 1, 1, 1])


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(range(199), 0.95))
        self.assertEqual(run.percentile(range(200), 0.95), 189)
        self.assertIsNone(run.percentile(range(19), 0.5))
        self.assertEqual(run.percentile(range(1, 21), 0.5), 10)
        self.assertIsNone(run.percentile([], 0.5))

    def test_order_does_not_matter(self):
        xs = list(range(300))
        self.assertEqual(run.percentile(xs[::-1], 0.9), run.percentile(xs, 0.9))


class SpearmanTest(unittest.TestCase):
    def test_known_vectors(self):
        self.assertAlmostEqual(run.spearman([1, 2, 3, 4], [10, 20, 30, 40]), 1.0)
        self.assertAlmostEqual(run.spearman([1, 2, 3, 4], [4, 3, 2, 1]), -1.0)
        # ties take average ranks: y ranks 1, 2, 3.5, 5, 3.5
        self.assertAlmostEqual(run.spearman([1, 2, 3, 4, 5], [5, 6, 7, 8, 7]),
                               8 / 95 ** 0.5)
        # the classic textbook example, no ties: 1 - 6 * 4 / (5 * 24)
        self.assertAlmostEqual(run.spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]), 0.8)

    def test_undefined(self):
        self.assertIsNone(run.spearman([1, 2], [1, 2]))
        self.assertIsNone(run.spearman([1, 2, 3], [5, 5, 5]))


class ParseTest(unittest.TestCase):
    def test_recorded_tune_output(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tune_output.txt")
        with open(path) as fh:
            ans = run.parse_tune_output(fh.read())
        self.assertEqual(ans, {
            "best_variant": "matvec_v2",
            "parameters": "tj=32 ui=16",
            "prefetch": "a=4 x=1",
            "performance": "129.9",
            "fresh": 41,
            "hits": 20,
            "quarantined": 19,
        })

    def test_stops_at_the_code(self):
        ans = run.parse_tune_output("best variant: a\noptimized code:\nbest variant: b\n")
        self.assertEqual(ans, {"best_variant": "a"})


OK_RESULT = {"status": "ok", "best_variant": "v", "parameters": "", "prefetch": "(none)",
             "performance": "1.0", "fresh": 1, "hits": 0}

# A stand-in for `eco serve`: announces READY, answers the first
# ANSWER requests, then exits with CODE.
FAKE_DAEMON = """import json, sys
print(json.dumps({"method": "READY"}), flush=True)
for i, line in enumerate(sys.stdin):
    if i == ANSWER:
        break
    rid = json.loads(line)["id"]
    print(json.dumps({"method": "accepted", "params": {"session": rid}}), flush=True)
    print(json.dumps({"id": rid, "result": RESULT}), flush=True)
sys.exit(CODE)
"""


class LedgerTest(unittest.TestCase):
    """Failed operations are counted against those attempted, and never
    stop the run."""

    def setUp(self):
        self.saved = run.ECO, run.WORK
        self.tmp = tempfile.TemporaryDirectory()
        run.WORK = self.tmp.name
        os.makedirs(os.path.join(run.WORK, "run"))

    def tearDown(self):
        run.ECO, run.WORK = self.saved
        self.tmp.cleanup()

    def session(self, answer, code, ready="ready"):
        path = os.path.join(self.tmp.name, "fake-eco")
        with open(path, "w") as fh:
            fh.write("#!%s\n" % sys.executable)
            fh.write(FAKE_DAEMON.replace("READY", ready).replace("ANSWER", str(answer))
                     .replace("CODE", str(code)).replace("RESULT", repr(OK_RESULT)))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        run.ECO = path
        ledger = run.Ledger()
        stream = [("cold", "matmul", 48), ("cold", "matmul", 64), ("repeat", "matmul", 48)]
        reqs, _, _, _ = run.serve_session(stream, None, ledger)
        return ledger, reqs

    def test_failed_tunes(self):
        ledger = run.Ledger()
        garbled = ("best variant: v\nparameters: \nprefetch: (none)\nperformance: n/a\n"
                   "engine: 3 fresh evaluations, 0 memo hits\n")
        ops = [run.record_tune(ledger, ("matmul", 120, 800000), 2,
                               "error: no feasible variant\n", 1.5, 40.0),
               run.record_tune(ledger, ("matmul", 120, 400000), 0, garbled, 1.5, 40.0)]
        run.check_tunes("tune-exact", ops, "digest", ledger)
        result = ledger.result({})
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (False, 2, 2))

    def test_daemon_dies_mid_stream(self):
        ledger, reqs = self.session(1, 3)
        self.assertEqual(ledger.counts(), (3, 2))
        self.assertEqual([r["ok"] for r in reqs], [True, False, False])

    def test_daemon_never_ready(self):
        ledger, _ = self.session(3, 0, ready="hello")
        self.assertEqual(ledger.counts(), (3, 3))

    def test_daemon_exit_code_after_answering(self):
        ledger, _ = self.session(3, 5)
        self.assertEqual(ledger.counts(), (4, 1))


if __name__ == "__main__":
    unittest.main()
