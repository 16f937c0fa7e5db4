"""Tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: they pin the input generator and the measurement
helpers the metrics rest on.
"""

import filecmp
import json
import os
import tempfile
import unittest

import gen
import run
import stats
from stats import INF

OK_LINE = ('{"v":1,"id":"q1","op":"map","ok":true,'
           '"result":{"network":"n","layers":[]}}')
OVERLOADED_LINE = ('{"v":1,"id":"q1","ok":false,"error":{"code":"overloaded",'
                   '"message":"admission queue full (4 in flight, 16 queued)'
                   '; retry later"}}')


def tree(root):
    """Relative paths of every file under `root`."""
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            gen.generate(a, "query_under_verify", 7, 3)
            gen.generate(b, "query_under_verify", 7, 3)
            files = tree(a)
            self.assertEqual(files, tree(b))
            self.assertIn("queries.ndjson", files)
            self.assertTrue(any(f.startswith("specs") for f in files))
            match, mismatch, errors = filecmp.cmpfiles(a, b, files,
                                                       shallow=False)
            self.assertEqual((mismatch, errors), ([], []))

    def test_another_seed_gives_other_inputs(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            gen.generate(a, "query_mix", 1, 3)
            gen.generate(b, "query_mix", 2, 3)
            self.assertFalse(filecmp.cmp(os.path.join(a, "queries.ndjson"),
                                         os.path.join(b, "queries.ndjson"),
                                         shallow=False))

    def test_stream_has_the_workload_length_and_zoo_share(self):
        with tempfile.TemporaryDirectory() as a:
            manifest = gen.generate(a, "query_mix", 3, 10)
            with open(os.path.join(a, "queries.ndjson")) as f:
                nets = [json.loads(line)["net"] for line in f]
            self.assertEqual(len(nets), gen.QUERIES["query_mix"])
            self.assertEqual(len(nets), manifest["queries"])
            zoo = sum(1 for net in nets if not net.startswith("specs/"))
            self.assertEqual(zoo, round(len(nets) * gen.ZOO_SHARE))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([5.0], 99), 5.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_failures_count_as_missing_the_limit(self):
        fast = [1.0] * 98
        self.assertEqual(stats.percentile(fast + [INF] * 2, 99), INF)
        self.assertEqual(stats.percentile(fast + [2.0, INF], 99), 2.0)
        self.assertEqual(stats.percentile([1.0, INF, INF], 50), INF)

    def test_rejects_empty_and_bad_ranks(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # request [0, 100] holds a [10, 40] and b [30, 60], which overlap
        # (work fanned out to a pool); a holds c [15, 20]; d [90, 120]
        # runs past its parent's end and is clipped.
        spans = {
            0: (None, 0, 100),
            1: (0, 10, 40),
            2: (0, 30, 60),
            3: (1, 15, 20),
            4: (0, 90, 120),
        }
        self_ns = stats.self_times(spans)
        self.assertEqual(self_ns[0], 100 - 50 - 10)
        self.assertEqual(self_ns[1], 30 - 5)
        self.assertEqual(self_ns[2], 30)
        self.assertEqual(self_ns[3], 5)
        self.assertEqual(self_ns[4], 30)


class ClassifyTest(unittest.TestCase):
    def test_split_keeps_the_payload_bytes(self):
        ok, op, payload, code = stats.split_response(OK_LINE)
        self.assertEqual((ok, op, code), (True, "map", None))
        self.assertEqual(payload, '{"network":"n","layers":[]}')

    def test_overloaded_reply_is_failed(self):
        self.assertEqual(stats.classify(OVERLOADED_LINE, "{}"), "overloaded")
        self.assertIsNone(stats.classify(OK_LINE, '{"network":"n","layers":[]}'))
        self.assertEqual(stats.classify(OK_LINE, "{}"), "payload_mismatch")
        self.assertEqual(stats.classify(None, "{}"), "unanswered")

    def test_check_counts_refusals_against_attempts(self):
        attempted, failed, reasons = run.check([checked_phase()], Oracle())
        self.assertEqual((attempted, failed), (3, 2))
        self.assertEqual(reasons, {"overloaded": 1, "unanswered": 1})

    def test_refused_and_unanswered_requests_are_infinitely_slow(self):
        phase = checked_phase()
        self.assertEqual(run.latencies_ms(phase.verdicts("m")),
                         [1.0, INF, INF])

    def test_wrong_payload_is_infinitely_slow(self):
        class WrongOracle:
            def expected(self, phase, stream, index):
                return "{}"

        phase = checked_phase(WrongOracle())
        self.assertEqual(run.latencies_ms(phase.verdicts("m")),
                         [INF, INF, INF])

    def test_throughput_counts_passing_replies_only(self):
        # Three requests over 0.5 s of drive time, one of them passed.
        [(verdicts, span_s)] = checked_phase(span_s=0.5).drive_verdicts()
        self.assertEqual(run.drive_rps(verdicts, span_s), 2.0)


class DriveMedianTest(unittest.TestCase):
    def test_latency_and_throughput_are_medians_over_drives(self):
        phases = []
        for ms in (1, 2, 100):  # the last drive slowed by outside load
            records = [("m", i, 0, 0, ms * 1_000_000, OK_LINE)
                       for i in range(3)]
            phase = run.Phase("round", "queries.ndjson", records, 1.0, {},
                              [(0, len(records), ms / 1000)])
            run.check([phase], Oracle())
            phases.append(phase)
        metrics, _, drives = run.end_to_end({"workload": "query_mix"}, 0.1,
                                            phases)
        self.assertEqual(drives, 3)
        self.assertEqual(metrics["latency_p50_ms"][0], 2.0)
        self.assertEqual(metrics["latency_p99_ms"][0], 2.0)
        self.assertEqual(metrics["throughput_rps"][0], 1500.0)


class Oracle:
    """Expects OK_LINE's payload for every request."""

    def expected(self, phase, stream, index):
        return '{"network":"n","layers":[]}'


def checked_phase(oracle=Oracle(), span_s=1.0):
    """A phase with one passing, one refused and one unanswered request,
    run through run.check()."""
    records = [("m", 0, 0, 1_000, 1_000_000, OK_LINE),
               ("m", 1, 0, 1_000, 2_000, OVERLOADED_LINE),
               ("m", 2, 0, 1_000, -1, None)]
    phase = run.Phase("round0", "queries.ndjson", records, 1.0, {},
                      [(0, len(records), span_s)])
    run.check([phase], oracle)
    return phase


class DueTimeTest(unittest.TestCase):
    def test_latency_counts_from_due_time_when_sent_late(self):
        due, sent, recv = 1_000, 5_000, 6_000
        self.assertEqual(stats.due_latency_ns(due, recv), 5_000)
        self.assertEqual(stats.lateness_ns(due, sent), 4_000)

    def test_on_time_and_unanswered(self):
        self.assertEqual(stats.lateness_ns(1_000, 900), 0)
        self.assertEqual(stats.due_latency_ns(1_000, -1), INF)

    def test_latencies_of_records_use_due_time(self):
        record = ("m", 0, 1_000_000, 3_000_000, 4_000_000, OK_LINE)
        self.assertEqual(run.latencies_ms([(record, None)]), [3.0])


if __name__ == "__main__":
    unittest.main()
