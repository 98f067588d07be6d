#!/usr/bin/env python3
"""Tests of run.py's verdicts on a finished load, without building fpsq.

    python3 perfbench/tests/test_run.py

The server, the generator and the request stream are replaced by fakes,
so each test feeds run.main() one load summary and checks what it prints
and returns: a run with failures still prints its result line (correct
false, exit 1), and an overloaded server or a late generator makes the
run invalid (no result, exit 3).
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import types
import unittest
import unittest.mock
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

HEALTHY = {
    "sent": 100, "answered": 100, "correct": 100, "failed": 0,
    "fail_reasons": {}, "checked": 64, "ulp_diffs": 0,
    "p50_ms": 2.5, "p99_ms": 80.0, "throughput_rps": 80.0,
    "within_25ms": 0.9, "late_p50_ms": 0.05, "late_p99_ms": 4.0,
    "repeat_share": 0.0,
}


class FakeServer:
    """Writes a server telemetry snapshot instead of starting fpsq."""

    queue_peak = 3

    def __init__(self, metrics_out):
        self.port = 1
        self.setup_s = 0.01
        Path(metrics_out).write_text(json.dumps({
            "counters": {}, "histograms": {},
            "gauges": {"serve.queue_depth_peak": self.queue_peak}}))

    def stop(self):
        return types.SimpleNamespace(ru_utime=0.2, ru_stime=0.05,
                                     ru_maxrss=18000)


class VerdictTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        saved = {name: getattr(run, name) for name in
                 ("build", "OUT", "Server", "make_requests", "helper")}
        self.addCleanup(lambda: [setattr(run, k, v) for k, v in saved.items()])
        run.build = lambda: None
        run.OUT = Path(tmp.name)
        run.Server = FakeServer
        run.make_requests = lambda workload, seed, count: (
            run.OUT / "requests.ndjson", [])

    def main(self, summary, workload="rtt_open"):
        run.helper = lambda *args: json.dumps(summary) + "\n"
        out = io.StringIO()
        argv = ["run.py", "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), \
                unittest.mock.patch.object(sys, "argv", argv):
            code = run.main()
        return code, out.getvalue().splitlines()

    def test_healthy_run_prints_every_end_to_end_metric(self):
        code, lines = self.main(HEALTHY)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), sorted(run.END_TO_END))

    def test_failures_with_infinite_percentiles_print_correct_false(self):
        # Once 1% (50%) of requests fail, the nearest-rank p99 (p50) is
        # infinite and the generator writes it as null.
        summary = dict(HEALTHY, correct=40, failed=60, p50_ms=None,
                       p99_ms=None, within_25ms=0.35)
        code, lines = self.main(summary)
        self.assertEqual(code, 1)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 100)
        self.assertEqual(result["failed"], 60)

    def test_late_generator_is_invalid(self):
        for late in ({"late_p50_ms": 1.0},
                     {"late_p99_ms": run.MAX_LATE_P99_MS + 1.0}):
            with self.subTest(**late):
                code, lines = self.main(dict(HEALTHY, **late))
                self.assertEqual(code, 3)
                self.assertEqual(lines, [])

    def test_overloaded_server_is_invalid(self):
        FakeServer.queue_peak = run.SERVER["queue"]
        self.addCleanup(setattr, FakeServer, "queue_peak", 3)
        code, lines = self.main(HEALTHY)
        self.assertEqual(code, 3)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
