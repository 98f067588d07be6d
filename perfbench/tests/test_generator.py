#!/usr/bin/env python3
"""Tests of the benchmark's request generators and arrival schedule.

    python3 perfbench/tests/test_generator.py

Builds the benchmark (as perfbench/run.py does) and checks, through the
fpsq_perfbench binary, that streams are pure functions of the seed, that
rtt_open never repeats a work key, that portal_mix repeats and keeps its
op mix, and that the Poisson schedule has the stated rate and spread.
"""

import importlib.util
import json
import re
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def requests(workload, seed, count):
    return run.helper("requests", "--workload", workload, "--seed", seed,
                      "--count", count)


def strip_id(line):
    return re.sub(r'^\{"id":"[^"]*",', "{", line)


def work_keys(text):
    with tempfile.NamedTemporaryFile("w", suffix=".ndjson",
                                     dir=run.OUT) as f:
        f.write(text)
        f.flush()
        return run.helper("keys", "--requests", f.name).splitlines()


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        run.OUT.mkdir(parents=True, exist_ok=True)

    def test_same_seed_gives_identical_bytes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = requests(workload, 11, 500)
                self.assertEqual(a, requests(workload, 11, 500))
                self.assertNotEqual(a, requests(workload, 12, 500))
                ids = [json.loads(line)["id"] for line in a.splitlines()]
                self.assertEqual(ids, [f"r{i}" for i in range(500)])

    def test_rtt_open_never_repeats_a_work_key(self):
        keys = work_keys(requests("rtt_open", 3, 4000))
        self.assertEqual(len(keys), 4000)
        self.assertEqual(len(set(keys)), len(keys))

    def test_rtt_open_seeds_reorder_one_corpus(self):
        a = requests("rtt_open", 1, 300).splitlines()
        b = requests("rtt_open", 2, 300).splitlines()
        body = lambda lines: sorted(strip_id(ln) for ln in lines)  # noqa: E731
        self.assertEqual(body(a), body(b))
        self.assertNotEqual(a, b)

    def test_portal_mix_repeats_and_keeps_its_op_mix(self):
        text = requests("portal_mix", 5, 5000)
        keys = work_keys(text)
        repeat_share = 1 - len(set(keys)) / len(keys)
        print(f"\nportal_mix repeat share over 5000 requests: "
              f"{repeat_share:.3f}", file=sys.stderr)
        self.assertGreater(repeat_share, 0.5)
        ops = [json.loads(line)["op"] for line in text.splitlines()]
        for op, share in (("rtt", 0.90), ("dimension", 0.08),
                          ("sweep", 0.02)):
            self.assertAlmostEqual(ops.count(op) / len(ops), share,
                                   delta=0.01, msg=op)

    def test_poisson_schedule_rate_and_spread(self):
        # Tolerances: with n = 20000 gaps the sample mean and CoV of an
        # exponential law have standard errors of ~0.7%; 3% is > 4 sigma.
        rate, n = 80.0, 20000
        times = [float(t) for t in run.helper(
            "schedule", "--seed", 4, "--rate", rate,
            "--count", n).split()]
        self.assertEqual(len(times), n)
        self.assertEqual(times, sorted(times))
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        mean = statistics.fmean(gaps)
        cov = statistics.pstdev(gaps) / mean
        self.assertAlmostEqual(mean * rate, 1.0, delta=0.03)
        self.assertAlmostEqual(cov, 1.0, delta=0.03)
        self.assertLess(times[-1], n / rate)


if __name__ == "__main__":
    unittest.main()
