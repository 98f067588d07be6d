#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer numbers for fpsq.

    python3 perfbench/run.py --workload rtt_open --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Every run first builds the tree
it measures (cmake, into .bench_build/perfbench), then runs one workload
of open-loop Poisson traffic against `fpsq serve --listen`:

  rtt_open    `rtt` requests, every one a distinct check-corpus point
  portal_mix  capacity-planning portal traffic (90% rtt, 8% dimension,
              2% sweep) with skewed, repeating popularity

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics (server telemetry plus a traced in-process replay of the same
requests). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A wrong answer prints correct=false and exits 1; an invalid run (the
generator fell behind its schedule, or the server shed load) prints no
result and exits 3. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
FPSQ = BUILD / "fpsq" / "tools" / "fpsq"
HELPER = BUILD / "fpsq_perfbench"

# Server configuration shared by the serve workloads (fixed, never auto).
SERVER = {"threads": 2, "batch": 64, "tick-ms": 2, "queue": 1024,
          "precision": 17}
CONNECTIONS = 4
CLI_THREADS = 2
SETUP_REPEATS = 15
CHECK_SAMPLE = 64
# Offered Poisson rates [1/s], below the knee where one slow micro-batch
# holds back the requests behind it (see perfbench/README.md).
RATES = {"rtt_open": 80.0, "portal_mix": 30.0}
# Requests replayed in-process by --trace 1.
REPLAY_COUNT = 1024
# Validity: how late the generator sent, or the numbers measure the
# generator. At p50 it must stay below this share of the p50 latency. At
# p99 vCPU pauses of a shared host make it 2-19 ms on healthy runs, far
# above the p50 latency, so it is bounded absolutely at about three times
# that worst reading (see perfbench/README.md).
MAX_LATE_P50_SHARE = 0.2
MAX_LATE_P99_MS = 60.0

WORKLOADS = ("rtt_open", "portal_mix")

UNITS = {
    "within_25ms": "ratio", "throughput_rps": "req/s",
    "cpu_ms_per_req": "ms", "peak_rss_mb": "MB", "setup_s": "s",
    "p50_ms": "ms", "p99_ms": "ms", "fail_ratio": "ratio",
    "serve.exec_latency_p50_ms": "ms", "serve.exec_latency_p99_ms": "ms",
    "serve.batch_size_p50": "count", "serve.batch_size_p99": "count",
    "serve.dedup_ratio": "ratio", "serve.queue_depth_peak": "count",
    "serve.shed": "count", "serve.timeouts": "count",
    "serve.write_errors": "count",
    "queueing.kernel.fallback_ratio": "ratio",
    "queueing.kernel.tail_evals_per_req": "count",
    "queueing.kernel.newton_iters_p50": "count",
    "queueing.kernel.newton_iters_p99": "count",
    "queueing.cache.hit_ratio": "ratio", "queueing.cache.entries": "count",
    "par.pool.busy_s_per_req": "s", "par.pool.queue_high_water": "count",
    "loadgen.late_p99_ms": "ms", "loadgen.repeat_share": "ratio",
    "serve.parse_us": "us", "serve.execute_ms": "ms",
    "serve.execute_self_ms": "ms",
    "core.create_us.closed": "us", "core.create_us.fallback": "us",
    "core.breakdown_us.closed": "us", "core.breakdown_us.fallback": "us",
    "queueing.quantile_us.closed": "us",
    "queueing.quantile_us.fallback": "us",
    "core.dimension_ms": "ms", "core.dimension.models_per_call": "count",
    "core.sweep_ms": "ms", "tools.cli_overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
# p50_ms and p99_ms are measured on every run but reported with the
# per-layer metrics: latencies are bimodal (a 2 ms gather window vs
# fallback kernels and requests held behind a heavy micro-batch), so both
# percentiles jump between modes across seeds. The share answered within
# 25 ms is gated instead (see perfbench/README.md).
END_TO_END = ("within_25ms", "throughput_rps", "cpu_ms_per_req",
              "peak_rss_mb", "setup_s")


class BenchError(Exception):
    """The run could not produce a result (build, server or input)."""


class InvalidRun(Exception):
    """The run's own validity checks failed; its numbers are not reported."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------------

def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "build.log"
    with open(build_log, "a") as logf:
        if not (BUILD / "CMakeCache.txt").exists():
            rc = subprocess.call(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=logf, stderr=subprocess.STDOUT)
            if rc != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"cmake configure failed (see {build_log})")
        rc = subprocess.call(
            ["cmake", "--build", str(BUILD), "--target", "fpsq",
             "fpsq_perfbench", "-j", str(min(4, os.cpu_count() or 1))],
            stdout=logf, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError(f"build failed (see {build_log})")


def helper(*args):
    res = subprocess.run([str(HELPER), *map(str, args)],
                         capture_output=True, text=True)
    sys.stderr.write(res.stderr[-4000:])
    if res.returncode != 0:
        raise BenchError(f"fpsq_perfbench {args[0]} failed")
    return res.stdout


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def make_requests(workload, seed, count):
    path = OUT / f"{workload}-{seed}-requests.ndjson"
    path.write_text(helper("requests", "--workload", workload, "--seed", seed,
                           "--count", count))
    return path, path.read_text().splitlines()


# ---- processes -------------------------------------------------------------

DEVNULL = os.open(os.devnull, os.O_RDWR)


def spawn(argv, stderr_fd=DEVNULL):
    actions = [(os.POSIX_SPAWN_DUP2, DEVNULL, 0),
               (os.POSIX_SPAWN_DUP2, DEVNULL, 1),
               (os.POSIX_SPAWN_DUP2, stderr_fd, 2)]
    return os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)


def run_timed(argv):
    """Runs argv to completion; returns (wall_s, exit code)."""
    t0 = time.perf_counter()
    _, status, _ = os.wait4(spawn(argv), 0)
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status)


def cpu_s(rusage):
    return rusage.ru_utime + rusage.ru_stime


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One `fpsq serve --listen` process, started and warmed."""

    def __init__(self, metrics_out):
        self.port = free_port()
        argv = [str(FPSQ), "serve", "--listen", str(self.port),
                "--metrics-out", str(metrics_out)]
        for flag, value in SERVER.items():
            argv += [f"--{flag}", str(value)]
        self.errlog = open(OUT / "server.log", "ab")
        t0 = time.perf_counter()
        self.pid = spawn(argv, stderr_fd=self.errlog.fileno())
        self.rusage = None
        try:
            self._warm_up(t0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _warm_up(self, t0):
        while True:
            try:
                conn = socket.create_connection(("127.0.0.1", self.port))
                break
            except ConnectionRefusedError:
                if os.waitpid(self.pid, os.WNOHANG)[0] != 0:
                    self.pid = None
                    raise BenchError("fpsq serve exited during start-up")
                if time.perf_counter() - t0 > 30:
                    raise BenchError("fpsq serve did not start listening")
                time.sleep(0.0005)
        with conn:
            conn.sendall(b'{"id":"warmup","op":"rtt"}\n')
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    raise BenchError("fpsq serve closed the warm-up connection")
                reply += chunk
        if b'"ok":true' not in reply:
            raise BenchError(f"warm-up request failed: {reply!r}")

    def stop(self):
        """SIGTERM (graceful drain); returns the process rusage."""
        self.errlog.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGTERM)
            _, status, self.rusage = os.wait4(self.pid, 0)
            self.pid = None
            if os.waitstatus_to_exitcode(status) != 0:
                raise BenchError("fpsq serve exited non-zero")
        return self.rusage


# ---- metrics helpers -------------------------------------------------------

def hist_quantile(buckets, q):
    """Quantile of [lower, upper, count] buckets (linear within)."""
    total = sum(c for _, _, c in buckets)
    if total == 0:
        return float("nan")
    target = q * total
    seen = 0
    for lo, hi, c in sorted(buckets):
        if seen + c >= target:
            return lo + (hi - lo) * (target - seen) / c
        seen += c
    return sorted(buckets)[-1][1]


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(m, answered):
    """Per-run queueing/par metrics from one --metrics-out snapshot."""
    counters, gauges = m["counters"], m["gauges"]
    c = lambda k: counters.get(k, 0)  # noqa: E731
    fallbacks = c("queueing.kernel.quad_fallbacks")
    kernels = fallbacks + c("queueing.kernel.closed_form_hits")
    hits = c("queueing.cache.dek1.hits") + c("queueing.cache.giek1.hits")
    lookups = hits + c("queueing.cache.dek1.misses") + \
        c("queueing.cache.giek1.misses")
    newton = m["histograms"].get("queueing.kernel.newton_iters", {}) \
        .get("buckets", [])
    return {
        "queueing.kernel.fallback_ratio": ratio(fallbacks, kernels),
        "queueing.kernel.tail_evals_per_req":
            ratio(c("queueing.kernel.tail_evals"), answered),
        "queueing.kernel.newton_iters_p50": hist_quantile(newton, 0.50),
        "queueing.kernel.newton_iters_p99": hist_quantile(newton, 0.99),
        "queueing.cache.hit_ratio": ratio(hits, lookups),
        "queueing.cache.entries": gauges.get("queueing.cache.entries", 0),
        "par.pool.busy_s_per_req":
            ratio(gauges.get("par.pool.busy_s", 0), answered),
        "par.pool.queue_high_water":
            gauges.get("par.pool.queue_high_water", 0),
    }


def serve_metrics(m):
    """serve.* per-layer metrics from one --metrics-out snapshot."""
    c, g, h = m["counters"], m["gauges"], m["histograms"]
    lat = h.get("serve.request_latency_ms", {})
    size = h.get("serve.batch_size", {})
    executed = lat.get("count", 0)
    return {
        "serve.exec_latency_p50_ms": lat.get("p50"),
        "serve.exec_latency_p99_ms": lat.get("p99"),
        "serve.batch_size_p50": size.get("p50"),
        "serve.batch_size_p99": size.get("p99"),
        "serve.dedup_ratio": ratio(c.get("serve.dedup_hits", 0), executed),
        "serve.queue_depth_peak": g.get("serve.queue_depth_peak", 0),
        "serve.shed": c.get("serve.shed", 0),
        "serve.timeouts": c.get("serve.timeouts", 0),
        "serve.write_errors": c.get("serve.write_errors", 0),
    }


def request_argv(line):
    """One-shot CLI argv equivalent to a serve `rtt` request line."""
    req = json.loads(line)
    argv = [str(FPSQ), req["op"]]
    for key, value in req.get("scenario", {}).items():
        argv += [f"--{key}", repr(value)]
    for key in ("eps", "gamers"):
        if key in req:
            argv += [f"--{key}", repr(req[key])]
    return argv + ["--threads", str(CLI_THREADS)]


def oracle(lines, tag):
    """Cold in-process responses and their times [ms] for request lines."""
    path = OUT / f"{tag}-oracle.ndjson"
    write_lines(path, lines)
    out = []
    for row in helper("oracle", "--requests", path,
                      "--threads", CLI_THREADS).splitlines():
        ms, response = row.split("\t", 1)
        out.append((float(ms), json.loads(response)))
    return out


def replay(lines, tag, batch):
    path = OUT / f"{tag}-replay.ndjson"
    write_lines(path, lines)
    res = subprocess.run(
        [str(HELPER), "replay", "--requests", str(path), "--batch",
         str(batch), "--spans-out", str(OUT / f"{tag}-spans.jsonl"),
         "--table-out", str(OUT / f"{tag}-layers.txt")],
        capture_output=True, text=True)
    if res.returncode != 0:
        raise BenchError(f"replay failed: {res.stderr.strip()[-2000:]}")
    sys.stderr.write(res.stderr)
    m = json.loads(res.stdout.strip().splitlines()[-1])
    return {k: v for k, v in m.items() if k in UNITS}


# ---- workloads -------------------------------------------------------------

def check_validity(workload, rate, summary, serve):
    """Raises InvalidRun when the run's numbers measure an overloaded
    server or a late generator rather than fpsq."""
    if serve["serve.queue_depth_peak"] >= SERVER["queue"] or \
            serve["serve.shed"] > 0:
        raise InvalidRun(f"server overloaded at {rate:g}/s (queue peak "
                         f"{serve['serve.queue_depth_peak']}, shed "
                         f"{serve['serve.shed']})")
    late, lat = summary["late_p50_ms"], summary["p50_ms"]
    # A null latency is infinite: half the requests failed, and the run is
    # reported as failed rather than judged on its timing.
    if lat is not None and late > MAX_LATE_P50_SHARE * lat:
        raise InvalidRun(f"generator ran late: p50 {late:.3f} ms vs "
                         f"p50 latency {lat:.3f} ms")
    if summary["late_p99_ms"] > MAX_LATE_P99_MS:
        raise InvalidRun(f"generator ran late: p99 "
                         f"{summary['late_p99_ms']:.3f} ms")
    if workload == "rtt_open" and (serve["serve.dedup_ratio"] != 0 or
                                   summary["repeat_share"] != 0):
        raise BenchError("rtt_open repeated a work key; the stream must be "
                         "distinct by construction")


def run_serve(workload, seed, seconds, trace):
    rate = RATES[workload]
    req_path, lines = make_requests(workload, seed, round(rate * seconds))
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        server = Server(OUT / "setup-metrics.json")
        setups.append(server.setup_s)
        server.stop()
    metrics_path = OUT / f"{workload}-{seed}-server-metrics.json"
    server = Server(metrics_path)
    setups.append(server.setup_s)
    try:
        summary = json.loads(helper(
            "load", "--port", server.port, "--requests", req_path,
            "--rate", rate, "--seed", seed,
            "--connections", CONNECTIONS, "--check", CHECK_SAMPLE,
            "--threads", SERVER["threads"]).strip().splitlines()[-1])
    finally:
        rusage = server.stop()
    m = json.loads(metrics_path.read_text())
    sent, failed = int(summary["sent"]), int(summary["failed"])
    answered = int(summary["answered"])
    serve = serve_metrics(m)
    log(f"{workload}: sent {sent} at {rate:g}/s, failed {failed} "
        f"{summary['fail_reasons']}, checked {summary['checked']} "
        f"({summary['ulp_diffs']} with last-digit differences), generator "
        f"late p50 {summary['late_p50_ms']:.3f} ms, "
        f"p99 {summary['late_p99_ms']:.3f} ms")

    check_validity(workload, rate, summary, serve)

    metrics = {
        "within_25ms": summary["within_25ms"],
        "throughput_rps": summary["throughput_rps"],
        "cpu_ms_per_req": 1e3 * cpu_s(rusage) / max(1, answered),
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    if trace:
        metrics = dict(serve, p50_ms=summary["p50_ms"],
                       p99_ms=summary["p99_ms"])
        metrics.update(layer_metrics(m, answered))
        metrics["loadgen.late_p99_ms"] = summary["late_p99_ms"]
        metrics["loadgen.repeat_share"] = summary["repeat_share"]
        metrics["fail_ratio"] = failed / sent
        metrics.update(replay(lines[:min(sent, REPLAY_COUNT)],
                              f"{workload}-{seed}", SERVER["batch"]))
        metrics["tools.cli_overhead_ms"] = cli_overhead(
            [ln for ln in lines[:sent] if '"op":"rtt"' in ln][:16],
            f"{workload}-{seed}")
    return sent, failed, metrics


def cli_overhead(lines, tag):
    """Median one-shot CLI wall time minus in-process time, same request."""
    inproc = oracle(lines, tag + "-cli")
    diffs = []
    for line, (ms, _) in zip(lines, inproc):
        wall, rc = run_timed(request_argv(line))
        if rc != 0:
            raise BenchError(f"fpsq exited {rc} on {line}")
        diffs.append(1e3 * wall - ms)
    return statistics.median(diffs)


# ---- main ------------------------------------------------------------------

def result_line(attempted, failed, metrics, trace):
    """The JSON result: per-layer metrics with trace, else end-to-end."""
    names = [k for k in UNITS if (k not in END_TO_END) == trace]
    missing = [k for k in names if k not in metrics]
    if missing:
        raise BenchError(f"missing metrics: {missing}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]}
                    for k in names},
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        OUT.mkdir(parents=True, exist_ok=True)
        attempted, failed, metrics = run_serve(args.workload, args.seed,
                                               args.seconds, args.trace == 1)
        line = result_line(attempted, failed, metrics, args.trace == 1)
    except InvalidRun as e:
        log(f"invalid run, not reported: {e}")
        return 3
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run failed: {e!r}")
        return 2
    print(line)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
