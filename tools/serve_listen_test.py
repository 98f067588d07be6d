#!/usr/bin/env python3
"""End-to-end test of `fpsq serve --listen` (ctest cli_serve_listen).

    python3 tools/serve_listen_test.py path/to/fpsq

Starts a server on a free loopback port (--precision 6 --threads 2)
and checks, in order:

  (a) the smoke requests, split over two concurrent connections, come
      back on each connection as exactly that connection's lines of the
      smoke golden file, in order; the process runs no more threads
      than --threads while both connections are open;
  (b) 200 connections opened, used and closed one after another grow
      the server's VmSize by less than 16 MB (a thread or buffer kept
      per served connection grows it without bound);
  (c) SIGTERM with an idle connection open drains: the server exits 0,
      and every request line it read was answered and delivered;
  (d) on a fresh server, once with --threads 1 and once with
      --threads 2 (pool workers block SIGTERM, so the signal handler
      runs on the loop's thread either way), a line sent while the
      server is stopped, and so still unread when the drain begins, is
      answered `shed` after the connection's earlier answer, and the
      connection then ends with a clean EOF instead of a reset.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
THREADS = 2
SEQUENTIAL_CONNECTIONS = 200
MAX_VMSIZE_GROWTH_KB = 16 * 1024
TIMEOUT_S = 30.0


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_server(fpsq, metrics_out, threads=THREADS):
    """Starts the server; retries when another process took the port."""
    for _ in range(5):
        port = free_port()
        proc = subprocess.Popen(
            [fpsq, "serve", "--listen", str(port), "--precision", "6",
             "--threads", str(threads), "--metrics-out", metrics_out],
            stdout=subprocess.PIPE, text=True)
        if "listening on" in proc.stdout.readline():
            return proc, port
        proc.wait(timeout=TIMEOUT_S)
    fail("fpsq serve --listen never started listening")


def status_field(pid, name):
    """A numeric field of /proc/<pid>/status (VmSize in kB, Threads)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(name + ":"):
            return int(line.split()[1])
    fail(f"no {name} in /proc/{pid}/status")


def wait_stopped(pid):
    """Waits until /proc/<pid>/stat shows the process stopped (state T)."""
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        stat = Path(f"/proc/{pid}/stat").read_text()
        if stat[stat.rindex(")") + 2] == "T":
            return
        time.sleep(0.001)
    fail("server never stopped after SIGSTOP")


def wait_exit_0(proc):
    try:
        status = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("server did not exit after SIGTERM")
    if status != 0:
        fail(f"server exited {status} after SIGTERM (want 0)")


class Conn:
    """One client connection reading newline-terminated responses."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.buf = b""

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def read_lines(self, count):
        while (have := self.buf.count(b"\n")) < count:
            chunk = self.sock.recv(65536)
            if not chunk:
                fail(f"connection closed after {have} of {count} responses")
            self.buf += chunk
        lines = self.buf.split(b"\n")
        self.buf = b"\n".join(lines[count:])
        return [ln.decode() for ln in lines[:count]]

    def read_to_eof(self):
        while True:
            chunk = self.sock.recv(65536)
            if not chunk:
                break
            self.buf += chunk
        lines = [ln.decode() for ln in self.buf.split(b"\n") if ln]
        self.buf = b""
        return lines

    def close(self):
        self.sock.close()


def check_split_connections(port, pid):
    """(a): two concurrent connections, each gets exactly its answers."""
    requests = (TOOLS / "serve_smoke_requests.ndjson").read_text() \
        .splitlines()
    golden = (TOOLS / "serve_smoke_golden.ndjson").read_text().splitlines()
    conns = [Conn(port), Conn(port)]
    for i, line in enumerate(requests):
        conns[i % 2].send(line)
    for k, conn in enumerate(conns):
        got = conn.read_lines(len(requests[k::2]))
        if got != golden[k::2]:
            fail(f"connection {k} got {got}, want {golden[k::2]}")
    threads = status_field(pid, "Threads")
    if threads > THREADS:
        fail(f"server runs {threads} threads with 2 connections open "
             f"(--threads {THREADS})")
    for conn in conns:
        conn.close()
    return len(requests)


def round_trip(port, rid):
    conn = Conn(port)
    conn.send(json.dumps({"id": rid, "op": "rtt", "gamers": 60}))
    (line,) = conn.read_lines(1)
    conn.close()
    if f'"id":"{rid}","ok":true' not in line:
        fail(f"bad response {line}")


def check_sequential_connections(port, pid):
    """(b): serving connections one after another costs no memory."""
    round_trip(port, "warm")
    before = status_field(pid, "VmSize")
    for i in range(SEQUENTIAL_CONNECTIONS):
        round_trip(port, f"seq{i}")
    round_trip(port, "last")
    growth = status_field(pid, "VmSize") - before
    if growth >= MAX_VMSIZE_GROWTH_KB:
        fail(f"VmSize grew by {growth} kB over {SEQUENTIAL_CONNECTIONS} "
             f"sequential connections (limit {MAX_VMSIZE_GROWTH_KB} kB)")
    print(f"VmSize growth over {SEQUENTIAL_CONNECTIONS} connections: "
          f"{growth} kB")
    return SEQUENTIAL_CONNECTIONS + 2


def check_sigterm_drain(proc, port):
    """(c): SIGTERM with one idle and one busy connection drains."""
    idle = Conn(port)
    busy = Conn(port)
    # One write, so the server reads every line before the signal: lines
    # it never read would leave unread input, and closing a socket with
    # unread input resets it.
    busy.sock.sendall("".join(
        json.dumps({"id": f"d{i}", "op": "rtt", "gamers": 40 + i}) + "\n"
        for i in range(8)).encode())
    (first,) = busy.read_lines(1)
    if json.loads(first)["id"] != "d0":
        fail(f"first drain-phase response is {first}")
    proc.send_signal(signal.SIGTERM)
    wait_exit_0(proc)
    rest = busy.read_to_eof()
    if idle.read_to_eof():
        fail("the idle connection received data")
    ids = [json.loads(line)["id"] for line in rest]
    want = [f"d{i}" for i in range(1, 8)]
    if ids != want:
        fail(f"drain answered {ids}, want {want} (in order)")
    idle.close()
    busy.close()
    return 1 + len(ids)


def check_unread_input_drain(proc, port):
    """(d): input the loop has not read at the drain is answered shed."""
    conn = Conn(port)
    conn.send(json.dumps({"id": "a", "op": "rtt", "gamers": 60}))
    (answer,) = conn.read_lines(1)
    if json.loads(answer)["id"] != "a":
        fail(f"first response is {answer}")
    # Line b arrives while the server is stopped, and SIGTERM before it
    # runs again: the drain starts with b unread in the socket.
    proc.send_signal(signal.SIGSTOP)
    wait_stopped(proc.pid)
    conn.send(json.dumps({"id": "b", "op": "rtt", "gamers": 60}))
    proc.send_signal(signal.SIGTERM)
    proc.send_signal(signal.SIGCONT)
    wait_exit_0(proc)
    try:
        rest = conn.read_to_eof()
    except ConnectionResetError:
        fail("the drain reset a connection that had unread input")
    conn.close()
    if len(rest) != 1:
        fail(f"after a's answer the connection got {rest}, want b shed")
    shed = json.loads(rest[0])
    if shed["id"] != "b" or shed.get("error", {}).get("code") != "shed":
        fail(f"unread line answered {rest[0]}, want b answered shed")
    return 2


def check_counters(metrics_out, delivered):
    """The server's own counts agree with what the clients received."""
    counters = json.loads(Path(metrics_out).read_text()) \
        .get("counters", {})
    # Metrics compiled out (-DFPSQ_NO_METRICS): nothing to compare.
    if "serve.requests" in counters:
        read = counters["serve.requests"]
        answered = counters.get("serve.responses", 0)
        if not read == answered == delivered:
            fail(f"server read {read} requests and answered "
                 f"{answered}; clients received {delivered}")


def run(fpsq, metrics_out, threads, checks):
    """Runs `checks` in order against one server, then its counters."""
    proc, port = start_server(fpsq, metrics_out, threads)
    delivered = 0
    try:
        for check in checks:
            delivered += check(proc, port)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    check_counters(metrics_out, delivered)


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        run(sys.argv[1], os.path.join(tmp, "m.json"), THREADS, [
            lambda proc, port: check_split_connections(port, proc.pid),
            lambda proc, port: check_sequential_connections(port, proc.pid),
            check_sigterm_drain,
        ])
        for threads in (1, THREADS):
            run(sys.argv[1], os.path.join(tmp, f"m{threads}.json"),
                threads, [check_unread_input_drain])
    print("PASS: split connections, sequential connections, SIGTERM drain, "
          "unread input shed at drain")
    return 0


if __name__ == "__main__":
    sys.exit(main())
