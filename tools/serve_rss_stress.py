#!/usr/bin/env python3
"""Check that the serve daemon's memory does not grow with its worker count.

Runs `vwsdk serve --socket` twice, at `--threads 1 --max-inflight 1` and
at `--threads 8 --max-inflight 8`: the daemon's one crew of workers runs
both its requests and their fan-out, so `--threads` sets how many there
are.  Each daemon gets the same sequential load on one connection: N
`verify` requests, each sent only after the previous response arrived.
The script then reads the daemon's peak resident set (`VmHWM` in
/proc/<pid>/status) and fails unless the 8-worker peak is at most
--ratio times the 1-worker peak.  It also fails unless the daemon runs
exactly one thread per worker plus its main thread (`Threads:` in the
same file, read after the verifies): no second crew beside the pool.

A sequential load never needs more than one worker to run its requests,
so a daemon that wakes the most recently idle worker, and puts workers
that only helped with a fan-out back under it, keeps one request arena
warm whatever the worker count.  Rotating the requests over every
worker instead leaves a verify-sized working set resident in each
worker's malloc arena.

Linux only (reads /proc).  Usage:

    python3 tools/serve_rss_stress.py --cli build/apps/vwsdk

Exit code: 0 pass, 1 fail.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def proc_status(pid: int, field: str) -> int:
    """The first number of `field:` in /proc/<pid>/status."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} for pid {pid}")


def connect(path: Path, daemon: subprocess.Popen) -> socket.socket:
    deadline = time.monotonic() + 60
    while True:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            client.connect(str(path))
            return client
        except OSError:
            client.close()
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the daemon never started listening")
            time.sleep(0.05)


def request(client: socket.socket, reader, line: dict) -> dict:
    client.sendall((json.dumps(line) + "\n").encode())
    response = reader.readline()
    if not response:
        raise RuntimeError("the daemon closed the connection")
    return json.loads(response)


def measure(cli: str, workers: int, requests: int, net: str,
            tmp: Path) -> tuple[int, int]:
    """(peak RSS in kB, thread count) of a daemon with `workers` workers
    after `requests` sequential verifies."""
    sock_path = tmp / f"serve-{workers}.sock"
    env = {k: v for k, v in os.environ.items() if k != "VWSDK_REF_BACKEND"}
    daemon = subprocess.Popen(
        [cli, "serve", "--socket", str(sock_path),
         "--threads", str(workers), "--max-inflight", str(workers)],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, env=env)
    try:
        client = connect(sock_path, daemon)
        reader = client.makefile("r", encoding="utf-8")
        for i in range(requests):
            doc = request(client, reader,
                          {"v": 1, "id": f"v{i}", "op": "verify", "net": net})
            if not doc.get("ok") or not doc["result"]["all_verified"]:
                raise RuntimeError(f"verify {i} failed: {doc}")
        peak = proc_status(daemon.pid, "VmHWM")
        threads = proc_status(daemon.pid, "Threads")
        request(client, reader, {"v": 1, "id": "end", "op": "shutdown"})
        client.close()
        daemon.wait(timeout=120)
        return peak, threads
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="the vwsdk binary")
    parser.add_argument("--net", default="resnet18")
    parser.add_argument("--requests", type=int, default=4)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--ratio", type=float, default=1.2)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="vwsdk-rss-") as tmp:
        one, one_threads = measure(args.cli, 1, args.requests, args.net,
                                   Path(tmp))
        many, many_threads = measure(args.cli, args.workers, args.requests,
                                     args.net, Path(tmp))
    ratio = many / one
    rss_ok = ratio <= args.ratio
    print(f"  [{'OK' if rss_ok else 'FAIL'}] {args.requests} sequential "
          f"verify --net {args.net}: VmHWM {one / 1024:.1f} MB at 1 worker, "
          f"{many / 1024:.1f} MB at {args.workers} workers "
          f"(x{ratio:.2f}, limit x{args.ratio})")
    threads_ok = (one_threads, many_threads) == (2, args.workers + 1)
    print(f"  [{'OK' if threads_ok else 'FAIL'}] daemon threads: "
          f"{one_threads} at 1 worker, {many_threads} at {args.workers} "
          f"workers (want workers + 1: one crew plus the main thread)")
    return 0 if rss_ok and threads_ok else 1


if __name__ == "__main__":
    sys.exit(main())
