#!/usr/bin/env python3
"""The vwsdk serve benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 45 \
        --trace 0

Run from the repository root.  Builds the vwsdk CLI and the benchmark's
two helpers (perfbench/CMakeLists.txt) into .bench_build, writes the
seed's inputs into .bench_build/run/<workload>-<seed>, starts the real
`vwsdk serve --socket` daemon with its default flags, drives it, checks
every answer against an in-process replay of the same requests, and
prints the metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
replay.  perfbench/README.md describes every metric and workload.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import stats  # noqa: E402
import trace_report  # noqa: E402
from stats import INF  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
CLI = os.path.join(BUILD, "apps", "vwsdk")
DRIVE = os.path.join(BUILD, "bin", "vwbench_drive")
REPLAY = os.path.join(BUILD, "bin", "vwbench_replay")

VERIFY_SETUP_BATCH = 8  # daemon starts before every verify drive,
ROUND_SETUP_BATCH = 2   # before every query round, and after the last of
                        # either; setup_s is the median of all of them
VERIFY_DRIVES = 6      # verify_resnet18 drives its daemon in this many parts
MIN_ROUNDS = 3         # query rounds per run, each on a fresh daemon
HANG_MARGIN_S = 60     # a helper still running this long past the run's
                       # length has hung
SOCKET = "d.sock"      # the session daemon's socket, relative to the run
SETUP_SOCKET = "s.sock"  # directory: short on any path


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=out) != 0:
                raise RuntimeError(
                    f"build failed: {' '.join(step)} (see {out.name})")


def control_request(path, fields):
    """Send one request on a fresh connection and return its result."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(path)
        body = {"v": 1, "id": "ctl"}
        body.update(fields)
        conn.sendall((json.dumps(body) + "\n").encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                raise ConnectionError("the daemon closed the connection")
            data += chunk
    reply = json.loads(data)
    if not reply.get("ok"):
        raise RuntimeError(f"control request failed: {reply}")
    return reply["result"]


def ping(path):
    control_request(path, {"op": "ping"})


class Daemon:
    """One `vwsdk serve --socket` process with its default flags.

    The constructor returns once the daemon has logged "listening" and
    answered one ping; `setup_s` is how long that took from the spawn.
    The rest of its log is copied to daemon.log.
    """

    live = []

    def __init__(self, run_dir, socket_name=SOCKET):
        self.path = os.path.join(run_dir, socket_name)
        self.log = open(os.path.join(run_dir, "daemon.log"), "ab")
        self.drain = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.abspath(CLI), "serve", "--socket", socket_name],
            cwd=run_dir, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        Daemon.live.append(self)
        first = self.proc.stderr.readline()
        if b"listening" not in first:
            raise RuntimeError(f"the daemon did not start: {first!r}")
        ping(self.path)
        self.setup_s = time.perf_counter() - start
        self.log.write(first)
        self.drain = threading.Thread(target=shutil.copyfileobj,
                                      args=(self.proc.stderr, self.log))
        self.drain.start()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, abandon=False):
        """SIGTERM drains admitted requests; `abandon` kills instead."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if abandon else signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.drain is not None:
            self.drain.join()
        self.proc.stderr.close()
        self.log.close()
        if self in Daemon.live:
            Daemon.live.remove(self)

    @classmethod
    def stop_all(cls):
        for daemon in list(cls.live):
            daemon.stop(abandon=True)


class Setup:
    """Daemon start times, taken in batches spread through the run.

    A batch starts and stops a daemon of its own `size` times, on a
    socket of its own, while no request is in flight.  Spreading the
    batches over the run keeps a short burst of outside load from setting
    the whole figure.  Off (no samples) in traced runs.
    """

    def __init__(self, run_dir, enabled, size):
        self.run_dir = run_dir
        self.size = size if enabled else 0
        self.samples = []

    def batch(self):
        for _ in range(self.size):
            daemon = Daemon(self.run_dir, SETUP_SOCKET)
            daemon.stop()
            self.samples.append(daemon.setup_s)


def drive(run_dir, out, requests, limit_s, for_s=None, background=False):
    """Run the load generator; returns its records.

    Each record is (stream, index, due_ns, sent_ns, recv_ns, response),
    stream "m" for the main stream and "b" for the background verifies.
    """
    cmd = [os.path.abspath(DRIVE), "--socket", SOCKET, "--out", out,
           "--requests", requests]
    if for_s:
        cmd += ["--for", f"{for_s:.3f}"]
    if background:
        cmd += ["--background", "verify.ndjson",
                "--bg-conns", str(gen.VERIFIES_IN_FLIGHT)]
    subprocess.run(cmd, cwd=run_dir, check=True, timeout=limit_s)
    records = []
    with open(os.path.join(run_dir, out)) as f:
        for line in f:
            stream, index, due, sent, recv, response = \
                line.rstrip("\n").split("\t", 5)
            records.append((stream, int(index), int(due), int(sent),
                            int(recv), response if int(recv) >= 0 else None))
    return records


class Phase:
    """What one daemon session measured."""

    def __init__(self, name, requests, records, peak_rss_mb, cache, drives):
        self.name = name
        self.requests = requests  # the main stream's request file
        self.records = records
        self.peak_rss_mb = peak_rss_mb
        self.cache = cache
        self.drives = drives      # per drive: (first record, end, span of
                                  # its main stream in s)
        self.reasons = None       # per record: why it failed, or None;
                                  # set by check()

    def verdicts(self, stream, first=0, end=None):
        """(record, failure reason or None) of one stream's records."""
        return [(r, reason) for r, reason in zip(self.records[first:end],
                                                 self.reasons[first:end])
                if r[0] == stream]

    def drive_verdicts(self):
        """(main-stream verdicts, span in s) of each drive."""
        return [(self.verdicts("m", first, end), span_s)
                for first, end, span_s in self.drives]


def main_span_s(records):
    """From the first due time to the last reply of the main stream."""
    main = [r for r in records if r[0] == "m" and r[4] >= 0]
    if not main:
        return 0.0
    return (max(r[4] for r in main) - min(r[2] for r in main)) / 1e9


def run_session(run_dir, name, requests, setup, limit_s, drives=1,
                for_s=None, background=False):
    """One fresh daemon driven `drives` times in a row, with a setup
    batch before each drive while the daemon idles."""
    daemon = Daemon(run_dir)
    records = []
    parts = []
    try:
        for part in range(drives):
            setup.batch()
            part_records = drive(
                run_dir, f"{name}.{part}.tsv", requests, limit_s,
                for_s=for_s, background=background)
            parts.append((len(records), len(records) + len(part_records),
                          main_span_s(part_records)))
            records += part_records
        cache = control_request(daemon.path, {"op": "stats"})["cache"]
        rss = daemon.peak_rss_mb()
    finally:
        # Background verifies still running are abandoned, not drained.
        daemon.stop(abandon=background)
    return Phase(name, requests, records, rss, cache, parts)


def run_phases(run_dir, manifest, setup):
    """The workload's daemon sessions, in order.

    A query workload runs rounds until --seconds have passed: each round
    sends the query stream once, closed loop, to a fresh daemon, so every
    round sees the mix's own cache-hit share.
    """
    limit_s = helper_limit_s(manifest)
    if manifest["workload"] == "verify_resnet18":
        phases = [run_session(run_dir, "verify", "verify.ndjson", setup,
                              limit_s, drives=VERIFY_DRIVES,
                              for_s=manifest["seconds"] / VERIFY_DRIVES)]
        setup.batch()
        return phases
    background = manifest["verifies_in_flight"] > 0
    phases = []
    start = time.perf_counter()
    while len(phases) < MIN_ROUNDS or \
            time.perf_counter() - start < manifest["seconds"]:
        phases.append(run_session(run_dir, f"round{len(phases)}",
                                  "queries.ndjson", setup, limit_s,
                                  background=background))
    setup.batch()
    return phases


def helper_limit_s(manifest):
    """How long one helper process may run before it counts as hung."""
    return manifest["seconds"] + HANG_MARGIN_S


def replay(run_dir, requests, prefix, trace, limit_s):
    """Run the in-process replay; returns {index: response line}."""
    subprocess.run([os.path.abspath(REPLAY), "--requests", requests,
                    "--out", prefix, "--trace", str(trace)],
                   cwd=run_dir, check=True, timeout=limit_s)
    responses = {}
    with open(os.path.join(run_dir, prefix + ".responses")) as f:
        for line in f:
            index, response = line.rstrip("\n").split("\t", 1)
            responses[int(index)] = response
    return responses


def paper_checks(line):
    """Extra output checks on a replay response; a list of failures."""
    ok, op, payload, code = stats.split_response(line)
    if not ok:
        return [f"replay error {code}"]
    problems = []
    result = json.loads(payload)
    if op == "verify":
        for layer in result["layers"]:
            if not (layer["exact"] and layer["cycles_match"] and
                    layer["executed_cycles"] == layer["analytic_cycles"]):
                problems.append(f"verify layer {layer['name']} not EXACT")
    if op == "compare" and result["results"][0]["network"] == "ResNet-18":
        speedups = result["speedups"]
        ratio = speedups["vw-sdk"] / speedups["sdk"]
        if round(ratio, 2) != 1.69:
            problems.append(f"compare resnet18 vw-sdk/sdk = {ratio:.4f}")
    return problems


class Oracle:
    """Expected payloads of the stream's requests, from the replay."""

    def __init__(self, run_dir, with_queries, with_verify, limit_s):
        self.queries = {}
        self.verify = None
        self.problems = []
        if with_queries:
            self.queries = self._load(run_dir, "queries.ndjson", "oracle_q",
                                      limit_s)
        if with_verify:
            first = os.path.join(run_dir, "verify1.ndjson")
            with open(os.path.join(run_dir, "verify.ndjson")) as f:
                with open(first, "w") as out:
                    out.write(f.readline())
            self.verify = self._load(run_dir, "verify1.ndjson", "oracle_v",
                                     limit_s)[0]

    def _load(self, run_dir, requests, prefix, limit_s):
        responses = replay(run_dir, requests, prefix, 0, limit_s)
        expected = {}
        for index, line in responses.items():
            self.problems += paper_checks(line)
            expected[index] = stats.split_response(line)[2]
        return expected

    def expected(self, phase, stream, index):
        if stream == "b" or phase.requests == "verify.ndjson":
            return self.verify
        return self.queries.get(index)


def check(phases, oracle):
    """(attempted, failed, reasons) over every answered or due request.

    Also records each record's failure reason (or None) on its phase.
    """
    attempted = failed = 0
    reasons = {}
    for phase in phases:
        phase.reasons = []
        for stream, index, _, _, _, response in phase.records:
            attempted += 1
            reason = stats.classify(response,
                                    oracle.expected(phase, stream, index))
            phase.reasons.append(reason)
            if reason is not None:
                failed += 1
                reasons[reason] = reasons.get(reason, 0) + 1
    return attempted, failed, reasons


def latencies_ms(verdicts):
    """Due-time latency of each (record, reason); a failed request (no
    answer, an error or refusal, a wrong payload) is infinitely slow."""
    return [INF if reason is not None
            else stats.due_latency_ns(record[2], record[4]) / 1e6
            for record, reason in verdicts]


def drive_rps(verdicts, span_s):
    """Passing replies per second of a drive's main stream."""
    passed = sum(1 for _, reason in verdicts if reason is None)
    return passed / span_s if passed else 0.0


def end_to_end(manifest, setup_s, phases):
    """The end-to-end metrics, plus per-op figures (verify_p50_s,
    query_p50_ms, ...) printed above the JSON line.

    Latencies and throughput are the median over the run's drives of
    each drive's figure, so a burst of outside load that slows a few
    drives does not set the result.
    """
    drives = [d for p in phases for d in p.drive_verdicts()]
    lats = [latencies_ms(verdicts) for verdicts, _ in drives]
    p50 = statistics.median(stats.median(lat) for lat in lats)
    p99 = statistics.median(stats.percentile(lat, 99) for lat in lats)
    rps = statistics.median(drive_rps(v, span_s) for v, span_s in drives)
    samples = sum(len(lat) for lat in lats)
    if manifest["workload"] == "verify_resnet18":
        shown = {"verify_p50_s": (p50 / 1e3, "s", samples)}
    else:
        shown = {"query_p50_ms": (p50, "ms", samples),
                 "query_p99_ms": (p99, "ms", samples),
                 "query_rps": (rps, "req/s", len(drives))}
        verifies = [lat for p in phases
                    for lat in latencies_ms(p.verdicts("b"))]
        if verifies:
            shown["verify_p50_s"] = (stats.median(verifies) / 1e3, "s",
                                     len(verifies))
    rss = max(p.peak_rss_mb for p in phases)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "throughput_rps": (rps, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, shown, len(drives)


def per_layer(run_dir, phases, limit_s):
    """Traced replay of the seed's queries and verify; the layer table.

    The oracle's untraced replays are the twins the overhead is measured
    against.
    """
    runs = {}
    for requests, tag in (("queries.ndjson", "q"), ("verify1.ndjson", "v")):
        replay(run_dir, requests, f"trace_{tag}", 1, limit_s)
        runs[tag] = trace_report.load(os.path.join(run_dir, f"trace_{tag}"),
                                      os.path.join(run_dir, f"oracle_{tag}"))
    return trace_report.report(runs, phases)


def format_value(value):
    return "inf" if value == INF else f"{value:.4f}"


def json_number(value):
    """A metric as a JSON number: a latency that failures pushed to
    infinity is written as the largest finite double."""
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    os.chdir(ROOT)
    build()
    run_dir = os.path.join(BUILD, "run", f"{args.workload}-{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    manifest = gen.generate(run_dir, args.workload, args.seed, args.seconds)

    setup = Setup(run_dir, args.trace == 0,
                  VERIFY_SETUP_BATCH if args.workload == "verify_resnet18"
                  else ROUND_SETUP_BATCH)
    phases = run_phases(run_dir, manifest, setup)
    limit_s = helper_limit_s(manifest)
    sends_verify = manifest["workload"] != "query_mix"
    oracle = Oracle(run_dir, manifest["sends_queries"] or args.trace == 1,
                    sends_verify or args.trace == 1, limit_s)
    attempted, failed, reasons = check(phases, oracle)
    # A refused or failed request is a wrong answer to the user, and the
    # default daemon runs these workloads far below its admission limit.
    correct = not oracle.problems and failed == 0
    for problem in oracle.problems:
        log(f"check failed: {problem}")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} "
          f"request(s), {failed} failed, failed_frac = "
          f"{failed / attempted:.4f} ratio {reasons or ''}")
    if args.trace == 0:
        setup_s = statistics.median(setup.samples)
        metrics, shown, drives = end_to_end(manifest, setup_s, phases)
        for name, (value, unit, n) in shown.items():
            print(f"  {name:<16} {format_value(value):>12} {unit:<6} n={n}")
        print(f"  {'setup_s':<16} {format_value(setup_s):>12} s      "
              f"n={len(setup.samples)}")
        print(f"  {'peak_rss_mb':<16} "
              f"{format_value(metrics['peak_rss_mb'][0]):>12} MB     "
              f"sessions: {' '.join(f'{p.peak_rss_mb:.1f}' for p in phases)}")
        print(f"  latency and throughput: median over {drives} "
              f"drive(s) of each drive's figure")
    else:
        metrics = per_layer(run_dir, phases, limit_s)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": json_number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # noqa: BLE001 -- report, clean up, exit non-zero
        log(f"perfbench: {e}")
        sys.exit(1)
    finally:
        Daemon.stop_all()
