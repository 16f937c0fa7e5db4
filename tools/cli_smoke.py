#!/usr/bin/env python3
"""End-to-end smoke test of the `vwsdk` CLI (ctest `cli.smoke`, label
"cli").  Everything asserted here is machine-independent:

* every subcommand runs and honours the documented exit codes
  (0 success, 1 runtime error, 2 usage error);
* `map` / `compare` on a zoo *name* and on the spec file exported by
  `vwsdk zoo --export` produce byte-identical output (the spec
  round-trip, in both JSON and CSV spec formats);
* the paper's Table-I totals on the 512x512 array are reproduced;
* `sweep` runs a non-zoo spec file (grouped layers included) through the
  cross-product and emits well-formed CSV and JSON;
* `chip` plans a pipelined chip allocation end to end (single chip,
  multi-chip sharding when the demand exceeds one chip, the `--network`
  alias, objective-aware allocation, and the batch throughput model);
* `--objective energy` / `edp` run end to end (and energy provably
  changes a VGG-13 window choice vs. the default cycles search);
* `verify` functionally verifies mapped layers on the crossbar
  simulator, with byte-identical reports under the `scalar` and `gemm`
  execution backends and their aliases (`direct`, `im2col-gemm`) and
  usage errors for unknown `--ref-backend`s;
* `mappers` lists the registry, a mapper alias (`vwsdk`) maps exactly
  as its canonical name, and unknown mappers/objectives are usage
  errors naming the known sets.

With `--serve` the script instead drives the `vwsdk serve` daemon
(ctest `cli.serve_smoke`): a scripted NDJSON session covering every op
whose `result` payloads must be byte-identical to the one-shot CLI's
`--format json` output, cache hits accumulating across requests,
admission-control rejections under `--max-inflight 1 --max-queue 1`
that leave the daemon alive, a graceful SIGTERM drain exiting 0, and
the same session over a `--socket` Unix domain socket.

With `--traffic` the script drives the traffic simulator (ctest
`cli.traffic_smoke`): seeded runs are byte-identical and conservative
(arrivals == completions + in-flight + rejected), a CSV trace and its
JSON equivalent replay to byte-identical reports, and the `--slo-p99`
capacity planner honours the exit-code contract (0 with a minimality
proof, 1 for an unmeetable SLO, 2 for usage errors).
"""

import argparse
import csv
import io
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FAILURES: list[str] = []


def check(condition: bool, label: str) -> None:
    print(f"  [{'OK' if condition else 'FAIL'}] {label}")
    if not condition:
        FAILURES.append(label)


def hermetic_env() -> dict:
    # Hermetic: the sanitizer CI job exports VWSDK_REF_BACKEND to
    # matrix the whole suite over backends, but this smoke asserts
    # the CLI's own documented defaults, so the inherited selection
    # must not leak in (the flag is exercised explicitly below).
    return {k: v for k, v in os.environ.items()
            if k != "VWSDK_REF_BACKEND"}


class Cli:
    def __init__(self, binary: str):
        self.binary = binary

    def run(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [self.binary, *args], capture_output=True, text=True,
            timeout=300, env=hermetic_env(),
        )

    def spawn_serve(self, *args: str) -> subprocess.Popen:
        return subprocess.Popen(
            [self.binary, "serve", *args], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=hermetic_env(),
        )


def by_id(ndjson: str) -> dict:
    """Parse daemon output into {id: (doc, raw_line)}.  Responses are
    asynchronous (workers finish in any order), so every assertion
    matches by the echoed id, never by line order."""
    responses = {}
    for line in ndjson.splitlines():
        if line.strip():
            doc = json.loads(line)
            responses[doc["id"]] = (doc, line)
    return responses


def ok_envelope(request_id: str, op: str, payload: str) -> str:
    """The exact response line serve must emit for a one-shot payload."""
    return (f'{{"v":1,"id":"{request_id}","op":"{op}","ok":true,'
            f'"result":{payload}}}')


def serve_smoke(cli: Cli, tmp: Path) -> None:
    # --- serve usage errors ---------------------------------------------
    check(cli.run("serve", "--help").returncode == 0, "serve --help exits 0")
    check(cli.run("serve", "--bogus").returncode == 2,
          "serve with an unknown flag exits 2")
    check(cli.run("serve", "--max-inflight", "0").returncode == 2,
          "serve --max-inflight 0 exits 2")
    check(cli.run("serve", "--max-queue", "-1").returncode == 2,
          "serve --max-queue -1 exits 2")

    # --- the scripted session: every op + hostile lines -----------------
    # --max-inflight 1 makes execution order deterministic (FIFO through
    # one worker), so the stats snapshot sees both maps' cache traffic.
    session = [
        '{"v":1,"id":"p1","op":"ping"}',
        '{"v":1,"id":"m1","op":"map","net":"lenet5"}',
        '{"v":1,"id":"m2","op":"map","net":"lenet5"}',
        '{"v":1,"id":"c1","op":"compare","net":"lenet5"}',
        '{"v":1,"id":"h1","op":"chip","net":"lenet5","arrays":4}',
        '{"v":1,"id":"f1","op":"traffic","net":"lenet5","arrays":4,'
        '"rate":50,"duration":1000000}',
        '{"v":1,"id":"v1","op":"verify","net":"lenet5"}',
        '{"v":1,"id":"r1","op":"mappers"}',
        '{"v":1,"id":"s1","op":"stats"}',
        "this is not json",
        '{"v":1,"id":"u1","op":"frob"}',
        '{"v":1,"id":"e1","op":"map","net":"no-such-model"}',
        '{"v":1,"id":"d1","op":"shutdown"}',
    ]
    daemon = cli.spawn_serve("--max-inflight", "1")
    out, err = daemon.communicate("\n".join(session) + "\n", timeout=300)
    check(daemon.returncode == 0, "serve session drains and exits 0")
    responses = by_id(out)
    check(len(responses) == len(session),
          f"one response per request line (got {len(responses)})")

    # Result payloads are the one-shot CLI's --format json output,
    # byte for byte -- the two front ends share one ServiceApi.
    oneshot = {
        "m1": ("map", cli.run("map", "--net", "lenet5", "--format", "json")),
        "c1": ("compare",
               cli.run("compare", "--net", "lenet5", "--format", "json")),
        "h1": ("chip", cli.run("chip", "--net", "lenet5", "--arrays", "4",
                               "--format", "json")),
        "f1": ("traffic",
               cli.run("traffic", "--net", "lenet5", "--arrays", "4",
                       "--rate", "50", "--duration", "1000000",
                       "--format", "json")),
        "v1": ("verify",
               cli.run("verify", "--net", "lenet5", "--format", "json")),
        "r1": ("mappers", cli.run("mappers", "--format", "json")),
    }
    for request_id, (op, run) in oneshot.items():
        expected = ok_envelope(request_id, op, run.stdout.strip())
        got = responses.get(request_id, (None, ""))[1]
        check(
            run.returncode == 0 and got == expected,
            f"serve {op} response is byte-identical to the one-shot CLI",
        )
    check(
        responses["p1"][1]
        == ok_envelope("p1", "ping", '{"pong":true,"delay_ms":0}'),
        "ping answers pong",
    )
    check(
        responses["d1"][1]
        == ok_envelope("d1", "shutdown", '{"stopping":true}'),
        "shutdown acknowledges before draining",
    )

    # The shared cache: m2 repeats m1, so by the time the (serialized)
    # stats request runs the daemon has recorded hits.
    stats = responses["s1"][0]
    check(
        stats["ok"] and stats["result"]["cache"]["hits"] >= 2
        and stats["result"]["cache"]["misses"] >= 2
        and stats["result"]["threads"] >= 1,
        "stats reports cache hits accumulated across requests",
    )

    # Hostile lines get per-request error responses, never process
    # death: unparseable input (id null), an unknown op, and a clean
    # request whose execution fails.
    for request_id, code in ((None, "bad_request"), ("u1", "unknown_op"),
                             ("e1", "not_found")):
        doc = responses.get(request_id, ({}, ""))[0]
        check(
            doc and not doc["ok"] and doc["error"]["code"] == code
            and doc["error"]["message"],
            f"hostile line answers a structured {code} error",
        )

    # --- admission control: bounded, rejecting, and recoverable ---------
    daemon = cli.spawn_serve("--max-inflight", "1", "--max-queue", "1")
    # A slow ping occupies the only worker, the second fills the only
    # queue slot, so the third must be refused immediately.
    for line in ('{"v":1,"id":"a","op":"ping","delay_ms":1500}',
                 '{"v":1,"id":"b","op":"ping"}',
                 '{"v":1,"id":"c","op":"ping"}'):
        daemon.stdin.write(line + "\n")
    daemon.stdin.flush()
    rejected = json.loads(daemon.stdout.readline())
    check(
        rejected["id"] == "c" and not rejected["ok"]
        and rejected["error"]["code"] == "overloaded",
        "request beyond --max-queue is rejected as overloaded",
    )
    # The daemon stays alive: both admitted pings still answer, and once
    # capacity frees a new request is admitted again.
    settled = by_id(daemon.stdout.readline() + daemon.stdout.readline())
    check(
        settled["a"][0]["ok"] and settled["b"][0]["ok"],
        "admitted requests complete despite the rejection",
    )
    daemon.stdin.write('{"v":1,"id":"d","op":"ping"}\n'
                       '{"v":1,"id":"z","op":"shutdown"}\n')
    out, err = daemon.communicate(timeout=300)
    responses = by_id(out)
    check(
        daemon.returncode == 0 and responses["d"][0]["ok"],
        "the daemon recovers and admits again after overload",
    )

    # --- graceful drain on SIGTERM --------------------------------------
    daemon = cli.spawn_serve()
    daemon.stdin.write('{"v":1,"id":"t1","op":"ping","delay_ms":400}\n')
    daemon.stdin.flush()
    time.sleep(0.25)  # let the reader admit the ping before the signal
    daemon.send_signal(signal.SIGTERM)
    out, err = daemon.communicate(timeout=300)
    responses = by_id(out)
    check(
        daemon.returncode == 0 and responses["t1"][0]["result"]["pong"],
        "SIGTERM drains the in-flight request and exits 0",
    )

    # --- the same protocol over a Unix domain socket --------------------
    sock_path = tmp / "serve.sock"
    daemon = cli.spawn_serve("--socket", str(sock_path))
    deadline = time.monotonic() + 60
    while not sock_path.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(str(sock_path))
    client.sendall(b'{"v":1,"id":"s-map","op":"map","net":"lenet5"}\n'
                   b'{"v":1,"id":"s-end","op":"shutdown"}\n')
    received = b""
    while chunk := client.recv(65536):
        received += chunk
    client.close()
    out, err = daemon.communicate(timeout=300)
    responses = by_id(received.decode())
    check(
        daemon.returncode == 0
        and responses["s-map"][1]
        == ok_envelope("s-map", "map",
                       oneshot["m1"][1].stdout.strip())
        and responses["s-end"][0]["result"]["stopping"],
        "the socket session matches stdin byte for byte and drains",
    )
    check(not sock_path.exists(), "the socket file is unlinked on exit")


def traffic_smoke(cli: Cli, tmp: Path) -> None:
    check(cli.run("traffic", "--help").returncode == 0,
          "traffic --help exits 0")

    # --- seeded Poisson: deterministic and conservative -----------------
    poisson_args = ("traffic", "--net", "vgg13", "--arrays", "64",
                    "--rate", "20", "--duration", "10000000",
                    "--format", "json")
    first = cli.run(*poisson_args)
    check(first.returncode == 0, "traffic (poisson, json) exits 0")
    doc = json.loads(first.stdout)
    check(
        doc["source"] == "poisson" and doc["seed"] == 42
        and doc["arrivals"] > 0,
        "traffic json carries the source, default seed, and arrivals",
    )
    net = doc["networks"][0]
    check(
        net["arrivals"]
        == net["completions"] + net["in_flight"] + net["rejected"],
        "every arrival is completed, in flight, or rejected",
    )
    check(
        net["latency"]["min"] >= net["fill_latency"]
        and net["latency"]["p50"] <= net["latency"]["p99"]
        <= net["latency"]["max"],
        "latency spectrum is ordered and bounded below by the fill",
    )
    second = cli.run(*poisson_args)
    check(second.stdout == first.stdout,
          "the same seed replays a byte-identical report")
    reseeded = cli.run(*poisson_args, "--seed", "7")
    check(
        reseeded.returncode == 0 and reseeded.stdout != first.stdout,
        "a different --seed yields a different report",
    )
    table = cli.run("traffic", "--net", "vgg13", "--arrays", "64",
                    "--rate", "20")
    check(
        table.returncode == 0 and "sustained" in table.stdout
        and "p99" in table.stdout,
        "traffic table reports throughput and tail latency",
    )
    csv_run = cli.run(*poisson_args[:-1], "csv")
    csv_rows = list(csv.DictReader(io.StringIO(csv_run.stdout)))
    check(
        csv_run.returncode == 0 and len(csv_rows) >= 1
        and csv_rows[0]["network"] == "VGG-13"
        and int(csv_rows[0]["arrivals"]) == net["arrivals"],
        "traffic csv carries one row per chip matching the json totals",
    )

    # --- trace round trip: CSV and JSON replay identically --------------
    arrivals = [(0, ""), (5000, "VGG-13"), (40000, ""), (40000, "")]
    trace_csv = tmp / "arrivals.csv"
    trace_csv.write_text("time,net\n" + "".join(
        f"{t},{n}\n" for t, n in arrivals))
    trace_json = tmp / "arrivals.json"
    trace_json.write_text(json.dumps({"arrivals": [
        {"time": t, **({"net": n} if n else {})} for t, n in arrivals]}))
    via_csv = cli.run("traffic", "--net", "vgg13", "--arrays", "64",
                      "--trace", str(trace_csv), "--format", "json")
    via_json = cli.run("traffic", "--net", "vgg13", "--arrays", "64",
                       "--trace", str(trace_json), "--format", "json")
    check(
        via_csv.returncode == 0 and via_csv.stdout == via_json.stdout,
        "CSV and JSON traces replay to byte-identical reports",
    )
    traced = json.loads(via_csv.stdout)
    check(
        traced["source"] == "trace"
        and traced["networks"][0]["arrivals"] == len(arrivals)
        and traced["networks"][0]["completions"] == len(arrivals),
        "the trace replays every arrival to completion",
    )

    # --- capacity planning: the --slo-p99 exit-code contract ------------
    capacity = cli.run("traffic", "--net", "vgg13", "--arrays", "64",
                       "--rate", "900", "--slo-p99", "20000",
                       "--format", "json")
    check(capacity.returncode == 0, "a meetable --slo-p99 exits 0")
    answer = json.loads(capacity.stdout)
    check(
        answer["meets_slo"] and answer["p99"] <= 20000
        and answer["replicas"] >= 1
        and answer["lower"]["replicas"] == answer["replicas"] - 1
        and answer["lower"]["p99"] > 20000,
        "the capacity answer is minimal, with the failing count as proof",
    )
    impossible = cli.run("traffic", "--net", "vgg13", "--arrays", "64",
                         "--rate", "20", "--slo-p99", "1000")
    check(
        impossible.returncode == 1 and "SLO" in impossible.stderr,
        "an SLO below the fill latency exits 1 naming the reason",
    )

    # --- usage errors ---------------------------------------------------
    check(
        cli.run("traffic", "--net", "vgg13", "--arrays", "64").returncode
        == 2,
        "traffic without a rate or trace exits 2",
    )
    check(
        cli.run("traffic", "--net", "vgg13", "--arrays", "64",
                "--rate", "fast").returncode == 2,
        "a non-numeric --rate exits 2",
    )
    check(
        cli.run("traffic", "--net", "vgg13", "--arrays", "64", "--rate",
                "10", "--trace", str(trace_csv)).returncode == 2,
        "--rate and --trace together exit 2",
    )
    check(
        cli.run("traffic", "--net", "vgg13", "--arrays", "64",
                "--trace", str(tmp / "missing.csv")).returncode == 2,
        "a missing trace file exits 2",
    )
    check(
        cli.run("traffic", "--net", "vgg13").returncode == 2,
        "traffic without --arrays exits 2",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="path to the vwsdk binary")
    parser.add_argument("--serve", action="store_true",
                        help="drive the serve daemon instead of the "
                             "one-shot subcommands")
    parser.add_argument("--traffic", action="store_true",
                        help="drive the traffic simulator instead of the "
                             "one-shot subcommands")
    args = parser.parse_args()
    cli = Cli(args.cli)
    tmp = Path(tempfile.mkdtemp(prefix="vwsdk_cli_smoke_"))

    if args.serve:
        serve_smoke(cli, tmp)
        print(f"\ncli_smoke --serve: {len(FAILURES)} failure(s)")
        return 1 if FAILURES else 0

    if args.traffic:
        traffic_smoke(cli, tmp)
        print(f"\ncli_smoke --traffic: {len(FAILURES)} failure(s)")
        return 1 if FAILURES else 0

    # --- exit codes -----------------------------------------------------
    check(cli.run("--help").returncode == 0, "--help exits 0")
    check(cli.run("--version").returncode == 0, "--version exits 0")
    no_command = cli.run()
    check(
        no_command.returncode == 2 and no_command.stdout == ""
        and "Usage" in no_command.stderr,
        "no command exits 2 with help on stderr, stdout clean",
    )
    check(cli.run("frobnicate").returncode == 2, "unknown command exits 2")
    check(
        cli.run("map", "--net", "vgg16", "--bogus").returncode == 2,
        "unknown flag exits 2",
    )
    check(
        cli.run("map", "--net", "no-such-model").returncode == 2,
        "unresolvable --net exits 2",
    )
    for sub in ("map", "compare", "sweep", "chip", "traffic", "verify",
                "mappers", "zoo", "serve"):
        check(cli.run(sub, "--help").returncode == 0, f"{sub} --help exits 0")

    # --- mapper registry listing ----------------------------------------
    mappers_out = cli.run("mappers")
    check(mappers_out.returncode == 0, "mappers exits 0")
    check(
        all(name in mappers_out.stdout
            for name in ("im2col", "vw-sdk", "exhaustive", "objective-aware")),
        "mappers lists the registered algorithms and capabilities",
    )
    unknown_mapper = cli.run("map", "--net", "vgg13", "--mapper", "frob")
    check(
        unknown_mapper.returncode == 2 and "known:" in unknown_mapper.stderr
        and "vw-sdk" in unknown_mapper.stderr,
        "unknown --mapper exits 2 listing the registry names",
    )
    by_name = cli.run("map", "--net", "vgg13", "--mapper", "vw-sdk")
    by_mapper_alias = cli.run("map", "--net", "vgg13", "--mapper", "vwsdk")
    check(
        by_name.returncode == 0 and by_mapper_alias.returncode == 0
        and by_mapper_alias.stdout == by_name.stdout,
        "--mapper vwsdk is an exact alias for vw-sdk",
    )

    # --- zoo listing ----------------------------------------------------
    zoo = cli.run("zoo")
    check(zoo.returncode == 0, "zoo exits 0")
    check("vgg16" in zoo.stdout and "resnet18" in zoo.stdout,
          "zoo lists the models")

    # --- paper Table-I totals via the CLI -------------------------------
    for net, mapper, expected in (
        ("vgg13", "sdk", 114697),
        ("vgg13", "vw-sdk", 77102),
        ("resnet18", "sdk", 7240),
        ("resnet18", "vw-sdk", 4294),
    ):
        out = cli.run("map", "--net", net, "--mapper", mapper,
                      "--array", "512x512", "--format", "json")
        total = json.loads(out.stdout)["total_cycles"]
        check(
            out.returncode == 0 and total == expected,
            f"map {net}/{mapper} total {total} == paper {expected}",
        )

    with_stats = cli.run("map", "--net", "lenet5", "--stats")
    check(
        with_stats.returncode == 0 and "cache" in with_stats.stderr
        and "cache" not in with_stats.stdout,
        "map --stats reports the cache on stderr only",
    )

    # --- search objectives ----------------------------------------------
    by_cycles = cli.run("map", "--net", "vgg13", "--format", "json")
    by_energy = cli.run("map", "--net", "vgg13", "--objective", "energy",
                        "--format", "json")
    check(by_cycles.returncode == 0, "map (default objective) exits 0")
    check(by_energy.returncode == 0, "map --objective energy exits 0")
    if by_cycles.returncode != 0 or by_energy.returncode != 0:
        print(f"\ncli_smoke: {len(FAILURES)} failure(s)")
        return 1
    cycles_doc = json.loads(by_cycles.stdout)
    energy_doc = json.loads(by_energy.stdout)
    check(
        cycles_doc["objective"] == "cycles"
        and energy_doc["objective"] == "energy",
        "result JSON carries the objective",
    )
    windows = {
        doc["objective"]: [l["decision"]["window"] for l in doc["layers"]]
        for doc in (cycles_doc, energy_doc)
    }
    check(
        windows["cycles"] != windows["energy"],
        "energy objective picks different VGG-13 windows than cycles",
    )
    edp = cli.run("map", "--net", "vgg13", "--objective", "edp",
                  "--format", "json")
    check(
        edp.returncode == 0 and json.loads(edp.stdout)["total_score"] > 0,
        "map --objective edp exits 0 with a positive score",
    )
    check(
        cli.run("compare", "--net", "resnet18", "--objective", "energy",
                "--format", "csv").returncode == 0,
        "compare --objective energy exits 0",
    )
    bad_objective = cli.run("map", "--net", "vgg13", "--objective", "frob")
    check(
        bad_objective.returncode == 2 and "known:" in bad_objective.stderr,
        "unknown --objective exits 2 listing the known objectives",
    )

    # --- spec round trip: zoo name vs exported spec file ----------------
    for spec_format in ("json", "csv"):
        spec_path = tmp / f"vgg16.{spec_format}"
        export = cli.run("zoo", "--export", "vgg16",
                         "--format", spec_format, "--out", str(spec_path))
        check(export.returncode == 0, f"zoo --export vgg16 ({spec_format})")
        by_name = cli.run("map", "--net", "vgg16", "--format", "json")
        by_spec = cli.run("map", "--net", str(spec_path), "--format", "json")
        check(
            by_name.returncode == 0
            and by_name.stdout == by_spec.stdout
            and by_name.stdout.strip(),
            f"map via {spec_format} spec is byte-identical to zoo name",
        )
    by_name = cli.run("compare", "--net", "vgg16", "--format", "csv")
    by_spec = cli.run("compare", "--net", str(tmp / "vgg16.json"),
                      "--format", "csv")
    check(
        by_name.returncode == 0 and by_name.stdout == by_spec.stdout,
        "compare via spec is byte-identical to zoo name",
    )

    # --- sweep over a custom (non-zoo) spec file ------------------------
    custom = tmp / "custom.json"
    custom.write_text(json.dumps({
        "name": "smoke-net",
        "array": "256x256",
        "layers": [
            {"name": "c1", "image": 32, "kernel": 3, "ic": 8, "oc": 16},
            {"name": "dw", "image": 30, "kernel": 3, "ic": 16, "oc": 16,
             "groups": 16},
            {"name": "pw", "image": 28, "kernel": 1, "ic": 16, "oc": 32},
        ],
    }))
    mappers = ["im2col", "vw-sdk"]
    sweep_csv = cli.run("sweep", "--nets", f"{custom},vgg13",
                        "--arrays", "128x128,256x256",
                        "--mappers", ",".join(mappers), "--format", "csv")
    check(sweep_csv.returncode == 0, "sweep (csv) exits 0")
    rows = list(csv.DictReader(io.StringIO(sweep_csv.stdout)))
    expected_rows = len(mappers) * 2 * (3 + 10)  # mappers x arrays x layers
    check(len(rows) == expected_rows,
          f"sweep csv has {expected_rows} rows (got {len(rows)})")
    check(
        all(float(r["speedup_vs_baseline"]) > 0 for r in rows),
        "sweep csv speedups parse as positive floats",
    )
    check(
        any(r["network"] == "smoke-net" and r["groups"] == "16"
            for r in rows),
        "sweep csv carries the grouped layer",
    )

    sweep_json = cli.run("sweep", "--nets", str(custom),
                         "--arrays", "64x64,128x128",
                         "--mappers", ",".join(mappers),
                         "--format", "json", "--stats")
    check(sweep_json.returncode == 0, "sweep (json) exits 0")
    points = json.loads(sweep_json.stdout)
    check(
        len(points) == 2
        and all(len(p["results"]) == len(mappers) for p in points),
        "sweep json has one comparison per array point",
    )
    check("cache" in sweep_json.stderr, "sweep --stats reports the cache")

    # --- chip: the pipeline planner end to end --------------------------
    chip = cli.run("chip", "--net", "resnet18", "--arrays", "64",
                   "--batch", "16", "--format", "json")
    check(chip.returncode == 0, "chip (single chip, json) exits 0")
    plan = json.loads(chip.stdout)
    check(
        plan["feasible"] and len(plan["chips"]) == 1
        and plan["interval"] > 0 and plan["speedup"] > 1.0,
        "chip json carries a feasible single-chip plan with speedup",
    )
    check(
        plan["batch"] == 16
        and plan["batch_cycles"]
        == plan["fill_latency"] + 15 * plan["interval"],
        "chip batch cycles follow fill + (B-1) x interval",
    )
    by_alias = cli.run("chip", "--network", "resnet18", "--arrays", "64",
                       "--batch", "16", "--format", "json")
    check(
        by_alias.returncode == 0 and by_alias.stdout == chip.stdout,
        "--network is an exact alias for --net",
    )

    # Demand (23 arrays for ResNet-18 vw-sdk) > 12-array chips: the
    # planner shards instead of reporting a bare infeasible.
    sharded = cli.run("chip", "--net", "resnet18", "--arrays", "12",
                      "--format", "json")
    check(sharded.returncode == 0, "chip (multi-chip) exits 0")
    sharded_plan = json.loads(sharded.stdout)
    check(
        sharded_plan["feasible"] and len(sharded_plan["chips"]) > 1
        and sharded_plan["interval"]
        == max(c["interval"] for c in sharded_plan["chips"]),
        "demand > one chip shards into a valid multi-chip plan",
    )
    check(
        all(sum(l["tiles"] for l in c["layers"]) <= 12
            for c in sharded_plan["chips"]),
        "every chip's resident demand fits its 12-array budget",
    )

    for objective in ("cycles", "energy", "edp"):
        run = cli.run("chip", "--net", "vgg13", "--arrays", "64",
                      "--objective", objective, "--format", "json")
        ok = run.returncode == 0
        if ok:
            doc = json.loads(run.stdout)
            ok = doc["objective"] == objective and doc["feasible"]
        check(ok, f"chip --objective {objective} exits 0 with the objective")

    chip_csv = cli.run("chip", "--net", "vgg13", "--arrays", "64",
                       "--format", "csv")
    check(chip_csv.returncode == 0, "chip (csv) exits 0")
    chip_rows = list(csv.DictReader(io.StringIO(chip_csv.stdout)))
    check(
        len(chip_rows) == 10
        and all(int(r["arrays"]) >= int(r["tiles"]) for r in chip_rows)
        and len({r["interval"] for r in chip_rows}) == 1,
        "chip csv has one row per layer with arrays >= tiles",
    )
    chip_table = cli.run("chip", "--net", "resnet18", "--arrays", "64")
    check(
        chip_table.returncode == 0 and "interval" in chip_table.stdout
        and "speedup" in chip_table.stdout,
        "chip table reports interval and speedup",
    )

    # A grouped (depthwise) spec flows through the planner: its resident
    # demand counts G copies of the per-group tiles.
    grouped_chip = cli.run("chip", "--net", str(custom), "--arrays", "32",
                           "--format", "json")
    check(grouped_chip.returncode == 0, "chip on a grouped spec exits 0")
    grouped_plan = json.loads(grouped_chip.stdout)
    dw = [l for c in grouped_plan["chips"] for l in c["layers"]
          if l["name"] == "dw"]
    check(
        len(dw) == 1 and dw[0]["groups"] == 16
        and dw[0]["tiles"] % 16 == 0,
        "grouped layer keeps G x per-group tiles resident",
    )

    check(
        cli.run("chip", "--net", "resnet18").returncode == 2,
        "chip without --arrays exits 2",
    )
    overflow = cli.run("chip", "--net", "resnet18",
                       "--arrays", "4294967360")  # 2^32 + 64
    check(
        overflow.returncode == 2 and "--arrays" in overflow.stderr,
        "an --arrays value beyond Dim exits 2 instead of wrapping",
    )
    capped = cli.run("chip", "--net", "resnet18", "--arrays", "12",
                     "--chips", "1")
    check(
        capped.returncode == 1 and "chip" in capped.stderr,
        "an impossible chip budget exits 1 naming the reason",
    )

    # --- verify: functional verification via the execution backends ----
    verify = cli.run("verify", "--net", "lenet5", "--array", "64x64")
    check(
        verify.returncode == 0
        and "all layers verified EXACT" in verify.stdout
        and "backend: gemm" in verify.stdout,
        "verify lenet5 exits 0 reporting EXACT under the default backend",
    )
    by_scalar = cli.run("verify", "--net", "lenet5", "--array", "64x64",
                        "--ref-backend", "scalar")
    by_gemm = cli.run("verify", "--net", "lenet5", "--array", "64x64",
                      "--ref-backend", "gemm")
    check(
        by_scalar.returncode == 0 and by_gemm.returncode == 0
        and by_scalar.stdout.replace("backend: scalar", "backend: gemm")
        == by_gemm.stdout,
        "verify reports are identical under the scalar and gemm backends",
    )
    by_direct = cli.run("verify", "--net", "lenet5", "--array", "64x64",
                        "--ref-backend", "direct")
    check(
        by_direct.returncode == 0 and by_direct.stdout == by_scalar.stdout,
        "--ref-backend direct is an exact alias for scalar",
    )
    by_gemm_alias = cli.run("verify", "--net", "lenet5", "--array", "64x64",
                            "--ref-backend", " IM2COL-GEMM ")
    check(
        by_gemm_alias.returncode == 0
        and by_gemm_alias.stdout == by_gemm.stdout,
        "--ref-backend ' IM2COL-GEMM ' is an exact alias for gemm",
    )
    grouped_verify = cli.run("verify", "--net", str(custom),
                             "--array", "128x128")
    check(
        grouped_verify.returncode == 0
        and "all layers verified EXACT" in grouped_verify.stdout,
        "verify handles a grouped (depthwise) spec",
    )
    bad_backend = cli.run("verify", "--net", "lenet5",
                          "--ref-backend", "frob")
    check(
        bad_backend.returncode == 2 and "known:" in bad_backend.stderr
        and "gemm" in bad_backend.stderr,
        "unknown --ref-backend exits 2 listing the registered backends",
    )

    # --- malformed specs fail cleanly -----------------------------------
    bad = tmp / "bad.json"
    bad.write_text('{"name": "x", "layers": [{"image": 8}]}')
    run = cli.run("map", "--net", str(bad))
    check(
        run.returncode == 2 and "kernel" in run.stderr,
        "spec missing required keys exits 2 naming the key",
    )
    garbage = tmp / "garbage.json"
    garbage.write_text("{not json")
    check(
        cli.run("map", "--net", str(garbage)).returncode == 2,
        "unparseable spec exits 2",
    )
    deep = tmp / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    check(
        cli.run("map", "--net", str(deep)).returncode == 2,
        "deeply nested spec exits 2 (no stack overflow)",
    )

    # Usage errors fire before --out is opened: no partial file.
    unwritten = tmp / "must_not_exist.txt"
    run = cli.run("compare", "--net", "lenet5", "--mappers", "vw-sdk",
                  "--out", str(unwritten))
    check(
        run.returncode == 2 and not unwritten.exists(),
        "early usage error leaves no partial --out file",
    )

    # --- --out writes files ---------------------------------------------
    out_path = tmp / "result.csv"
    run = cli.run("map", "--net", "resnet18", "--format", "csv",
                  "--out", str(out_path))
    check(
        run.returncode == 0 and out_path.read_text().startswith("network,"),
        "--out writes the CSV file",
    )

    print(f"\ncli_smoke: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
