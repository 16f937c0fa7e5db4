"""Seeded input generator for the vwsdk serve benchmark.

Given a workload, a seed and a run length, writes everything a run sends
into a run directory:

  specs/rNNNN.json   random network specs (novel shapes: cache misses)
  queries.ndjson     the query stream of one round, one request per line
  verify.ndjson      ResNet-18 verify request lines
  manifest.json      the workload's parameters

The same (workload, seed, seconds) always yields byte-identical files.
The daemon only ever sees these files and request lines; the seed stays
with the benchmark.
"""

import json
import os
import random

# Requests in the query stream, which one round sends once.  query_mix
# rounds take ~1.3 s on one connection; query_under_verify rounds are
# longer, so that background verifies (~3 s each) finish inside them.
QUERIES = {"verify_resnet18": 1500, "query_mix": 1500,
           "query_under_verify": 6000}

# ResNet-18 verifies held in flight during query_under_verify (the daemon
# admits four requests at once by default).
VERIFIES_IN_FLIGHT = 2

# Share of the query stream naming zoo networks; these repeat and so hit
# the daemon's mapping cache.  The rest name a fresh random spec each.
ZOO_SHARE = 0.4

WORKLOADS = ("verify_resnet18", "query_mix", "query_under_verify")

ARRAY = "512x512"

# Zoo requests of the query mix.  `compare resnet18` carries the paper's
# headline (vw-sdk / sdk = 1.69 on 512x512).
ZOO_REQUESTS = (
    {"op": "map", "net": "vgg13", "mapper": "vw-sdk"},
    {"op": "map", "net": "vgg16", "mapper": "vw-sdk"},
    {"op": "map", "net": "resnet18", "mapper": "vw-sdk"},
    {"op": "map", "net": "alexnet", "mapper": "vw-sdk"},
    {"op": "map", "net": "vgg16", "mapper": "vw-sdk-pruned"},
    {"op": "map", "net": "resnet18", "mapper": "vw-sdk-pruned"},
    {"op": "compare", "net": "resnet18"},
    {"op": "compare", "net": "vgg13"},
    {"op": "chip", "net": "resnet18", "arrays": 64},
    {"op": "chip", "net": "alexnet", "arrays": 128, "batch": 8},
    {"op": "traffic", "net": "resnet18", "arrays": 64, "rate": 2000.0,
     "duration": 2000000, "seed": 7},
    {"op": "traffic", "net": "lenet5,resnet18", "arrays": 64,
     "rate": 500.0, "duration": 2000000, "seed": 11},
    {"op": "traffic", "net": "resnet18", "arrays": 64, "rate": 20000.0,
     "duration": 250000, "slo_p99": 2000},
)

# Ops of the fresh-spec requests, with their weights.
SPEC_OPS = (("map", 3), ("map-pruned", 2), ("compare", 1), ("chip", 2),
            ("traffic", 2))


def random_layer(rng, index):
    """One layer whose search stays within a few milliseconds."""
    image = rng.randint(7, 56)
    kernel = rng.choice((1, 3, 3, 3, 5, 7))
    pad = rng.choice((0, 0, 1, 2)) if kernel > 1 else 0
    kernel = min(kernel, image + 2 * pad)
    stride = rng.choice((1, 1, 1, 2))
    groups = rng.choice((1, 1, 1, 1, 2, 4, 0))  # 0: depthwise
    if groups == 0:
        ic = oc = groups = rng.choice((16, 32, 64))
    else:
        ic = groups * rng.randint(1, 256 // groups)
        oc = groups * rng.randint(max(1, 8 // groups), 256 // groups)
    layer = {"name": f"l{index}", "image": image, "kernel": kernel,
             "ic": ic, "oc": oc}
    if stride != 1:
        layer["stride"] = stride
    if pad != 0:
        layer["pad"] = pad
    if groups != 1:
        layer["groups"] = groups
    return layer


def random_spec(rng, name):
    return {"name": name,
            "layers": [random_layer(rng, i)
                       for i in range(rng.randint(2, 8))]}


def spec_request(rng, op, path):
    """A request of `op` on the spec file at `path`."""
    if op == "map":
        return {"op": "map", "net": path, "mapper": "vw-sdk"}
    if op == "map-pruned":
        return {"op": "map", "net": path, "mapper": "vw-sdk-pruned"}
    if op == "compare":
        return {"op": "compare", "net": path}
    if op == "chip":
        return {"op": "chip", "net": path, "arrays": 4096,
                "batch": rng.randint(1, 16)}
    return {"op": "traffic", "net": path, "arrays": 4096,
            "rate": float(rng.choice((100, 200, 400))),
            "duration": 1000000, "seed": rng.randint(1, 1000)}


def request_line(request_id, fields):
    """The NDJSON line of one request (fields in a fixed order)."""
    body = {"v": 1, "id": request_id}
    body.update(fields)
    if "array" not in body and body["op"] != "stats":
        body["array"] = ARRAY
    return json.dumps(body, separators=(",", ":"))


def verify_seed(seed):
    """The verify tensor seed a workload seed selects."""
    return 1000 + seed


def generate(run_dir, workload, seed, seconds):
    """Write the inputs of one run; returns the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(os.path.join(run_dir, "specs"), exist_ok=True)

    # The query stream depends on the seed and its length alone, so the
    # traced replay of verify_resnet18 (which sends no queries) still
    # covers every layer.
    query_rng = random.Random(f"queries/{seed}")
    # A stratified mix: every kind of request gets its exact share of the
    # stream, in seeded order.  Drawing each kind independently would let
    # the count of the few heavy requests (the capacity search, the
    # compares) swing from seed to seed, and with it the total work.
    n = QUERIES[workload]
    n_zoo = round(n * ZOO_SHARE)
    spec_ops = [op for op, weight in SPEC_OPS for _ in range(weight)]
    kinds = [ZOO_REQUESTS[i % len(ZOO_REQUESTS)] for i in range(n_zoo)]
    kinds += [spec_ops[i % len(spec_ops)] for i in range(n - n_zoo)]
    query_rng.shuffle(kinds)
    lines = []
    for i, kind in enumerate(kinds):
        if isinstance(kind, dict):
            fields = dict(kind)
        else:
            path = f"specs/r{i:05d}.json"
            spec = random_spec(query_rng, f"rand{i}")
            with open(os.path.join(run_dir, path), "w") as f:
                f.write(json.dumps(spec, separators=(",", ":")) + "\n")
            fields = spec_request(query_rng, kind, path)
        lines.append(request_line(f"q{i}", fields))

    # Every verify request is identical but for its id, so one in-process
    # replay is the oracle for all of them.
    verify_fields = {"op": "verify", "net": "resnet18", "mapper": "vw-sdk",
                     "seed": verify_seed(seed)}
    verify_lines = [request_line(f"v{i}", verify_fields) for i in range(256)]

    with open(os.path.join(run_dir, "queries.ndjson"), "w") as f:
        f.writelines(line + "\n" for line in lines)
    with open(os.path.join(run_dir, "verify.ndjson"), "w") as f:
        f.writelines(line + "\n" for line in verify_lines)

    manifest = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "sends_queries": workload != "verify_resnet18",
        "queries": len(lines),
        "verifies_in_flight":
            VERIFIES_IN_FLIGHT if workload == "query_under_verify" else 0,
        "verify_seed": verify_seed(seed),
    }
    with open(os.path.join(run_dir, "manifest.json"), "w") as f:
        f.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest
