"""Per-layer analysis of a traced replay (perfbench/replay.cpp output).

A layer's time in one request is the summed self time of its spans in
that request; a layer metric is the median of that over the requests
that ran the layer.  Counters are summed over the replay.  The
`bench.count` spans hold the replay's extra counting work and are taken
out of every request's time.
"""

import statistics

import stats

# Span name -> (metric name, ns per unit, unit).
LAYER_SPANS = (
    ("nn.spec_load", "nn.spec_load_ms", 1e6, "ms"),
    ("core.search", "core.search_ms", 1e6, "ms"),
    ("mapping.plan_build", "mapping.plan_build_ms", 1e6, "ms"),
    ("tensor.fill", "tensor.fill_ms", 1e6, "ms"),
    ("mapping.validate", "mapping.validate_ms", 1e6, "ms"),
    ("sim.execute", "sim.execute_ms", 1e6, "ms"),
    ("tensor.ref_conv", "tensor.ref_conv_ms", 1e6, "ms"),
    ("sim.compare", "sim.compare_ms", 1e6, "ms"),
    ("sim.chip_plan", "sim.chip_plan_ms", 1e6, "ms"),
    ("sim.traffic", "sim.traffic_ms", 1e6, "ms"),
    ("core.serialize", "core.serialize_ms", 1e6, "ms"),
    ("serve.parse", "serve.parse_us", 1e3, "us"),
    ("serve.envelope", "serve.envelope_us", 1e3, "us"),
)

# Counter name -> unit; reported as totals over the replay.
COUNTERS = (
    ("core.layers_searched", "count"),
    ("core.search_candidates", "count"),
    ("mapping.plan_cells", "count"),
    ("sim.cycles", "count"),
    ("sim.arrays_used", "count"),
    ("tensor.ref_macs", "count"),
    ("sim.traffic_events", "count"),
    ("core.payload_bytes", "B"),
)

OPS = ("map", "compare", "chip", "traffic", "verify")
COUNT_SPAN = "bench.count"


def _rows(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


class Replay:
    """One traced replay and its untraced twin, per request."""

    def __init__(self, ops, layer_ns, request_ns, twin_ns, counters, cache):
        self.ops = ops                # index -> op
        self.layer_ns = layer_ns      # index -> {span name: self ns}
        self.request_ns = request_ns  # index -> traced ns, counting excluded
        self.twin_ns = twin_ns        # index -> untraced ns
        self.counters = counters      # name -> total
        self.cache = cache            # (hits, misses, entries)


def load(trace_prefix, twin_prefix):
    ops = {int(i): op for i, op, _ in _rows(trace_prefix + ".requests")}
    twin_ns = {int(i): int(ns) for i, _, ns in _rows(twin_prefix + ".requests")}
    spans_by_request = {}
    for request, span, parent, name, start, end in _rows(
            trace_prefix + ".spans"):
        spans_by_request.setdefault(int(request), {})[int(span)] = (
            name, None if parent == "-1" else int(parent), int(start),
            int(end))
    layer_ns = {}
    request_ns = {}
    for request, spans in spans_by_request.items():
        self_ns = stats.self_times(
            {sid: (p, s, e) for sid, (_, p, s, e) in spans.items()})
        per_layer = {}
        total = 0
        for sid, (name, parent, start, end) in spans.items():
            if parent is None:
                total += end - start
            elif name == COUNT_SPAN:
                total -= end - start
            else:
                per_layer[name] = per_layer.get(name, 0) + self_ns[sid]
        layer_ns[request] = per_layer
        request_ns[request] = total
    counters = {}
    for _, name, value in _rows(trace_prefix + ".counters"):
        counters[name] = counters.get(name, 0) + int(value)
    hits, misses, entries = (int(v) for v in _rows(trace_prefix + ".cache")[0])
    return Replay(ops, layer_ns, request_ns, twin_ns, counters,
                  (hits, misses, entries))


def layer_samples(replays, span, op=None):
    """Per-request self ns of one layer over every replay's requests."""
    samples = []
    for replay in replays:
        for index, layers in replay.layer_ns.items():
            if span in layers and (op is None or replay.ops[index] == op):
                samples.append(layers[span])
    return samples


def overhead_frac(replays):
    """Median over requests of traced / untraced time, minus one.

    Both replays run the same requests in the same order from a fresh
    cache, so request i does the same work in each; the median of the
    paired ratios is robust to one slow outlier in either process.
    """
    ratios = [r.request_ns[i] / r.twin_ns[i] - 1.0
              for r in replays for i in r.request_ns]
    return statistics.median(ratios)


def _table(replays):
    """The per-op layer table: median self ms (request count)."""
    lines = [f"  {'layer':<20}" + "".join(f"{op:>18}" for op in OPS)]
    for span, _, _, _ in LAYER_SPANS:
        cells = []
        for op in OPS:
            samples = layer_samples(replays, span, op)
            cells.append(f"{stats.median(samples) / 1e6:.4f} ({len(samples)})"
                         if samples else "-")
        lines.append(f"  {span:<20}" + "".join(f"{c:>18}" for c in cells))
    return lines


def _verify_shares(replay):
    """Each layer's share of the first verify request's time."""
    index = next(i for i, op in replay.ops.items() if op == "verify")
    total = replay.request_ns[index]
    layers = sorted(replay.layer_ns[index].items(), key=lambda kv: -kv[1])
    return [f"  {name:<20} {ns / 1e6:10.2f} ms {100.0 * ns / total:6.2f} %"
            for name, ns in layers]


def report(replays, phases):
    """Print the layer table; return the per-layer metrics."""
    queries, verify = replays["q"], replays["v"]
    both = (queries, verify)
    metrics = {}
    for span, metric, per_unit, unit in LAYER_SPANS:
        samples = layer_samples(both, span)
        metrics[metric] = (stats.median(samples) / per_unit, unit)
    for name, unit in COUNTERS:
        metrics[name] = (queries.counters.get(name, 0) +
                         verify.counters.get(name, 0), unit)
    hits, misses, entries = queries.cache
    metrics["core.cache_hit_frac"] = (hits / (hits + misses), "ratio")
    metrics["core.cache_entries"] = (entries, "count")

    # Seen from outside: the workload's first daemon session.
    first = phases[0]
    main = first.verdicts("m")
    unattributed = []
    for (_, index, _, sent, recv, _), reason in main:
        if reason is None:
            # Every verify request is the verify replay's request 0.
            own = (verify.request_ns[0] if first.name == "verify"
                   else queries.request_ns[index])
            unattributed.append((recv - sent - own) / 1e6)
    metrics["serve.unattributed_ms"] = (stats.median(unattributed), "ms")
    lateness = [stats.lateness_ns(r[2], r[3]) / 1e6 for r, _ in main]
    metrics["client.lateness_ms"] = (stats.percentile(lateness, 99), "ms")
    metrics["trace.overhead_frac"] = (overhead_frac(both), "ratio")

    refused = sum(1 for p in phases for r in p.records
                  if r[5] is not None and '"code":"overloaded"' in r[5])
    print(f"traced replay of the seed's {len(queries.ops)} queries and "
          f"1 ResNet-18 verify; median self ms per request (requests)")
    for line in _table(both):
        print(line)
    print("verify, by layer share of the request:")
    for line in _verify_shares(verify):
        print(line)
    daemon_cache = first.cache
    print(f"cache: replay {hits} hits / {misses} misses / {entries} entries; "
          f"daemon ({first.name}) {daemon_cache['hits']} / "
          f"{daemon_cache['misses']} / {daemon_cache['entries']}")
    print(f"serve.refused = {refused} count")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>16.4f} {unit}")
    return metrics
