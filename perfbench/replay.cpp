// In-process replay of serve requests for the vwsdk serve benchmark.
//
// Executes request lines the way the `vwsdk serve` daemon does -- parse,
// run the op, serialize, wrap in the envelope -- but through each
// layer's public function instead of the ServiceApi shortcut, one
// request at a time on one ServiceApi pool and mapping cache.  `verify`
// is taken apart into the steps of verify_network (src/sim/verifier.cpp):
// search, plan build, tensor fill, plan validation, crossbar execution,
// reference convolution, and the comparison.
//
// With --trace 1 every such call is a span (name, start, end, parent,
// request), and per-request work counters are recorded; spans stay in
// memory and are written when the replay ends.  With --trace 0 no span
// is recorded: that run is the untraced twin the tracing overhead is
// measured against, and its responses are the benchmark's oracle.
//
// Outputs, for --out PREFIX:
//   PREFIX.responses  index <TAB> response line
//   PREFIX.requests   index <TAB> op <TAB> wall ns of the whole request
//   PREFIX.spans      index span parent name start_ns end_ns   (trace 1)
//   PREFIX.counters   index name value                         (trace 1)
//   PREFIX.cache      cache hits <TAB> misses <TAB> entries at the end
//
// Usage: vwbench_replay --requests FILE --out PREFIX --trace 0|1

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/grouped_conv.h"
#include "core/mapper_registry.h"
#include "core/search_trace.h"
#include "core/serialize.h"
#include "mapping/objective.h"
#include "mapping/plan_builder.h"
#include "mapping/plan_validate.h"
#include "nn/network_spec.h"
#include "pim/array_geometry.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "sim/executor.h"
#include "sim/verifier.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace vwsdk;
using Clock = std::chrono::steady_clock;

/// Spans and counters of one replay, kept in memory until the end.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void begin_request(std::size_t index) { request_ = index; }

  std::size_t open(const char* name) {
    const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    spans_.push_back({request_, parent, name, since_origin(), -1});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t span) {
    spans_[span].end = since_origin();
    stack_.pop_back();
  }

  void count(const char* name, std::int64_t value) {
    counters_.push_back({request_, name, value});
  }

  void write(const std::string& prefix) const {
    std::ofstream spans(prefix + ".spans");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      spans << s.request << '\t' << i << '\t' << s.parent << '\t' << s.name
            << '\t' << s.start << '\t' << s.end << '\n';
    }
    std::ofstream counters(prefix + ".counters");
    for (const CounterRecord& c : counters_) {
      counters << c.request << '\t' << c.name << '\t' << c.value << '\n';
    }
  }

 private:
  struct SpanRecord {
    std::size_t request;
    int parent;
    const char* name;
    std::int64_t start;
    std::int64_t end;
  };
  struct CounterRecord {
    std::size_t request;
    const char* name;
    std::int64_t value;
  };

  std::int64_t since_origin() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::size_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
  std::vector<CounterRecord> counters_;
};

/// Runs requests through the layers' public calls; `tracer` may be null.
class Replayer {
 public:
  explicit Replayer(Tracer* tracer) : tracer_(tracer) {}

  /// One request line in, one response envelope out (never throws, like
  /// the daemon's execute_request).  Sets `op` to the request's op name.
  std::string handle(const std::string& line, std::string& op) {
    op = "invalid";
    ServeRequest request;
    try {
      request = span("serve.parse", [&] { return parse_request(line); });
      op = op_name(request.op);
      const std::string payload = run(request);
      return span("serve.envelope", [&] {
        return ok_response(request.id, request.op, payload);
      });
    } catch (const ProtocolError& e) {
      return error_response(e.id(), e.code(), e.what());
    } catch (const std::exception& e) {
      return error_response(request.id, classify_exception(e), e.what());
    }
  }

  /// The mapping cache's counters, as the daemon's `stats` op reports them.
  ServiceStats stats() const { return api_.stats(); }

 private:
  template <typename Fn>
  auto span(const char* name, Fn&& fn) -> decltype(fn()) {
    if (tracer_ == nullptr) {
      return fn();
    }
    struct Closer {
      Tracer* tracer;
      std::size_t index;
      ~Closer() { tracer->close(index); }
    } closer{tracer_, tracer_->open(name)};
    return fn();
  }

  void count(const char* name, std::int64_t value) {
    if (tracer_ != nullptr) {
      tracer_->count(name, value);
    }
  }

  template <typename Result>
  std::string serialize(const Result& result) {
    std::string payload =
        span("core.serialize", [&] { return to_json(result); });
    count("core.payload_bytes", static_cast<std::int64_t>(payload.size()));
    return payload;
  }

  std::string run(const ServeRequest& request) {
    switch (request.op) {
      case ServeOp::kMap:
        return serialize(map(request.map));
      case ServeOp::kCompare:
        return serialize(compare(request.compare));
      case ServeOp::kChip: {
        const ChipPlan plan = chip(request.chip);
        std::string payload = span("core.serialize", [&] {
          return to_json(plan, request.chip.batch);
        });
        count("core.payload_bytes", static_cast<std::int64_t>(payload.size()));
        return payload;
      }
      case ServeOp::kTraffic:
        return traffic(request.traffic);
      case ServeOp::kVerify:
        return serialize(verify(request.verify));
      default:
        throw std::runtime_error(std::string("the replay does not run op ") +
                                 op_name(request.op));
    }
  }

  NetworkSpec load(const std::string& net) {
    return span("nn.spec_load", [&] { return resolve_network_spec(net); });
  }

  /// The daemon's geometry resolution: the query's own, then the spec's
  /// hint, then 512x512.
  static ArrayGeometry geometry_of(const std::string& requested,
                                   const NetworkSpec& spec) {
    if (!requested.empty()) {
      return parse_geometry(requested);
    }
    return parse_geometry(spec.has_array() ? spec.array : "512x512");
  }

  OptimizerOptions optimizer_options(const std::string& objective) {
    OptimizerOptions options;
    options.pool = &api_.pool();
    options.cache = &api_.cache();
    options.objective = &objective_by_name(objective);
    return options;
  }

  /// Trace-only work counts: cache misses of the search just run, and the
  /// candidates an uncached search of every layer visits.  The extra scan
  /// runs in a `bench.count` span, which the analysis takes out of the
  /// request's time.
  void count_search(const std::vector<std::string>& mappers,
                    const Network& network, const ArrayGeometry& geometry,
                    const std::string& objective, Count misses_before) {
    if (tracer_ == nullptr) {
      return;
    }
    const std::size_t counting = tracer_->open("bench.count");
    count("core.layers_searched", api_.stats().cache_misses - misses_before);
    std::int64_t candidates = 0;
    for (const std::string& name : mappers) {
      const auto mapper = make_mapper(name);
      for (const ConvLayerDesc& layer : network.layers()) {
        GroupedConvShape grouped;
        grouped.base = ConvShape::from_layer(layer);
        grouped.groups = layer.groups;
        SearchTrace trace;
        MappingContext context(grouped.group_shape(), geometry);
        context.objective = &objective_by_name(objective);
        context.trace = &trace;
        mapper->map(context);
        candidates += trace.candidates_visited();
      }
    }
    count("core.search_candidates", candidates);
    tracer_->close(counting);
  }

  NetworkMappingResult map(const MapQuery& query) {
    const NetworkSpec spec = load(query.net);
    const ArrayGeometry geometry = geometry_of(query.array, spec);
    const auto mapper = make_mapper(query.mapper);
    const Count misses = api_.stats().cache_misses;
    NetworkMappingResult result = span("core.search", [&] {
      return optimize_network(*mapper, spec.network, geometry,
                              optimizer_options(query.objective));
    });
    count_search({query.mapper}, spec.network, geometry, query.objective,
                 misses);
    return result;
  }

  NetworkComparison compare(const CompareQuery& query) {
    const NetworkSpec spec = load(query.net);
    const ArrayGeometry geometry = geometry_of(query.array, spec);
    std::vector<std::string> names;
    for (const std::string& requested : query.mappers) {
      names.push_back(MapperRegistry::instance().info(requested).name);
    }
    const Count misses = api_.stats().cache_misses;
    NetworkComparison result = span("core.search", [&] {
      return compare_mappers(names, spec.network, geometry,
                             optimizer_options(query.objective));
    });
    count_search(names, spec.network, geometry, query.objective, misses);
    return result;
  }

  ChipPlan chip(const ChipQuery& query) {
    MapQuery map_query;
    map_query.net = query.net;
    map_query.mapper = query.mapper;
    map_query.array = query.array;
    map_query.objective = query.objective;
    const NetworkMappingResult mapping = map(map_query);
    ChipPlanOptions options;
    options.arrays_per_chip = query.arrays_per_chip;
    options.max_chips = query.max_chips;
    options.objective = &objective_by_name(query.objective);
    ChipPlan plan =
        span("sim.chip_plan", [&] { return plan_chips(mapping, options); });
    if (!plan.feasible) {
      throw Error(plan.infeasible_reason);
    }
    return plan;
  }

  std::string traffic(const TrafficQuery& query) {
    if (!query.trace.empty()) {
      throw std::runtime_error("the replay does not run trace-driven traffic");
    }
    std::vector<ChipPlan> plans;
    for (const std::string& token : split(query.net, ',')) {
      ChipQuery chip_query;
      chip_query.net = trim(token);
      chip_query.mapper = query.mapper;
      chip_query.array = query.array;
      chip_query.objective = query.objective;
      chip_query.arrays_per_chip = query.arrays_per_chip;
      chip_query.max_chips = query.max_chips;
      plans.push_back(chip(chip_query));
    }
    TrafficOptions options;
    options.seed = query.seed;
    options.rate = query.rate;
    options.duration = query.duration;
    options.replicas = query.replicas;
    options.batch_window = query.batch_window;
    options.max_batch = query.max_batch;
    options.max_queue = query.max_queue;
    if (query.slo_p99 > 0) {
      const CapacityResult capacity = span("sim.traffic", [&] {
        return plan_capacity(plans.front(), query.slo_p99, options);
      });
      count("sim.traffic_events", capacity.report.total_arrivals() +
                                      capacity.report.total_completions());
      return serialize(capacity);
    }
    const TrafficReport report = span(
        "sim.traffic", [&] { return simulate_traffic(plans, options); });
    count("sim.traffic_events",
          report.total_arrivals() + report.total_completions());
    return serialize(report);
  }

  /// verify_network, one public call per step.
  NetworkVerifyResult verify(const VerifyQuery& query) {
    const NetworkSpec spec = load(query.net);
    const ArrayGeometry geometry = geometry_of(query.array, spec);
    const auto mapper = make_mapper(query.mapper);
    NetworkVerifyResult result;
    result.network_name = spec.network.name();
    result.algorithm = mapper->name();
    result.backend = resolve_ref_backend(query.ref_backend);
    result.geometry = geometry;
    result.seed = query.seed;
    ExecutionOptions options;
    options.ref_backend = result.backend;
    options.validate_plan = false;  // validate_plan runs as its own step

    const std::vector<ConvLayerDesc>& layers = spec.network.layers();
    std::int64_t candidates = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const ConvLayerDesc& layer = layers[i];
      layer.validate();
      GroupedConvShape grouped;
      grouped.base = ConvShape::from_layer(layer);
      grouped.groups = layer.groups;
      grouped.validate();
      const ConvShape shape = grouped.group_shape();
      LayerVerification lv;
      lv.layer = layer;
      lv.decision =
          span("core.search", [&] { return mapper->map(shape, geometry); });
      const MappingPlan plan = span("mapping.plan_build", [&] {
        return build_plan_for_cost(shape, geometry, lv.decision.cost);
      });

      // verify_mapping_random: seeded integer tensors of magnitude 4.
      Tensord ifm;
      Tensord weights;
      span("tensor.fill", [&] {
        Rng rng(query.seed + i);
        ifm = Tensord::feature_map(shape.in_channels, shape.ifm_h,
                                   shape.ifm_w);
        weights = Tensord::weights(shape.out_channels, shape.in_channels,
                                   shape.kernel_h, shape.kernel_w);
        fill_random_int(ifm, rng, 4);
        fill_random_int(weights, rng, 4);
      });
      const std::vector<std::string> problems =
          span("mapping.validate", [&] { return validate_plan(plan); });
      if (!problems.empty()) {
        throw Error("invalid plan: " + problems.front());
      }
      const ExecutionResult executed = span("sim.execute", [&] {
        return execute_plan(plan, ifm, weights, options);
      });
      const Tensord reference = span("tensor.ref_conv", [&] {
        return reference_convolution(plan, ifm, weights, options);
      });
      lv.report = span("sim.compare", [&] {
        return verify_execution(plan, executed, reference);
      });
      if (tracer_ != nullptr) {
        const std::size_t counting = tracer_->open("bench.count");
        SearchTrace trace;
        MappingContext context(shape, geometry);
        context.trace = &trace;
        mapper->map(context);
        candidates += trace.candidates_visited();
        count("mapping.plan_cells", plan.programmed_cells());
        count("sim.cycles", executed.cycles);
        count("sim.arrays_used", executed.arrays_used);
        count("tensor.ref_macs", shape.num_windows() * shape.kernel_volume() *
                                     shape.out_channels);
        tracer_->close(counting);
      }
      result.layers.push_back(std::move(lv));
    }
    count("core.layers_searched", static_cast<std::int64_t>(layers.size()));
    count("core.search_candidates", candidates);
    return result;
  }

  Tracer* tracer_;
  ServiceApi api_;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

int run(int argc, char** argv) {
  std::string requests;
  std::string prefix;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--requests") requests = argv[i + 1];
    else if (flag == "--out") prefix = argv[i + 1];
    else if (flag == "--trace") trace = std::stoi(argv[i + 1]);
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (requests.empty() || prefix.empty() || (trace != 0 && trace != 1) ||
      argc % 2 == 0) {
    throw std::runtime_error(
        "usage: vwbench_replay --requests FILE --out PREFIX --trace 0|1");
  }

  const std::vector<std::string> lines = read_lines(requests);
  const Clock::time_point origin = Clock::now();
  std::unique_ptr<Tracer> tracer;
  if (trace == 1) {
    tracer = std::make_unique<Tracer>(origin);
  }
  Replayer replayer(tracer.get());
  std::ofstream responses(prefix + ".responses");
  std::ofstream walls(prefix + ".requests");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string op;
    std::string response;
    if (tracer) {
      tracer->begin_request(i);
    }
    const Clock::time_point start = Clock::now();
    {
      const std::size_t root = tracer ? tracer->open("request") : 0;
      response = replayer.handle(lines[i], op);
      if (tracer) {
        tracer->close(root);
      }
    }
    const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - start)
                          .count();
    responses << i << '\t' << response << '\n';
    walls << i << '\t' << op << '\t' << wall << '\n';
  }
  if (tracer) {
    tracer->write(prefix);
  }
  const ServiceStats stats = replayer.stats();
  std::ofstream cache(prefix + ".cache");
  cache << stats.cache_hits << '\t' << stats.cache_misses << '\t'
        << stats.cache_entries << '\n';
  return responses && walls && cache ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "vwbench_replay: " << e.what() << '\n';
    return 1;
  }
}
