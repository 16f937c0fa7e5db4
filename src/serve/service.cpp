#include "serve/service.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/string_util.h"
#include "core/mapper_registry.h"
#include "mapping/objective.h"
#include "nn/network_spec.h"
#include "pim/array_geometry.h"

namespace vwsdk {

namespace {

constexpr const char* kDefaultArray = "512x512";

/// The geometry a query runs on: its own `array`, then the spec's hint,
/// then the library default -- the same resolution order as the CLI's
/// --array flag (docs/CLI.md).
ArrayGeometry resolve_query_geometry(const std::string& requested,
                                     const NetworkSpec& spec) {
  std::string text = requested;
  if (text.empty()) {
    text = spec.has_array() ? spec.array : kDefaultArray;
  }
  return parse_geometry(text);
}

NetworkSpec resolve_query_net(const std::string& net) {
  VWSDK_REQUIRE(!net.empty(),
                "query names no net (model-zoo name or spec file)");
  return resolve_network_spec(net);
}

}  // namespace

std::string cache_stats_fragment(const ServiceStats& stats) {
  return cat("cache ", stats.cache_hits, " hit(s) / ", stats.cache_misses,
             " miss(es), ", stats.cache_entries, " distinct search(es)");
}

std::string stats_line(const ServiceStats& stats) {
  return cat("stats: ", cache_stats_fragment(stats), "; ", stats.threads,
             " thread(s)");
}

ServiceApi::ServiceApi(int threads, int max_inflight, int max_queue)
    : pool_(threads, max_inflight, max_queue) {}

NetworkMappingResult ServiceApi::map(const MapQuery& query) {
  const NetworkSpec spec = resolve_query_net(query.net);
  const ArrayGeometry geometry = resolve_query_geometry(query.array, spec);
  const auto mapper = make_mapper(query.mapper);
  OptimizerOptions options;
  options.pool = &pool_;
  options.cache = &cache_;
  options.objective = &objective_by_name(query.objective);
  return optimize_network(*mapper, spec.network, geometry, options);
}

NetworkComparison ServiceApi::compare(const CompareQuery& query) {
  const NetworkSpec spec = resolve_query_net(query.net);
  const ArrayGeometry geometry = resolve_query_geometry(query.array, spec);
  const MapperRegistry& registry = MapperRegistry::instance();
  std::vector<std::string> names;
  names.reserve(query.mappers.size());
  for (const std::string& requested : query.mappers) {
    // Canonicalize through the registry (validates now, fails with the
    // bad name) so an alias duplicate like "vw-sdk,vwsdk" is caught.
    const std::string canonical = registry.info(requested).name;
    VWSDK_REQUIRE(std::find(names.begin(), names.end(), canonical) ==
                      names.end(),
                  cat("mappers list \"", canonical, "\" twice"));
    names.push_back(canonical);
  }
  VWSDK_REQUIRE(!names.empty(), "query names no mapper");
  OptimizerOptions options;
  options.pool = &pool_;
  options.cache = &cache_;
  options.objective = &objective_by_name(query.objective);
  return compare_mappers(names, spec.network, geometry, options);
}

ChipResult ServiceApi::chip(const ChipQuery& query) {
  VWSDK_REQUIRE(query.arrays_per_chip >= 1,
                cat("chip needs arrays >= 1 (got ", query.arrays_per_chip,
                    ")"));
  VWSDK_REQUIRE(query.max_chips >= 0,
                cat("chips must be >= 0 (got ", query.max_chips, ")"));
  // A billion streamed inferences is far beyond any plausible run and
  // keeps (batch-1) * interval clear of Cycles overflow.
  VWSDK_REQUIRE(query.batch >= 1 && query.batch <= 1000000000,
                cat("batch must be in [1, 1000000000] (got ", query.batch,
                    ")"));
  MapQuery map_query;
  map_query.net = query.net;
  map_query.mapper = query.mapper;
  map_query.array = query.array;
  map_query.objective = query.objective;
  ChipResult result;
  result.mapping = map(map_query);

  ChipPlanOptions plan_options;
  plan_options.arrays_per_chip = query.arrays_per_chip;
  plan_options.max_chips = query.max_chips;
  plan_options.objective = &objective_by_name(query.objective);
  result.plan = plan_chips(result.mapping, plan_options);
  if (!result.plan.feasible) {
    // An explicit planning failure, not a zeroed report: the CLI turns
    // this into its exit-1 contract, serve into a `runtime` error
    // response (JSON consumers wanting the infeasible plan object call
    // the library's plan_chips + to_json directly).
    throw Error(result.plan.infeasible_reason);
  }
  return result;
}

TrafficResult ServiceApi::traffic(const TrafficQuery& query) {
  VWSDK_REQUIRE(query.arrays_per_chip >= 1,
                cat("traffic needs arrays >= 1 (got ", query.arrays_per_chip,
                    ")"));
  VWSDK_REQUIRE(query.max_chips >= 0,
                cat("chips must be >= 0 (got ", query.max_chips, ")"));
  VWSDK_REQUIRE(query.replicas >= 1 && query.replicas <= 100000,
                cat("replicas must be in [1, 100000] (got ", query.replicas,
                    ")"));
  VWSDK_REQUIRE(std::isfinite(query.rate) && query.rate >= 0.0 &&
                    query.rate <= 1.0e9,
                "rate must be in [0, 1e9] requests per 1e6 cycles");
  VWSDK_REQUIRE(query.duration >= 1 && query.duration <= 1000000000000,
                cat("duration must be in [1, 1e12] cycles (got ",
                    query.duration, ")"));
  VWSDK_REQUIRE(query.batch_window >= 0 &&
                    query.batch_window <= 1000000000000,
                cat("window must be in [0, 1e12] cycles (got ",
                    query.batch_window, ")"));
  VWSDK_REQUIRE(query.max_batch >= 1 && query.max_batch <= 1000000000,
                cat("max_batch must be in [1, 1000000000] (got ",
                    query.max_batch, ")"));
  VWSDK_REQUIRE(query.max_queue >= 0 && query.max_queue <= 1000000000,
                cat("max_queue must be in [0, 1000000000] (got ",
                    query.max_queue, ")"));
  VWSDK_REQUIRE(query.slo_p99 >= 0 && query.slo_p99 <= 1000000000000,
                cat("slo_p99 must be in [0, 1e12] cycles (got ",
                    query.slo_p99, ")"));
  if (query.trace.empty()) {
    VWSDK_REQUIRE(query.rate > 0.0,
                  "traffic needs an arrival source: a rate > 0 or a trace");
  } else {
    VWSDK_REQUIRE(query.rate == 0.0,
                  "rate and trace are exclusive arrival sources; pick one");
    VWSDK_REQUIRE(query.slo_p99 == 0,
                  "slo_p99 capacity planning needs a rate, not a trace");
  }

  // One mapped + chip-planned pipeline per comma-separated network, all
  // through the shared cache; any infeasible plan throws like chip().
  std::vector<std::string> requested;
  for (const std::string& token : split(query.net, ',')) {
    const std::string name = trim(token);
    VWSDK_REQUIRE(!name.empty(),
                  "net lists an empty name (check the comma-separated list)");
    requested.push_back(name);
  }
  VWSDK_REQUIRE(!requested.empty(),
                "query names no net (model-zoo name or spec file)");
  VWSDK_REQUIRE(query.slo_p99 == 0 || requested.size() == 1,
                "slo_p99 capacity planning takes exactly one network");

  TrafficResult result;
  for (const std::string& name : requested) {
    ChipQuery chip_query;
    chip_query.net = name;
    chip_query.mapper = query.mapper;
    chip_query.array = query.array;
    chip_query.objective = query.objective;
    chip_query.arrays_per_chip = query.arrays_per_chip;
    chip_query.max_chips = query.max_chips;
    result.plans.push_back(chip(chip_query).plan);
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
    result.capacity_mode = true;
    result.capacity = plan_capacity(result.plans.front(), query.slo_p99,
                                    options);
    result.report = result.capacity.report;
    return result;
  }
  if (!query.trace.empty()) {
    ArrivalTrace trace = load_arrival_trace(query.trace);
    // Accept either the name the query used (zoo alias or spec path) or
    // the plan's own display name in the trace's `net` column.
    for (Arrival& arrival : trace.arrivals) {
      for (std::size_t n = 0; n < requested.size(); ++n) {
        if (arrival.net == requested[n]) {
          arrival.net = result.plans[n].network_name;
          break;
        }
      }
    }
    result.report = simulate_trace(result.plans, trace, options);
    return result;
  }
  result.report = simulate_traffic(result.plans, options);
  return result;
}

NetworkVerifyResult ServiceApi::verify(const VerifyQuery& query) {
  const NetworkSpec spec = resolve_query_net(query.net);
  const ArrayGeometry geometry = resolve_query_geometry(query.array, spec);
  const auto mapper = make_mapper(query.mapper);
  ExecutionOptions options;
  // Resolve now: an unknown backend is a usage error before any layer
  // runs (throws NotFound listing the registered names).
  options.ref_backend = resolve_ref_backend(query.ref_backend);
  // The crossbar execution and the reference convolution share the
  // search's pool (and --threads).
  options.pool = &pool_;
  return verify_network(spec.network, *mapper, geometry, query.seed,
                        options);
}

ServiceStats ServiceApi::stats() const {
  // One MappingCache::stats() call: hits/misses/entries come from a
  // single lock acquisition, so the snapshot is internally consistent
  // even while requests are landing (a separate size() call could see
  // an entry the counter read did not).
  const MappingCacheStats cache_stats = cache_.stats();
  ServiceStats stats;
  stats.cache_hits = cache_stats.hits;
  stats.cache_misses = cache_stats.misses;
  stats.cache_entries = cache_stats.entries;
  stats.threads = pool_.size();
  return stats;
}

}  // namespace vwsdk
