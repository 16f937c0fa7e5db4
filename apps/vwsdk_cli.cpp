/// The `vwsdk` command-line tool: run the paper's mapping algorithms over
/// arbitrary networks -- model-zoo names or network-spec files (JSON/CSV,
/// docs/FORMATS.md) -- on arbitrary array geometries, without recompiling.
///
///   vwsdk map --net vgg16
///   vwsdk compare --net resnet18 --array 256x256
///   vwsdk sweep --nets vgg13,resnet18 --arrays paper --format csv
///   vwsdk zoo --export vgg16 > vgg16.json
///   vwsdk serve --max-inflight 8
///
/// Every subcommand is a thin shell over serve/service.h's ServiceApi:
/// flags become a query, the service answers it, and the shell picks the
/// rendering -- which is why `vwsdk serve` (the NDJSON daemon over the
/// same service) returns byte-identical payloads to the one-shot
/// `--format json` invocations.
///
/// Subcommand reference (flags, exit codes, sample output): docs/CLI.md.
/// The global --help text below is diffed verbatim against that page by
/// the `cli.help_matches_doc` ctest, so edit both together.

#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "vwsdk.h"

namespace {

using namespace vwsdk;

/// Write through `path` ("-" = stdout); throws on an unopenable path.
void with_output(const std::string& path,
                 const std::function<void(std::ostream&)>& write) {
  if (path == "-") {
    write(std::cout);
    return;
  }
  std::ofstream os(path);
  VWSDK_REQUIRE(os.good(), cat("cannot open output file \"", path, "\""));
  write(os);
  os.flush();
  if (!os.good()) {
    throw Error(cat("failed writing output file \"", path, "\""));
  }
}

/// Shared options of the network-running subcommands.
void add_net_options(ArgParser& args) {
  args.add_option("array", "",
                  "PIM array geometry RxC (default: the spec's array, "
                  "else 512x512)");
  add_objective_option(args);
  args.add_int_option("threads", 0,
                      "worker threads (0 = VWSDK_THREADS, then hardware)");
  args.add_option("out", "-", "output path, '-' = stdout");
  args.add_flag("stats", "print pool/cache statistics to stderr");
}

/// The one ServiceApi behind a one-shot subcommand run.
ServiceApi service_from_args(const ArgParser& args) {
  // Bounded so --threads 4294967296 fails instead of wrapping to 0
  // (which silently means "auto-detect").
  return ServiceApi(static_cast<int>(
      int_in_range(args, "threads", 0, std::numeric_limits<int>::max())));
}

/// The `--stats` stderr line, printed after the subcommand's output so
/// scripts capturing stdout stay unaffected.
void maybe_print_stats(const ArgParser& args, const ServiceApi& api) {
  if (args.get_flag("stats")) {
    std::cerr << stats_line(api.stats()) << "\n";
  }
}

void require_no_positional(const ArgParser& args) {
  VWSDK_REQUIRE(args.positional().empty(),
                cat("unexpected positional argument \"",
                    args.positional().front(), "\""));
}

std::string format_from_args(const ArgParser& args,
                             const std::vector<std::string>& allowed) {
  const std::string format = to_lower(args.get("format"));
  for (const std::string& candidate : allowed) {
    if (format == candidate) {
      return format;
    }
  }
  throw InvalidArgument(cat("unknown --format \"", args.get("format"),
                            "\" (expected ", join(allowed, ", "), ")"));
}

/// Per-layer table of one result (the `map` view).  Under a non-cycles
/// objective the score column appears after the cycles; the default
/// cycles view is unchanged.
TextTable result_table(const NetworkMappingResult& result) {
  const bool scored = result.objective != cycles_objective().name();
  const std::string unit = objective_by_name(result.objective).unit();
  std::vector<std::string> headers{"#", "layer", "image",
                                   "kernel (KxKxICxOC)", "groups",
                                   "mapping (PWxICtxOCt)", "#PW", "cycles"};
  if (scored) {
    headers.push_back(cat(result.objective, " (", unit, ")"));
  }
  TextTable table(headers);
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const LayerMapping& lm = result.layers[i];
    const ConvLayerDesc& layer = lm.layer;
    std::vector<std::string> row{
        std::to_string(i + 1), layer.name,
        cat(layer.ifm_w, "x", layer.ifm_h),
        cat(layer.kernel_w, "x", layer.kernel_h, "x", layer.in_channels,
            "x", layer.out_channels),
        std::to_string(layer.groups), lm.decision.table_entry(),
        std::to_string(lm.decision.cost.n_parallel_windows),
        std::to_string(lm.cycles())};
    if (scored) {
      row.push_back(format_fixed(lm.score(), 1));
    }
    table.add_row(std::move(row));
  }
  table.add_separator();
  std::vector<std::string> total{"", "total", "", "", "", "", "",
                                 std::to_string(result.total_cycles())};
  if (scored) {
    total.push_back(format_fixed(result.total_score(), 1));
  }
  table.add_row(std::move(total));
  return table;
}

int run_map(int argc, const char* const* argv) {
  ArgParser args("vwsdk map",
                 "map every layer of a network with one algorithm");
  args.add_option("net", "", "model-zoo name or spec file (required)");
  args.add_option("mapper", "vw-sdk",
                  cat("mapping algorithm (",
                      MapperRegistry::instance().known_names(), ")"));
  args.add_option("format", "table", "output format: table, csv, or json");
  add_net_options(args);
  if (!args.parse(argc, argv)) {
    return kExitOk;
  }
  require_no_positional(args);
  VWSDK_REQUIRE(!args.get("net").empty(), "--net is required");
  const std::string format =
      format_from_args(args, {"table", "csv", "json"});

  MapQuery query;
  query.net = args.get("net");
  query.mapper = args.get("mapper");
  query.array = args.get("array");
  query.objective = args.get("objective");
  ServiceApi api = service_from_args(args);
  const NetworkMappingResult result = api.map(query);

  with_output(args.get("out"), [&](std::ostream& os) {
    if (format == "csv") {
      write_result_csv(os, result);
    } else if (format == "json") {
      os << to_json(result) << "\n";
    } else {
      os << "network: " << result.network_name << " ("
         << result.layers.size() << " layers)\narray: "
         << result.geometry.to_string() << "   algorithm: "
         << result.algorithm;
      if (result.objective != cycles_objective().name()) {
        os << "   objective: " << result.objective;
      }
      os << "\n\n" << result_table(result);
    }
  });
  maybe_print_stats(args, api);
  return kExitOk;
}

int run_compare(int argc, const char* const* argv) {
  ArgParser args("vwsdk compare",
                 "run several algorithms on one network side by side");
  args.add_option("net", "", "model-zoo name or spec file (required)");
  add_mappers_option(args);
  args.add_option("format", "table", "output format: table, csv, or json");
  args.add_option("report", "all",
                  "table views: table1, speedups, util, or all "
                  "(format=table only)");
  add_net_options(args);
  if (!args.parse(argc, argv)) {
    return kExitOk;
  }
  require_no_positional(args);
  VWSDK_REQUIRE(!args.get("net").empty(), "--net is required");
  const std::string format =
      format_from_args(args, {"table", "csv", "json"});
  const std::string report = to_lower(args.get("report"));
  VWSDK_REQUIRE(report == "all" || report == "table1" ||
                    report == "speedups" || report == "util",
                cat("unknown --report \"", args.get("report"), "\""));

  const std::vector<std::string> mappers = mappers_from_args(args);
  // Usage errors must fire before the (possibly long) optimization runs
  // and before --out is opened; a late throw would leave a partial file.
  VWSDK_REQUIRE(format != "table" ||
                    (report != "table1" && report != "all") ||
                    mappers.size() >= 2,
                "--report table1 needs at least two mappers");

  CompareQuery query;
  query.net = args.get("net");
  query.mappers = mappers;
  query.array = args.get("array");
  query.objective = args.get("objective");
  ServiceApi api = service_from_args(args);
  const NetworkComparison cmp = api.compare(query);

  with_output(args.get("out"), [&](std::ostream& os) {
    if (format == "csv") {
      write_comparison_csv(os, cmp);
      return;
    }
    if (format == "json") {
      os << to_json(cmp) << "\n";
      return;
    }
    os << "network: " << cmp.results.front().network_name << " ("
       << cmp.results.front().layers.size() << " layers)\narray: "
       << cmp.results.front().geometry.to_string() << "   algorithms: "
       << join(mappers, ", ");
    if (cmp.results.front().objective != cycles_objective().name()) {
      os << "   objective: " << cmp.results.front().objective;
    }
    os << "\n";
    if (report == "all" || report == "table1") {
      const std::size_t n = cmp.results.size();
      os << "\nTable-I-style mapping (" << cmp.results[n - 2].algorithm
         << " vs " << cmp.results[n - 1].algorithm << "):\n"
         << render_table1(cmp.results[n - 2], cmp.results[n - 1]);
    }
    if (report == "all" || report == "speedups") {
      os << "\nPer-layer speedups vs " << cmp.results.front().algorithm
         << ":\n"
         << render_layer_speedups(cmp);
    }
    if (report == "all" || report == "util") {
      os << "\nUtilization (steady-state convention):\n"
         << render_utilization(cmp, UtilizationConvention::kSteadyState);
    }
  });
  maybe_print_stats(args, api);
  return kExitOk;
}

int run_sweep(int argc, const char* const* argv) {
  ArgParser args("vwsdk sweep",
                 "cross-product of networks x arrays x algorithms");
  args.add_option("nets", "vgg13,resnet18",
                  "comma-separated zoo names / spec files");
  args.add_option("arrays", "paper",
                  "comma-separated RxC list, or 'paper' for the paper's "
                  "five sizes");
  add_mappers_option(args);
  args.add_option("format", "table", "output format: table, csv, or json");
  add_objective_option(args);
  args.add_int_option("threads", 0,
                      "worker threads (0 = VWSDK_THREADS, then hardware)");
  args.add_option("out", "-", "output path, '-' = stdout");
  args.add_flag("stats", "print pool/cache statistics to stderr");
  if (!args.parse(argc, argv)) {
    return kExitOk;
  }
  require_no_positional(args);
  const std::string format =
      format_from_args(args, {"table", "csv", "json"});
  const std::vector<std::string> mappers = mappers_from_args(args);

  std::vector<NetworkSpec> specs;
  for (const std::string& part : split(args.get("nets"), ',')) {
    const std::string name = trim(part);
    if (!name.empty()) {
      specs.push_back(resolve_network_spec(name));
    }
  }
  VWSDK_REQUIRE(!specs.empty(), "--nets names no network");

  std::vector<ArrayGeometry> geometries;
  if (to_lower(trim(args.get("arrays"))) == "paper") {
    geometries = paper_geometries();
  } else {
    for (const std::string& part : split(args.get("arrays"), ',')) {
      const std::string text = trim(part);
      if (!text.empty()) {
        geometries.push_back(parse_geometry(text));
      }
    }
  }
  VWSDK_REQUIRE(!geometries.empty(), "--arrays names no geometry");

  // The service's pool and single-flight cache span the whole
  // cross-product: each (net, array) point fans its layers out across
  // the shared pool, and repeated (mapper, shape, array) searches --
  // common when networks share layer shapes -- are deduplicated across
  // points.
  ServiceApi api = service_from_args(args);
  OptimizerOptions options;
  options.pool = &api.pool();
  options.cache = &api.cache();
  options.objective = &objective_from_args(args);

  std::vector<NetworkComparison> sweep;
  sweep.reserve(specs.size() * geometries.size());
  for (const NetworkSpec& spec : specs) {
    for (const ArrayGeometry& geometry : geometries) {
      sweep.push_back(
          compare_mappers(mappers, spec.network, geometry, options));
    }
  }

  with_output(args.get("out"), [&](std::ostream& os) {
    if (format == "csv") {
      write_sweep_csv(os, sweep);
      return;
    }
    if (format == "json") {
      os << "[";
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        os << (i == 0 ? "" : ",") << to_json(sweep[i]);
      }
      os << "]\n";
      return;
    }
    std::vector<std::string> headers{"network", "array"};
    for (const std::string& mapper : mappers) {
      headers.push_back(cat(mapper, " cycles"));
    }
    headers.push_back(cat(mappers.back(), " speedup"));
    TextTable table(headers);
    for (const NetworkComparison& cmp : sweep) {
      std::vector<std::string> row{cmp.results.front().network_name,
                                   cmp.results.front().geometry.to_string()};
      for (const NetworkMappingResult& result : cmp.results) {
        row.push_back(std::to_string(result.total_cycles()));
      }
      row.push_back(format_fixed(
          cmp.speedup(0, static_cast<Count>(cmp.results.size() - 1)), 2));
      table.add_row(std::move(row));
    }
    os << table;
  });

  if (args.get_flag("stats")) {
    std::cerr << "sweep: " << specs.size() << " network(s) x "
              << geometries.size() << " array(s) x " << mappers.size()
              << " mapper(s), " << api.pool().size() << " thread(s); "
              << cache_stats_fragment(api.stats()) << "\n";
  }
  return kExitOk;
}

/// The chip plan's table rendering.  The score column appears only for
/// non-cycles objectives (under cycles the score IS the makespan), the
/// same convention as `map`'s table.
TextTable chip_table(const ChipPlan& plan) {
  const bool scored = plan.objective != cycles_objective().name();
  std::vector<std::string> headers{"chip",  "layer",         "groups",
                                   "tiles", "arrays",        "serial",
                                   "makespan"};
  if (scored) {
    headers.push_back(
        cat(plan.objective, " (",
            objective_by_name(plan.objective).unit(), ")"));
  }
  TextTable table(headers);
  for (std::size_t chip = 0; chip < plan.chips.size(); ++chip) {
    for (const LayerAllocation& layer : plan.chips[chip].layers) {
      std::vector<std::string> row{
          std::to_string(chip + 1), layer.layer_name,
          std::to_string(layer.groups), std::to_string(layer.tiles),
          std::to_string(layer.arrays),
          std::to_string(layer.serial_cycles),
          std::to_string(layer.makespan)};
      if (scored) {
        row.push_back(format_fixed(layer.score, 1));
      }
      table.add_row(std::move(row));
    }
    if (chip + 1 < plan.chips.size()) {
      table.add_separator();
    }
  }
  return table;
}

int run_chip(int argc, const char* const* argv) {
  ArgParser args("vwsdk chip",
                 "pipeline one network across one or more PIM chips");
  args.add_option("net", "",
                  "model-zoo name or spec file (required; --network is an "
                  "alias)");
  args.add_option("network", "", "alias for --net");
  args.add_option("mapper", "vw-sdk",
                  cat("mapping algorithm (",
                      MapperRegistry::instance().known_names(), ")"));
  args.add_int_option("arrays", 0,
                      "crossbar arrays per chip (required, >= 1)");
  args.add_int_option("chips", 0,
                      "chip budget (0 = as many as the demand needs)");
  args.add_int_option("batch", 1,
                      "inferences streamed through the pipeline");
  args.add_option("format", "table", "output format: table, csv, or json");
  add_net_options(args);
  if (!args.parse(argc, argv)) {
    return kExitOk;
  }
  require_no_positional(args);
  VWSDK_REQUIRE(args.get("net").empty() || args.get("network").empty(),
                "give --net or --network, not both");
  const std::string net =
      args.get("net").empty() ? args.get("network") : args.get("net");
  VWSDK_REQUIRE(!net.empty(), "--net is required");
  const std::string format =
      format_from_args(args, {"table", "csv", "json"});
  constexpr long long kDimMax = std::numeric_limits<Dim>::max();

  ChipQuery query;
  query.net = net;
  query.mapper = args.get("mapper");
  query.array = args.get("array");
  query.objective = args.get("objective");
  // Validate against the flag names here so usage errors read
  // "--arrays must be >= 1", then let the service re-check its own
  // preconditions (the serve daemon relies on those).
  query.arrays_per_chip =
      static_cast<Dim>(int_in_range(args, "arrays", 1, kDimMax));
  query.max_chips =
      static_cast<Dim>(int_in_range(args, "chips", 0, kDimMax));
  // A billion streamed inferences is far beyond any plausible run and
  // keeps (batch-1) * interval clear of Cycles overflow, so oversize
  // values fail here naming the flag instead of deep in checked_mul.
  query.batch = int_in_range(args, "batch", 1, 1000000000);
  ServiceApi api = service_from_args(args);
  const ChipResult chip = api.chip(query);
  const ChipPlan& plan = chip.plan;
  const Count batch = query.batch;

  with_output(args.get("out"), [&](std::ostream& os) {
    if (format == "csv") {
      write_chip_csv(os, plan);
    } else if (format == "json") {
      os << to_json(plan, batch) << "\n";
    } else {
      os << "network: " << chip.mapping.network_name << " ("
         << chip.mapping.layers.size() << " layers)\narray: "
         << chip.mapping.geometry.to_string() << "   algorithm: "
         << plan.algorithm;
      if (plan.objective != cycles_objective().name()) {
        os << "   objective: " << plan.objective;
      }
      os << "\nchips: " << plan.chips.size() << " x " << plan.arrays_per_chip
         << " arrays (" << plan.arrays_used() << " used, resident demand "
         << resident_array_demand(chip.mapping) << ")\ninterval: "
         << plan.interval() << " cycles   fill latency: "
         << plan.fill_latency() << " cycles\nspeedup: "
         << format_fixed(plan.speedup(), 2)
         << "x vs one array   balance: "
         << format_fixed(plan.balance(), 2) << "\nbatch " << batch << ": "
         << plan.batch_cycles(batch) << " cycles ("
         << format_fixed(static_cast<double>(plan.batch_cycles(batch)) /
                             static_cast<double>(batch),
                         1)
         << " cycles/inference)\n\n"
         << chip_table(plan);
    }
  });
  maybe_print_stats(args, api);
  return kExitOk;
}

/// Per-chip table of one network's traffic (the `traffic` view).
TextTable traffic_table(const NetworkTraffic& net) {
  TextTable table({"replica", "chip", "busy", "utilization", "queue peak",
                   "batches"});
  for (const ChipTraffic& chip : net.chips) {
    table.add_row({std::to_string(chip.replica), std::to_string(chip.chip),
                   with_thousands(chip.busy),
                   format_fixed(chip.utilization, 4),
                   std::to_string(chip.queue_peak),
                   std::to_string(chip.batches)});
  }
  return table;
}

void print_traffic_report(std::ostream& os, const TrafficReport& report) {
  os << "traffic: " << report.source << " arrivals";
  if (report.source == "poisson") {
    os << ", rate " << format_fixed(report.rate, 4) << "/Mcycle, seed "
       << report.seed;
  }
  os << ", " << with_thousands(report.duration)
     << " cycles simulated\nbatching: window " << report.batch_window
     << " cycles, max batch " << report.max_batch << ", queue ";
  if (report.max_queue > 0) {
    os << "bound " << report.max_queue << "\n";
  } else {
    os << "unbounded\n";
  }
  for (const NetworkTraffic& net : report.networks) {
    os << "\nnetwork: " << net.network << "   " << net.replicas
       << " replica(s) x " << net.chips_per_replica << " chip(s) x "
       << net.arrays_per_chip << " arrays (" << net.array << ", "
       << net.algorithm << ")\ninterval: " << net.interval
       << " cycles   fill latency: " << net.fill_latency
       << " cycles\noffered: " << format_fixed(net.offered, 2)
       << "/Mcycle   sustained: " << format_fixed(net.sustained, 2)
       << "/Mcycle   capacity: " << format_fixed(net.capacity, 2)
       << "/Mcycle\narrivals: " << net.arrivals << "   completions: "
       << net.completions << "   in flight: " << net.in_flight
       << "   rejected: " << net.rejected << "\nlatency: p50 "
       << with_thousands(net.p50) << "   p95 " << with_thousands(net.p95)
       << "   p99 " << with_thousands(net.p99) << "   p99.9 "
       << with_thousands(net.p999) << "   (min "
       << with_thousands(net.latency_min) << ", max "
       << with_thousands(net.latency_max) << ")\nmean: latency "
       << format_fixed(net.mean_latency, 1) << "   wait "
       << format_fixed(net.mean_wait, 1) << "   batch "
       << format_fixed(net.mean_batch, 2) << "\n\n" << traffic_table(net);
  }
}

void print_capacity(std::ostream& os, const CapacityResult& capacity) {
  os << "capacity: smallest farm with p99 <= "
     << with_thousands(capacity.slo_p99) << " cycles at rate "
     << format_fixed(capacity.rate, 4) << "/Mcycle\nanswer: "
     << capacity.replicas << " replica(s) = " << capacity.chips
     << " chip(s), simulated p99 " << with_thousands(capacity.p99)
     << " cycles\n";
  if (capacity.lower_replicas > 0) {
    os << "proof: " << capacity.lower_replicas
       << " replica(s) fail the SLO (p99 "
       << with_thousands(capacity.lower_p99) << " cycles)\n\n";
  } else {
    os << "proof: a farm needs at least one replica\n\n";
  }
  print_traffic_report(os, capacity.report);
}

/// --rate is the CLI's one floating-point flag; ArgParser stores
/// strings, so parse and validate here (full consumption, finite, >= 0).
double parse_rate(const std::string& text) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (text.empty() || consumed != text.size() || !std::isfinite(value) ||
      value < 0.0) {
    throw InvalidArgument(cat("--rate must be a finite number >= 0 (got \"",
                              text, "\")"));
  }
  return value;
}

int run_traffic(int argc, const char* const* argv) {
  ArgParser args("vwsdk traffic",
                 "simulate request traffic against pipelined chip farms");
  args.add_option("net", "",
                  "comma-separated model-zoo names or spec files (required)");
  args.add_option("mapper", "vw-sdk",
                  cat("mapping algorithm (",
                      MapperRegistry::instance().known_names(), ")"));
  args.add_int_option("arrays", 0,
                      "crossbar arrays per chip (required, >= 1)");
  args.add_int_option("chips", 0,
                      "chip budget per network (0 = as many as the demand "
                      "needs)");
  args.add_int_option("replicas", 1, "pipeline replicas per network");
  args.add_option("rate", "0",
                  "Poisson arrivals per network per 1e6 cycles");
  args.add_int_option("duration", 10000000,
                      "simulated horizon in cycles (Poisson mode)");
  args.add_int_option("seed", 42, "arrival-stream seed");
  args.add_int_option("window", 0, "cycles a replica holds a batch open");
  args.add_int_option("max-batch", 1,
                      "largest batch a replica serves at once");
  args.add_int_option("max-queue", 0,
                      "per-replica queue bound (0 = unbounded)");
  args.add_option("trace", "",
                  "arrival-trace file, CSV or JSON (replaces --rate)");
  args.add_int_option("slo-p99", 0,
                      "capacity mode: smallest chip count with p99 <= this");
  args.add_option("format", "table", "output format: table, csv, or json");
  add_net_options(args);
  if (!args.parse(argc, argv)) {
    return kExitOk;
  }
  require_no_positional(args);
  VWSDK_REQUIRE(!args.get("net").empty(), "--net is required");
  const std::string format =
      format_from_args(args, {"table", "csv", "json"});
  constexpr long long kDimMax = std::numeric_limits<Dim>::max();

  TrafficQuery query;
  query.net = args.get("net");
  query.mapper = args.get("mapper");
  query.array = args.get("array");
  query.objective = args.get("objective");
  query.arrays_per_chip =
      static_cast<Dim>(int_in_range(args, "arrays", 1, kDimMax));
  query.max_chips =
      static_cast<Dim>(int_in_range(args, "chips", 0, kDimMax));
  query.replicas = int_in_range(args, "replicas", 1, 100000);
  query.rate = parse_rate(args.get("rate"));
  query.duration = int_in_range(args, "duration", 1, 1000000000000LL);
  query.seed = static_cast<std::uint64_t>(int_in_range(args, "seed", 0));
  query.batch_window = int_in_range(args, "window", 0, 1000000000000LL);
  query.max_batch = int_in_range(args, "max-batch", 1, 1000000000);
  query.max_queue = int_in_range(args, "max-queue", 0, 1000000000);
  query.trace = args.get("trace");
  query.slo_p99 = int_in_range(args, "slo-p99", 0, 1000000000000LL);

  ServiceApi api = service_from_args(args);
  const TrafficResult traffic = api.traffic(query);

  with_output(args.get("out"), [&](std::ostream& os) {
    if (format == "csv") {
      write_traffic_csv(os, traffic.report);
    } else if (format == "json") {
      os << (traffic.capacity_mode ? to_json(traffic.capacity)
                                   : to_json(traffic.report))
         << "\n";
    } else if (traffic.capacity_mode) {
      print_capacity(os, traffic.capacity);
    } else {
      print_traffic_report(os, traffic.report);
    }
  });
  maybe_print_stats(args, api);
  return kExitOk;
}

/// The per-layer table of a verification result (the `verify` view).
TextTable verify_table(const NetworkVerifyResult& result) {
  TextTable table({"#", "layer", "groups", "mapping (PWxICtxOCt)", "exact",
                   "cycles (run/analytic)", "max_abs_err"});
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const LayerVerification& lv = result.layers[i];
    table.add_row({std::to_string(i + 1), lv.layer.name,
                   std::to_string(lv.layer.groups),
                   lv.decision.table_entry(),
                   lv.report.exact_match ? "yes" : "NO",
                   cat(lv.report.executed_cycles, "/",
                       lv.report.analytic_cycles,
                       lv.report.cycles_match ? "" : " MISMATCH"),
                   format_fixed(lv.report.max_abs_error, 3)});
  }
  return table;
}

/// `vwsdk verify`: map each layer, build the plan, execute it on the
/// crossbar simulator with deterministic integer tensors, and compare
/// the OFM against the selected reference backend.  Grouped layers
/// verify one group's sub-convolution (all groups are identical).
/// Any mismatch -- OFM or cycle count -- exits 1 after the output.
int run_verify(int argc, const char* const* argv) {
  ArgParser args("vwsdk verify",
                 "functionally verify mapped layers on the crossbar "
                 "simulator");
  args.add_option("net", "", "model-zoo name or spec file (required)");
  args.add_option("mapper", "vw-sdk",
                  cat("mapping algorithm (",
                      MapperRegistry::instance().known_names(), ")"));
  add_ref_backend_option(args);
  args.add_int_option("seed", 42, "seed for the integer test tensors");
  args.add_option("array", "",
                  "PIM array geometry RxC (default: the spec's array, "
                  "else 512x512)");
  args.add_option("format", "table", "output format: table or json");
  args.add_option("out", "-", "output path, '-' = stdout");
  args.add_flag("stats", "print pool/cache statistics to stderr");
  if (!args.parse(argc, argv)) {
    return kExitOk;
  }
  require_no_positional(args);
  VWSDK_REQUIRE(!args.get("net").empty(), "--net is required");
  const std::string format = format_from_args(args, {"table", "json"});

  VerifyQuery query;
  query.net = args.get("net");
  query.mapper = args.get("mapper");
  query.array = args.get("array");
  query.ref_backend = args.get("ref-backend");
  query.seed = static_cast<std::uint64_t>(int_in_range(args, "seed", 0));
  ServiceApi api(0);
  const NetworkVerifyResult result = api.verify(query);

  with_output(args.get("out"), [&](std::ostream& os) {
    if (format == "json") {
      os << to_json(result) << "\n";
      return;
    }
    os << "network: " << result.network_name << " ("
       << result.layers.size() << " layers)\narray: "
       << result.geometry.to_string() << "   algorithm: "
       << result.algorithm << "   backend: " << result.backend << "\n\n"
       << verify_table(result) << "\n"
       << (result.all_verified()
               ? "all layers verified EXACT against the reference backend"
               : "verification FAILED (see table)")
       << "\n";
  });
  maybe_print_stats(args, api);
  if (!result.all_verified()) {
    std::cerr << "error: functional verification failed\n";
    return kExitError;
  }
  return kExitOk;
}

int run_mappers(int argc, const char* const* argv) {
  ArgParser args("vwsdk mappers", "list the registered mapping algorithms");
  args.add_option("format", "table", "output format: table or json");
  args.add_option("out", "-", "output path, '-' = stdout");
  if (!args.parse(argc, argv)) {
    return kExitOk;
  }
  require_no_positional(args);
  const std::string format = format_from_args(args, {"table", "json"});

  const MapperRegistry& registry = MapperRegistry::instance();
  with_output(args.get("out"), [&](std::ostream& os) {
    if (format == "json") {
      os << to_json(registry) << "\n";
      return;
    }
    TextTable table(
        {"name", "aliases", "capabilities", "description"});
    for (const std::string& name : registry.names()) {
      const MapperInfo& info = registry.info(name);
      std::vector<std::string> caps;
      if (info.capabilities.objective_aware) {
        caps.emplace_back("objective-aware");
      }
      if (info.capabilities.exhaustive) {
        caps.emplace_back("exhaustive");
      }
      table.add_row({info.name, join(info.aliases, ", "),
                     caps.empty() ? "-" : join(caps, ", "),
                     info.description});
    }
    os << table;
  });
  return kExitOk;
}

int run_zoo(int argc, const char* const* argv) {
  ArgParser args("vwsdk zoo",
                 "list built-in networks or export one as a spec file");
  args.add_option("export", "",
                  "network to export as a spec (zoo name or spec file)");
  args.add_option("format", "json", "spec format for --export: json or csv");
  args.add_option("array", "",
                  "array hint to embed in the exported spec, RxC");
  args.add_option("out", "-", "output path, '-' = stdout");
  if (!args.parse(argc, argv)) {
    return kExitOk;
  }
  require_no_positional(args);
  const std::string format = format_from_args(args, {"json", "csv"});

  if (args.get("export").empty()) {
    with_output(args.get("out"), [&](std::ostream& os) {
      TextTable table({"name", "layers", "weights"});
      for (const std::string& name : model_names()) {
        const Network net = model_by_name(name);
        table.add_row({name, std::to_string(net.layer_count()),
                       with_thousands(net.total_weights())});
      }
      os << table;
    });
    return kExitOk;
  }

  const NetworkSpec spec = resolve_network_spec(args.get("export"));
  std::string array = args.get("array");
  if (array.empty()) {
    array = spec.array;
  }
  if (!array.empty()) {
    (void)parse_geometry(array);  // validate the hint before embedding it
  }
  with_output(args.get("out"), [&](std::ostream& os) {
    os << (format == "csv" ? to_spec_csv(spec.network, array)
                           : to_spec_json(spec.network, array));
  });
  return kExitOk;
}

int run_serve(int argc, const char* const* argv) {
  ArgParser args("vwsdk serve",
                 "answer NDJSON requests on stdin or a Unix socket as a "
                 "long-running daemon (protocol: docs/SERVE.md)");
  args.add_option("socket", "",
                  "Unix domain socket path (default: serve stdin/stdout)");
  args.add_int_option("max-inflight", 4,
                      "requests executing at once (>= 1; at most --threads)");
  args.add_int_option("max-queue", 16,
                      "accepted requests waiting beyond that (>= 0)");
  args.add_int_option("threads", 0,
                      "worker threads, running the requests and their "
                      "fan-out (0 = VWSDK_THREADS, then hardware)");
  if (!args.parse(argc, argv)) {
    return kExitOk;
  }
  require_no_positional(args);

  ServeOptions options;
  options.socket_path = args.get("socket");
  options.max_inflight =
      static_cast<int>(int_in_range(args, "max-inflight", 1, 1024));
  options.max_queue =
      static_cast<int>(int_in_range(args, "max-queue", 0, 1 << 20));
  options.threads = static_cast<int>(
      int_in_range(args, "threads", 0, std::numeric_limits<int>::max()));
  return run_server(options);
}

/// The global help text.  The command list is derived from the
/// SubcommandSet and the algorithm / objective lists from
/// MapperRegistry / objective_names() at runtime, so registering a new
/// subcommand or mapper updates the help (and the `cli.help_matches_doc`
/// ctest then forces docs/CLI.md to follow).
std::string global_help(const SubcommandSet& commands) {
  return cat(
      R"(vwsdk - VW-SDK convolutional weight mapping toolkit

Usage:
  vwsdk <command> [options]
  vwsdk <command> --help
  vwsdk --help | --version

Commands:
)",
      commands.command_list(), R"(
Networks (--net / --nets) are model-zoo names (vgg13, resnet18, vgg16,
alexnet, lenet5, stress) or network-spec files in the JSON/CSV formats
of docs/FORMATS.md.  Array geometries are "RxC" (rows x columns);
when --array is omitted, the spec's own "array" entry applies, then
512x512.

Mapping algorithms (--mapper / --mappers; `vwsdk mappers` describes them):
  )",
      MapperRegistry::instance().known_names(), R"(
Search objectives (--objective; see docs/OBJECTIVES.md):
  )",
      join(objective_names(), ", "), R"(

Exit codes: 0 success, 1 runtime error, 2 usage error.
)");
}

}  // namespace

int main(int argc, char** argv) {
  return run_cli_main([&]() -> int {
    SubcommandSet commands;
    commands.add({"map",
                  "map every layer of one network with one algorithm",
                  run_map});
    commands.add({"compare",
                  "run several algorithms on one network side by side",
                  run_compare});
    commands.add({"sweep", "cross-product of networks x arrays x algorithms",
                  run_sweep});
    commands.add({"chip",
                  "pipeline one network across one or more PIM chips",
                  run_chip});
    commands.add({"traffic",
                  "simulate request traffic against pipelined chip farms",
                  run_traffic});
    commands.add({"verify",
                  "functionally verify mapped layers on the crossbar "
                  "simulator",
                  run_verify});
    commands.add({"mappers", "list the registered mapping algorithms",
                  run_mappers});
    commands.add({"zoo",
                  "list built-in networks or export one as a spec file",
                  run_zoo});
    commands.add({"serve",
                  "answer NDJSON requests as a long-running daemon",
                  run_serve});
    return commands.dispatch(
        argc, argv, [&] { return global_help(commands); },
        cat("vwsdk ", VWSDK_VERSION));
  });
}
