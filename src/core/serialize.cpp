#include "core/serialize.h"

#include <ostream>
#include <sstream>

#include "common/csv.h"
#include "common/json.h"
#include "common/error.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

const std::vector<std::string> kResultHeader = {
    "network", "algorithm", "array",  "layer",  "image", "kernel",
    "ic",      "oc",        "groups", "window", "ic_t",  "oc_t",
    "n_pw",    "ar",        "ac",     "cycles", "objective", "score"};

std::vector<std::string> layer_row(const NetworkMappingResult& result,
                                   const LayerMapping& lm) {
  const ConvLayerDesc& layer = lm.layer;
  const CycleCost& cost = lm.decision.cost;
  // For grouped layers the window/tile columns describe ONE group's
  // sub-convolution; "cycles" is always the layer-level total (G x the
  // per-group cycles).  See docs/FORMATS.md.
  return {result.network_name,
          result.algorithm,
          result.geometry.to_string(),
          layer.name,
          cat(layer.ifm_w, "x", layer.ifm_h),
          cat(layer.kernel_w, "x", layer.kernel_h),
          std::to_string(layer.in_channels),
          std::to_string(layer.out_channels),
          std::to_string(layer.groups),
          cost.window.to_string(),
          std::to_string(cost.ic_t),
          std::to_string(cost.oc_t),
          std::to_string(cost.n_parallel_windows),
          std::to_string(cost.ar_cycles),
          std::to_string(cost.ac_cycles),
          std::to_string(lm.cycles()),
          lm.decision.objective,
          format_fixed(lm.score(), 4)};
}

}  // namespace

void write_result_csv(std::ostream& os, const NetworkMappingResult& result) {
  CsvWriter csv(os, kResultHeader);
  for (const LayerMapping& lm : result.layers) {
    csv.write_row(layer_row(result, lm));
  }
}

namespace {

/// Rows of one comparison into an already-opened CSV (shared by the
/// single-comparison and sweep writers).
void append_comparison_rows(CsvWriter& csv,
                            const NetworkComparison& comparison) {
  VWSDK_REQUIRE(!comparison.results.empty(), "empty comparison");
  const NetworkMappingResult& baseline = comparison.results.front();
  for (const NetworkMappingResult& result : comparison.results) {
    VWSDK_REQUIRE(result.layers.size() == baseline.layers.size(),
                  "comparison results cover different layer counts");
    for (std::size_t i = 0; i < result.layers.size(); ++i) {
      std::vector<std::string> row = layer_row(result, result.layers[i]);
      const double speedup =
          static_cast<double>(baseline.layers[i].cycles()) /
          static_cast<double>(result.layers[i].cycles());
      row.push_back(format_fixed(speedup, 4));
      csv.write_row(row);
    }
  }
}

std::vector<std::string> comparison_header() {
  std::vector<std::string> header = kResultHeader;
  header.emplace_back("speedup_vs_baseline");
  return header;
}

}  // namespace

void write_comparison_csv(std::ostream& os,
                          const NetworkComparison& comparison) {
  VWSDK_REQUIRE(!comparison.results.empty(), "empty comparison");
  CsvWriter csv(os, comparison_header());
  append_comparison_rows(csv, comparison);
}

void write_sweep_csv(std::ostream& os,
                     const std::vector<NetworkComparison>& sweep) {
  CsvWriter csv(os, comparison_header());
  for (const NetworkComparison& comparison : sweep) {
    append_comparison_rows(csv, comparison);
  }
}

std::string to_json(const MappingDecision& decision) {
  const CycleCost& cost = decision.cost;
  std::ostringstream os;
  os << "{\"algorithm\":" << json_quote(decision.algorithm)
     << ",\"array\":" << json_quote(decision.geometry.to_string())
     << ",\"layer\":" << json_quote(decision.shape.to_string())
     << ",\"window\":" << json_quote(cost.window.to_string())
     << ",\"ic_t\":" << cost.ic_t << ",\"oc_t\":" << cost.oc_t
     << ",\"n_parallel_windows\":" << cost.n_parallel_windows
     << ",\"ar\":" << cost.ar_cycles << ",\"ac\":" << cost.ac_cycles
     << ",\"cycles\":" << cost.total
     << ",\"objective\":" << json_quote(decision.objective)
     << ",\"score\":" << format_fixed(decision.score, 4)
     << ",\"im2col_fallback\":"
     << (decision.is_im2col_fallback() ? "true" : "false") << "}";
  return os.str();
}

std::string to_json(const NetworkMappingResult& result) {
  std::ostringstream os;
  os << "{\"network\":" << json_quote(result.network_name)
     << ",\"algorithm\":" << json_quote(result.algorithm)
     << ",\"objective\":" << json_quote(result.objective)
     << ",\"array\":" << json_quote(result.geometry.to_string())
     << ",\"layers\":[";
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    if (i != 0) {
      os << ',';
    }
    os << "{\"name\":" << json_quote(result.layers[i].layer.name)
       << ",\"groups\":" << result.layers[i].layer.groups
       << ",\"cycles\":" << result.layers[i].cycles()
       << ",\"decision\":" << to_json(result.layers[i].decision) << "}";
  }
  os << "],\"total_cycles\":" << result.total_cycles()
     << ",\"total_score\":" << format_fixed(result.total_score(), 4) << "}";
  return os.str();
}

std::string to_json(const NetworkComparison& comparison) {
  VWSDK_REQUIRE(!comparison.results.empty(), "empty comparison");
  std::ostringstream os;
  os << "{\"results\":[";
  for (std::size_t i = 0; i < comparison.results.size(); ++i) {
    if (i != 0) {
      os << ',';
    }
    os << to_json(comparison.results[i]);
  }
  os << "],\"speedups\":{";
  for (std::size_t i = 0; i < comparison.results.size(); ++i) {
    if (i != 0) {
      os << ',';
    }
    os << json_quote(comparison.results[i].algorithm) << ":"
       << format_fixed(comparison.speedup(0, static_cast<Count>(i)), 4);
  }
  os << "}}";
  return os.str();
}

void write_chip_csv(std::ostream& os, const ChipPlan& plan) {
  VWSDK_REQUIRE(plan.feasible,
                cat("cannot serialize an infeasible chip plan as CSV (",
                    plan.infeasible_reason, "); use the JSON form"));
  CsvWriter csv(os, {"network", "algorithm", "objective", "array",
                     "arrays_per_chip", "chip", "layer", "groups", "tiles",
                     "arrays", "serial_cycles", "makespan", "score",
                     "interval", "fill_latency", "speedup", "balance"});
  const std::string interval = std::to_string(plan.interval());
  const std::string fill = std::to_string(plan.fill_latency());
  const std::string speedup = format_fixed(plan.speedup(), 4);
  const std::string balance = format_fixed(plan.balance(), 4);
  for (std::size_t chip = 0; chip < plan.chips.size(); ++chip) {
    for (const LayerAllocation& layer : plan.chips[chip].layers) {
      csv.write_row({plan.network_name, plan.algorithm, plan.objective,
                     plan.geometry.to_string(),
                     std::to_string(plan.arrays_per_chip),
                     std::to_string(chip + 1), layer.layer_name,
                     std::to_string(layer.groups),
                     std::to_string(layer.tiles),
                     std::to_string(layer.arrays),
                     std::to_string(layer.serial_cycles),
                     std::to_string(layer.makespan),
                     format_fixed(layer.score, 4), interval, fill, speedup,
                     balance});
    }
  }
}

std::string to_json(const ChipPlan& plan, Count batch) {
  VWSDK_REQUIRE(batch >= 1, "batch needs at least one inference");
  std::ostringstream os;
  os << "{\"network\":" << json_quote(plan.network_name)
     << ",\"algorithm\":" << json_quote(plan.algorithm)
     << ",\"objective\":" << json_quote(plan.objective)
     << ",\"array\":" << json_quote(plan.geometry.to_string())
     << ",\"arrays_per_chip\":" << plan.arrays_per_chip
     << ",\"feasible\":" << (plan.feasible ? "true" : "false");
  if (!plan.feasible) {
    os << ",\"reason\":" << json_quote(plan.infeasible_reason) << "}";
    return os.str();
  }
  os << ",\"chips\":[";
  for (std::size_t i = 0; i < plan.chips.size(); ++i) {
    const ChipAllocation& chip = plan.chips[i];
    if (i != 0) {
      os << ',';
    }
    os << "{\"arrays\":" << chip.total_arrays
       << ",\"arrays_used\":" << chip.arrays_used()
       << ",\"interval\":" << chip.bottleneck()
       << ",\"fill_latency\":" << chip.fill_latency()
       << ",\"balance\":" << format_fixed(chip.balance(), 4)
       << ",\"layers\":[";
    for (std::size_t j = 0; j < chip.layers.size(); ++j) {
      const LayerAllocation& layer = chip.layers[j];
      if (j != 0) {
        os << ',';
      }
      os << "{\"name\":" << json_quote(layer.layer_name)
         << ",\"groups\":" << layer.groups << ",\"tiles\":" << layer.tiles
         << ",\"arrays\":" << layer.arrays
         << ",\"serial_cycles\":" << layer.serial_cycles
         << ",\"makespan\":" << layer.makespan
         << ",\"score\":" << format_fixed(layer.score, 4) << "}";
    }
    os << "]}";
  }
  os << "],\"interval\":" << plan.interval()
     << ",\"fill_latency\":" << plan.fill_latency()
     << ",\"serial_cycles\":" << plan.serial_cycles()
     << ",\"arrays_used\":" << plan.arrays_used()
     << ",\"speedup\":" << format_fixed(plan.speedup(), 4)
     << ",\"balance\":" << format_fixed(plan.balance(), 4)
     << ",\"batch\":" << batch
     << ",\"batch_cycles\":" << plan.batch_cycles(batch)
     << ",\"cycles_per_inference\":"
     << format_fixed(static_cast<double>(plan.batch_cycles(batch)) /
                         static_cast<double>(batch),
                     4)
     << "}";
  return os.str();
}

void write_traffic_csv(std::ostream& os, const TrafficReport& report) {
  CsvWriter csv(os, {"network", "algorithm", "objective", "array",
                     "arrays_per_chip", "replica", "chip", "busy",
                     "utilization", "queue_peak", "batches", "interval",
                     "fill_latency", "replicas", "arrivals", "completions",
                     "rejected", "in_flight", "offered", "sustained", "p50",
                     "p95", "p99", "p999"});
  for (const NetworkTraffic& net : report.networks) {
    for (const ChipTraffic& chip : net.chips) {
      csv.write_row({net.network, net.algorithm, net.objective, net.array,
                     std::to_string(net.arrays_per_chip),
                     std::to_string(chip.replica), std::to_string(chip.chip),
                     std::to_string(chip.busy),
                     format_fixed(chip.utilization, 4),
                     std::to_string(chip.queue_peak),
                     std::to_string(chip.batches),
                     std::to_string(net.interval),
                     std::to_string(net.fill_latency),
                     std::to_string(net.replicas),
                     std::to_string(net.arrivals),
                     std::to_string(net.completions),
                     std::to_string(net.rejected),
                     std::to_string(net.in_flight),
                     format_fixed(net.offered, 4),
                     format_fixed(net.sustained, 4), std::to_string(net.p50),
                     std::to_string(net.p95), std::to_string(net.p99),
                     std::to_string(net.p999)});
    }
  }
}

std::string to_json(const TrafficReport& report) {
  std::ostringstream os;
  os << "{\"seed\":" << report.seed
     << ",\"source\":" << json_quote(report.source)
     << ",\"rate\":" << format_fixed(report.rate, 4)
     << ",\"duration\":" << report.duration
     << ",\"batch_window\":" << report.batch_window
     << ",\"max_batch\":" << report.max_batch
     << ",\"max_queue\":" << report.max_queue << ",\"networks\":[";
  for (std::size_t i = 0; i < report.networks.size(); ++i) {
    const NetworkTraffic& net = report.networks[i];
    if (i != 0) {
      os << ',';
    }
    os << "{\"network\":" << json_quote(net.network)
       << ",\"algorithm\":" << json_quote(net.algorithm)
       << ",\"objective\":" << json_quote(net.objective)
       << ",\"array\":" << json_quote(net.array)
       << ",\"arrays_per_chip\":" << net.arrays_per_chip
       << ",\"replicas\":" << net.replicas
       << ",\"chips_per_replica\":" << net.chips_per_replica
       << ",\"interval\":" << net.interval
       << ",\"fill_latency\":" << net.fill_latency
       << ",\"arrivals\":" << net.arrivals
       << ",\"completions\":" << net.completions
       << ",\"rejected\":" << net.rejected
       << ",\"in_flight\":" << net.in_flight
       << ",\"offered_per_mcycle\":" << format_fixed(net.offered, 4)
       << ",\"sustained_per_mcycle\":" << format_fixed(net.sustained, 4)
       << ",\"capacity_per_mcycle\":" << format_fixed(net.capacity, 4)
       << ",\"mean_batch\":" << format_fixed(net.mean_batch, 4)
       << ",\"mean_wait\":" << format_fixed(net.mean_wait, 4)
       << ",\"latency\":{\"min\":" << net.latency_min
       << ",\"mean\":" << format_fixed(net.mean_latency, 4)
       << ",\"p50\":" << net.p50 << ",\"p95\":" << net.p95
       << ",\"p99\":" << net.p99 << ",\"p999\":" << net.p999
       << ",\"max\":" << net.latency_max << "},\"chips\":[";
    for (std::size_t j = 0; j < net.chips.size(); ++j) {
      const ChipTraffic& chip = net.chips[j];
      if (j != 0) {
        os << ',';
      }
      os << "{\"replica\":" << chip.replica << ",\"chip\":" << chip.chip
         << ",\"busy\":" << chip.busy
         << ",\"utilization\":" << format_fixed(chip.utilization, 4)
         << ",\"queue_peak\":" << chip.queue_peak
         << ",\"batches\":" << chip.batches << "}";
    }
    os << "]}";
  }
  os << "],\"arrivals\":" << report.total_arrivals()
     << ",\"completions\":" << report.total_completions()
     << ",\"rejected\":" << report.total_rejected()
     << ",\"in_flight\":" << report.total_in_flight() << "}";
  return os.str();
}

std::string to_json(const CapacityResult& result) {
  std::ostringstream os;
  os << "{\"slo_p99\":" << result.slo_p99
     << ",\"rate\":" << format_fixed(result.rate, 4)
     << ",\"replicas\":" << result.replicas << ",\"chips\":" << result.chips
     << ",\"p99\":" << result.p99 << ",\"meets_slo\":true,\"lower\":";
  if (result.lower_replicas > 0) {
    os << "{\"replicas\":" << result.lower_replicas
       << ",\"p99\":" << result.lower_p99 << ",\"meets_slo\":false}";
  } else {
    os << "null";
  }
  os << ",\"report\":" << to_json(result.report) << "}";
  return os.str();
}

namespace {

/// "N" when square, "[w,h]" otherwise (the JSON spec extent grammar).
std::string json_extent(Dim w, Dim h) {
  return w == h ? std::to_string(w) : cat("[", w, ",", h, "]");
}

/// "N" when square, "WxH" otherwise (the CSV spec extent grammar).
std::string csv_extent(Dim w, Dim h) {
  return w == h ? std::to_string(w) : cat(w, "x", h);
}

}  // namespace

std::string to_json(const NetworkVerifyResult& result) {
  std::ostringstream os;
  os << "{\"network\":" << json_quote(result.network_name)
     << ",\"algorithm\":" << json_quote(result.algorithm)
     << ",\"backend\":" << json_quote(result.backend)
     << ",\"array\":" << json_quote(result.geometry.to_string())
     << ",\"seed\":" << result.seed << ",\"layers\":[";
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const LayerVerification& lv = result.layers[i];
    if (i != 0) {
      os << ',';
    }
    os << "{\"name\":" << json_quote(lv.layer.name)
       << ",\"groups\":" << lv.layer.groups
       << ",\"decision\":" << to_json(lv.decision)
       << ",\"exact\":" << (lv.report.exact_match ? "true" : "false")
       << ",\"executed_cycles\":" << lv.report.executed_cycles
       << ",\"analytic_cycles\":" << lv.report.analytic_cycles
       << ",\"cycles_match\":" << (lv.report.cycles_match ? "true" : "false")
       << ",\"max_abs_error\":" << format_fixed(lv.report.max_abs_error, 4)
       << "}";
  }
  os << "],\"all_verified\":" << (result.all_verified() ? "true" : "false")
     << "}";
  return os.str();
}

std::string to_json(const MapperRegistry& registry) {
  std::ostringstream os;
  os << "{\"mappers\":[";
  const std::vector<std::string> names = registry.names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const MapperInfo& info = registry.info(names[i]);
    if (i != 0) {
      os << ',';
    }
    os << "{\"name\":" << json_quote(info.name) << ",\"aliases\":[";
    for (std::size_t j = 0; j < info.aliases.size(); ++j) {
      os << (j == 0 ? "" : ",") << json_quote(info.aliases[j]);
    }
    os << "],\"description\":" << json_quote(info.description)
       << ",\"capabilities\":{\"objective_aware\":"
       << (info.capabilities.objective_aware ? "true" : "false")
       << ",\"exhaustive\":"
       << (info.capabilities.exhaustive ? "true" : "false")
       << ",\"grouped\":true}}";
  }
  os << "]}";
  return os.str();
}

std::string to_spec_json(const Network& network, const std::string& array) {
  VWSDK_REQUIRE(!network.empty(), "cannot export an empty network");
  std::ostringstream os;
  os << "{\n  \"name\": " << json_quote(network.name()) << ",\n";
  if (!array.empty()) {
    os << "  \"array\": " << json_quote(array) << ",\n";
  }
  os << "  \"layers\": [\n";
  const std::vector<ConvLayerDesc>& layers = network.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const ConvLayerDesc& layer = layers[i];
    os << "    {\"name\": " << json_quote(layer.name)
       << ", \"image\": " << json_extent(layer.ifm_w, layer.ifm_h)
       << ", \"kernel\": " << json_extent(layer.kernel_w, layer.kernel_h)
       << ", \"ic\": " << layer.in_channels
       << ", \"oc\": " << layer.out_channels;
    if (layer.config.stride_w != 1 || layer.config.stride_h != 1) {
      os << ", \"stride\": "
         << json_extent(layer.config.stride_w, layer.config.stride_h);
    }
    if (layer.config.pad_w != 0 || layer.config.pad_h != 0) {
      os << ", \"pad\": "
         << json_extent(layer.config.pad_w, layer.config.pad_h);
    }
    if (layer.is_grouped()) {
      os << ", \"groups\": " << layer.groups;
    }
    os << "}" << (i + 1 < layers.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string to_spec_csv(const Network& network, const std::string& array) {
  VWSDK_REQUIRE(!network.empty(), "cannot export an empty network");
  // The spec-CSV dialect is line-based (directives + getline rows) and
  // trims every cell on parse, so names with line breaks or surrounding
  // whitespace are unrepresentable -- they would round-trip into a
  // *different* name.  Fail loudly; the JSON spec format handles them.
  const auto require_csv_representable = [](const std::string& name,
                                            const char* what) {
    VWSDK_REQUIRE(name.find_first_of("\n\r") == std::string::npos &&
                      trim(name) == name,
                  cat(what, " \"", name,
                      "\" has a line break or surrounding whitespace; "
                      "the CSV spec format cannot represent it (use the "
                      "JSON spec)"));
  };
  require_csv_representable(network.name(), "network name");
  for (const ConvLayerDesc& layer : network.layers()) {
    require_csv_representable(layer.name, "layer name");
  }
  std::ostringstream os;
  os << "# network: " << network.name() << "\n";
  if (!array.empty()) {
    os << "# array: " << array << "\n";
  }
  CsvWriter csv(os, {"name", "image", "kernel", "ic", "oc", "stride", "pad",
                     "groups"});
  for (const ConvLayerDesc& layer : network.layers()) {
    csv.write_row({layer.name, csv_extent(layer.ifm_w, layer.ifm_h),
                   csv_extent(layer.kernel_w, layer.kernel_h),
                   std::to_string(layer.in_channels),
                   std::to_string(layer.out_channels),
                   csv_extent(layer.config.stride_w, layer.config.stride_h),
                   csv_extent(layer.config.pad_w, layer.config.pad_h),
                   std::to_string(layer.groups)});
  }
  return os.str();
}

}  // namespace vwsdk
