/// Objective-aware search over the model zoo: the same VW-SDK scan under
/// the cycles (paper), energy, and EDP objectives, on the 512x512 array.
///
/// Pins (machine-independent):
///  * the cycles objective reproduces the paper's published totals
///    (VGG-13 77102, ResNet-18 4294) -- scoring through the Objective
///    interface is bit-identical to the raw cycle comparison;
///  * the energy search's chosen decisions (total cycles per network) --
///    deterministic, so drift in the activity model or the search is
///    caught;
///  * dominance: each objective's own total under its search never
///    exceeds that total under the cycles search (per-layer argmin);
///  * VGG-13 conv5 is the documented divergence: 4x3 under cycles,
///    kernel-window fallback under energy.
///
/// Wall-time sections (one per objective) feed the CI perf gate.

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "common/table.h"
#include "core/network_optimizer.h"
#include "core/vwsdk_mapper.h"
#include "nn/model_zoo.h"

int main() {
  using namespace vwsdk;
  bench::JsonReporter reporter("bench_objective_search");
  const ArrayGeometry geometry{512, 512};
  const VwSdkMapper mapper;

  struct ZooRun {
    std::string network;
    NetworkMappingResult by_cycles;
    NetworkMappingResult by_energy;
    NetworkMappingResult by_edp;
  };
  std::vector<ZooRun> runs;

  const auto sweep = [&](const Objective& objective) {
    OptimizerOptions options;
    // No pool: wall time measures the search on the calling thread.
    options.objective = &objective;
    std::vector<NetworkMappingResult> results;
    for (const std::string& name : model_names()) {
      results.push_back(
          optimize_network(mapper, model_by_name(name), geometry, options));
    }
    return results;
  };

  reporter.section("Cycles search (the paper's Algorithm 1)");
  const std::vector<NetworkMappingResult> cycles_runs =
      sweep(cycles_objective());
  reporter.section("Energy search");
  const std::vector<NetworkMappingResult> energy_runs =
      sweep(energy_objective());
  reporter.section("EDP search");
  const std::vector<NetworkMappingResult> edp_runs = sweep(edp_objective());
  for (std::size_t i = 0; i < cycles_runs.size(); ++i) {
    runs.push_back(ZooRun{cycles_runs[i].network_name, cycles_runs[i],
                          energy_runs[i], edp_runs[i]});
  }

  reporter.section("Results");
  TextTable table({"network", "cycles(cyc)", "cycles(energy)",
                   "energy(cyc)", "energy(energy)", "diverging layers"});
  const auto rescore = [&](const NetworkMappingResult& result,
                           const Objective& objective) {
    double total = 0.0;
    for (const LayerMapping& lm : result.layers) {
      total += static_cast<double>(lm.layer.groups) *
               objective.score(lm.decision.shape, geometry, lm.decision.cost);
    }
    return total;
  };
  bool energy_dominates = true;
  bool edp_dominates = true;
  Count diverging = 0;
  for (const ZooRun& run : runs) {
    Count changed = 0;
    for (std::size_t i = 0; i < run.by_cycles.layers.size(); ++i) {
      if (!(run.by_cycles.layers[i].decision.cost.window ==
            run.by_energy.layers[i].decision.cost.window)) {
        ++changed;
      }
    }
    diverging += changed;
    const double cycles_run_energy = rescore(run.by_cycles,
                                             energy_objective());
    const double cycles_run_edp = rescore(run.by_cycles, edp_objective());
    energy_dominates = energy_dominates &&
                       run.by_energy.total_score() <= cycles_run_energy;
    edp_dominates = edp_dominates &&
                    run.by_edp.total_score() <= cycles_run_edp;
    table.add_row({run.network,
                   std::to_string(run.by_cycles.total_cycles()),
                   format_fixed(cycles_run_energy / 1e6, 2),
                   std::to_string(run.by_energy.total_cycles()),
                   format_fixed(run.by_energy.total_score() / 1e6, 2),
                   std::to_string(changed)});
  }
  std::cout << table << "\n";

  const auto by_name = [&](const std::string& name) -> const ZooRun& {
    for (const ZooRun& run : runs) {
      if (run.by_cycles.network_name == name) {
        return run;
      }
    }
    throw Error("zoo network missing: " + name);
  };

  // The cycles objective is the paper's search, bit for bit.
  reporter.expect_eq("VGG-13 cycles search matches the published total",
                     77102,
                     by_name("VGG-13").by_cycles.total_cycles());
  reporter.expect_eq("ResNet-18 cycles search matches the published total",
                     4294,
                     by_name("ResNet-18").by_cycles.total_cycles());

  // Deterministic pins of the energy search's decisions.
  reporter.expect_eq("VGG-13 energy search total cycles", 86390,
                     by_name("VGG-13").by_energy.total_cycles());
  reporter.expect_eq("VGG-13 conv5 under cycles picks 4x3 (5832 cycles)",
                     5832,
                     by_name("VGG-13")
                         .by_cycles.layers[4]
                         .decision.cost.total);
  reporter.expect_true(
      "VGG-13 conv5 under energy falls back to the kernel window",
      by_name("VGG-13").by_energy.layers[4].decision.is_im2col_fallback());

  // Per-layer argmin implies network-level dominance.
  reporter.expect_true(
      "energy search never exceeds the cycles search's energy",
      energy_dominates);
  reporter.expect_true("edp search never exceeds the cycles search's EDP",
                       edp_dominates);
  reporter.expect_true("at least one zoo layer diverges under energy",
                       diverging > 0);
  reporter.report_value("zoo layers choosing a different window under energy",
                        static_cast<double>(diverging));
  return reporter.finish();
}
