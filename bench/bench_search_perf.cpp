/// Engineering benchmark: runtime of the mapping search itself.  Not a
/// paper artifact -- the paper's metric is the mapped network's cycle
/// count -- but a library that proposes to run inside compilation and
/// deployment flows should document its own cost.  Algorithm 1 is
/// O(I_w * I_h) cost evaluations per layer; even VGG-13's 224x224 layer
/// is a ~49k-candidate scan of closed-form arithmetic.
///
/// Measures, and records in BENCH_search_perf.json:
///  * single-layer search cost (vw-sdk full scan vs the pruned variant);
///  * whole-model-zoo mapping, sequential vs the threaded optimizer,
///    with the speedup as an INFO value CI can track over time;
///  * MappingCache effect on VGG-16 (9 distinct shapes in 13 layers)
///    with exact hit/miss counts.
///
/// The pass/fail checks are determinism claims (parallel == sequential,
/// exact cache counters), never wall-time thresholds: timings vary by
/// machine, decisions must not.

#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/network_optimizer.h"
#include "core/pruned_mapper.h"
#include "nn/model_zoo.h"

namespace {

using namespace vwsdk;

const ArrayGeometry kGeometry{512, 512};

/// Best-of-`reps` wall time of `fn`, in milliseconds.
double time_ms(const std::function<void()>& fn, int reps = 3) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    best = i == 0 ? ms : std::min(best, ms);
  }
  return best;
}

}  // namespace

int main() {
  bench::JsonReporter reporter("bench_search_perf");

  reporter.section("Single-layer search cost (512x512 array)");
  const auto vw = make_mapper("vw-sdk");
  const auto pruned = make_mapper("vw-sdk-pruned");
  const std::vector<std::pair<const char*, ConvShape>> layers = {
      {"14x14 k3 256->256", ConvShape::square(14, 3, 256, 256)},
      {"56x56 k3 128->256", ConvShape::square(56, 3, 128, 256)},
      {"224x224 k3 64->64", ConvShape::square(224, 3, 64, 64)},
  };
  for (const auto& [label, shape] : layers) {
    Cycles full_total = 0;
    Cycles pruned_total = 0;
    const double full_ms = time_ms(
        [&]() { full_total = vw->map(shape, kGeometry).cost.total; });
    const double pruned_ms = time_ms(
        [&]() { pruned_total = pruned->map(shape, kGeometry).cost.total; });
    reporter.report_value(cat(label, " full scan (ms)"), full_ms);
    reporter.report_value(cat(label, " pruned scan (ms)"), pruned_ms);
    reporter.expect_eq(cat(label, " pruned == full optimum"), full_total,
                       pruned_total);
  }

  reporter.section("Model zoo: sequential vs threaded optimizer");
  const std::vector<Network> zoo = {vgg13_paper(), resnet18_paper(), vgg16(),
                                    alexnet()};
  const int threads = std::max(4, ThreadPool::default_thread_count());
  std::vector<Cycles> seq_totals;
  std::vector<Cycles> par_totals;
  const double seq_ms = time_ms([&]() {
    seq_totals.clear();
    for (const Network& net : zoo) {
      seq_totals.push_back(
          optimize_network(*vw, net, kGeometry, OptimizerOptions{})
              .total_cycles());
    }
  });
  const double par_ms = time_ms([&]() {
    par_totals.clear();
    ThreadPool pool(threads);
    OptimizerOptions options;
    options.pool = &pool;
    for (const Network& net : zoo) {
      par_totals.push_back(
          optimize_network(*vw, net, kGeometry, options).total_cycles());
    }
  });
  // Labels stay machine-independent (the thread count varies by host and
  // would break the baseline label matching); the count is INFO data.
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    reporter.expect_eq(
        cat(zoo[i].name(), ": threaded total == sequential total"),
        seq_totals[i], par_totals[i]);
  }
  reporter.report_value("threads used", threads);
  reporter.report_value("zoo sequential (ms)", seq_ms);
  reporter.report_value("zoo threaded (ms)", par_ms);
  reporter.report_value("across-layer parallel speedup (x)",
                        par_ms > 0 ? seq_ms / par_ms : 0.0);

  reporter.section("Memoized search: MappingCache on VGG-16");
  {
    const Network net = vgg16();
    MappingCache cache;
    OptimizerOptions options;
    options.cache = &cache;
    const NetworkMappingResult cold =
        optimize_network(*vw, net, kGeometry, options);
    const MappingCacheStats after_cold = cache.stats();
    reporter.expect_eq("cold run misses == distinct conv shapes", 9,
                       after_cold.misses);
    reporter.expect_eq("cold run hits == repeated conv shapes", 4,
                       after_cold.hits);
    const double warm_ms = time_ms([&]() {
      (void)optimize_network(*vw, net, kGeometry, options).total_cycles();
    });
    const NetworkMappingResult warm =
        optimize_network(*vw, net, kGeometry, options);
    reporter.expect_eq("warm run total == cold run total",
                       cold.total_cycles(), warm.total_cycles());
    reporter.report_value("VGG-16 warm (all-hit) mapping (ms)", warm_ms);
  }

  return reporter.finish();
}
