/// Acceptance pins for the objective-aware mapping API:
///  * with the default / explicit cycles objective, every zoo network's
///    decisions, traces, and totals are identical to the pre-objective
///    search (which the paper-number suites pin against Table I);
///  * energy provably changes a zoo window choice (VGG-13 conv5);
///  * edp runs end to end through the optimizer;
///  * the cache keys on the objective;
///  * pruned/exhaustive/parallel searches stay consistent under every
///    objective.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/bit_sliced_mapper.h"
#include "core/exhaustive_mapper.h"
#include "core/mapping_cache.h"
#include "core/network_optimizer.h"
#include "core/pruned_mapper.h"
#include "core/vwsdk_mapper.h"
#include "nn/model_zoo.h"

namespace vwsdk {
namespace {

const ArrayGeometry k512x512{512, 512};

MappingContext context_for(const ConvShape& shape,
                           const ArrayGeometry& geometry,
                           const Objective& objective) {
  MappingContext context{shape, geometry};
  context.objective = &objective;
  return context;
}

TEST(ObjectiveMapping, DefaultAndExplicitCyclesAreIdenticalAcrossZoo) {
  const VwSdkMapper mapper;
  for (const std::string& name : model_names()) {
    const Network network = model_by_name(name);
    const NetworkMappingResult legacy =
        optimize_network(mapper, network, k512x512);
    OptimizerOptions options;
    options.objective = &cycles_objective();
    const NetworkMappingResult scored =
        optimize_network(mapper, network, k512x512, options);
    ASSERT_EQ(legacy.layers.size(), scored.layers.size()) << name;
    EXPECT_EQ(legacy.objective, "cycles") << name;
    EXPECT_EQ(scored.objective, "cycles") << name;
    for (std::size_t i = 0; i < legacy.layers.size(); ++i) {
      EXPECT_EQ(legacy.layers[i].decision, scored.layers[i].decision)
          << name << " layer " << i;
    }
    EXPECT_EQ(legacy.total_cycles(), scored.total_cycles()) << name;
    // Under cycles the score IS the cycle count.
    EXPECT_EQ(scored.total_score(),
              static_cast<double>(scored.total_cycles()))
        << name;
  }
}

TEST(ObjectiveMapping, TraceIdenticalUnderExplicitCyclesObjective) {
  const VwSdkMapper mapper;
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);

  // The default context (no objective set) scores by cycles.
  SearchTrace legacy;
  MappingContext plain{conv5, k512x512};
  plain.trace = &legacy;
  (void)mapper.map(plain);

  SearchTrace scored;
  MappingContext context = context_for(conv5, k512x512, cycles_objective());
  context.trace = &scored;
  (void)mapper.map(context);

  ASSERT_EQ(legacy.steps().size(), scored.steps().size());
  for (std::size_t i = 0; i < legacy.steps().size(); ++i) {
    const SearchStep& a = legacy.steps()[i];
    const SearchStep& b = scored.steps()[i];
    EXPECT_EQ(a.window, b.window) << i;
    EXPECT_EQ(a.feasible, b.feasible) << i;
    EXPECT_EQ(a.cycles, b.cycles) << i;
    EXPECT_EQ(a.improved, b.improved) << i;
    if (b.feasible) {
      EXPECT_EQ(b.score, static_cast<double>(b.cycles)) << i;
    }
  }
}

TEST(ObjectiveMapping, EnergyPicksADifferentWindowOnVgg13Conv5) {
  // The paper's cycle search picks 4x3 (5832 cycles); under active
  // accounting that window pays a 4-way channel-granular AR split where
  // im2col's element-granular split is 3-way, so the energy search
  // keeps the kernel window instead -- more cycles, fewer conversions.
  const VwSdkMapper mapper;
  const ConvShape conv5 =
      ConvShape::from_layer(vgg13_paper().layer_by_name("conv5"));

  const MappingDecision by_cycles = mapper.map(conv5, k512x512);
  const MappingDecision by_energy =
      mapper.map(context_for(conv5, k512x512, energy_objective()));

  EXPECT_EQ(by_cycles.cost.window, (ParallelWindow{4, 3}));
  EXPECT_EQ(by_cycles.cost.total, 5832);
  EXPECT_NE(by_energy.cost.window, by_cycles.cost.window);
  EXPECT_TRUE(by_energy.is_im2col_fallback());
  EXPECT_EQ(by_energy.objective, "energy");

  // The energy pick must actually be cheaper in energy, and the cycle
  // pick cheaper in cycles -- the objectives genuinely disagree here.
  const double cycle_pick_energy = energy_objective().score(
      conv5, k512x512, by_cycles.cost);
  EXPECT_LT(by_energy.score, cycle_pick_energy);
  EXPECT_GT(by_energy.cost.total, by_cycles.cost.total);
}

TEST(ObjectiveMapping, EnergySearchNeverLosesToCycleSearchOnEnergy) {
  const VwSdkMapper mapper;
  for (const char* name : {"vgg13", "resnet18"}) {
    const Network network = model_by_name(name);
    for (const ConvLayerDesc& layer : network.layers()) {
      const ConvShape shape = ConvShape::from_layer(layer);
      const MappingDecision by_cycles = mapper.map(shape, k512x512);
      const MappingDecision by_energy =
          mapper.map(context_for(shape, k512x512, energy_objective()));
      const double cycle_pick_energy =
          energy_objective().score(shape, k512x512, by_cycles.cost);
      EXPECT_LE(by_energy.score, cycle_pick_energy)
          << name << " " << layer.name;
    }
  }
}

TEST(ObjectiveMapping, ExhaustiveLowerBoundsVwSdkUnderEveryObjective) {
  const VwSdkMapper vw;
  const ExhaustiveMapper oracle;
  const std::vector<ConvShape> shapes{
      ConvShape::square(56, 3, 128, 256), ConvShape::square(14, 3, 256, 256),
      ConvShape::square(28, 3, 128, 128), ConvShape::square(32, 5, 16, 32)};
  for (const ConvShape& shape : shapes) {
    for (const Objective* objective :
         {&cycles_objective(), &energy_objective(), &edp_objective()}) {
      const MappingDecision best =
          vw.map(context_for(shape, k512x512, *objective));
      const MappingDecision reference =
          oracle.map(context_for(shape, k512x512, *objective));
      EXPECT_LE(reference.score, best.score)
          << shape.to_string() << " under " << objective->name();
    }
  }
}

TEST(ObjectiveMapping, PrunedMatchesVwSdkUnderEveryObjective) {
  // Prune 3 is cycles-only; under energy/edp the pruned mapper must
  // disable it and still land on the identical optimum.
  const VwSdkMapper vw;
  const PrunedVwSdkMapper pruned;
  for (const char* name : {"vgg13", "resnet18"}) {
    const Network network = model_by_name(name);
    for (const ConvLayerDesc& layer : network.layers()) {
      const ConvShape shape = ConvShape::from_layer(layer);
      for (const Objective* objective :
           {&cycles_objective(), &energy_objective(), &edp_objective()}) {
        const MappingDecision a =
            vw.map(context_for(shape, k512x512, *objective));
        const MappingDecision b =
            pruned.map(context_for(shape, k512x512, *objective));
        EXPECT_EQ(a.cost, b.cost)
            << name << " " << layer.name << " under " << objective->name();
        EXPECT_EQ(a.score, b.score)
            << name << " " << layer.name << " under " << objective->name();
      }
    }
  }
}

TEST(ObjectiveMapping, ParallelSearchIdenticalUnderEnergy) {
  // The across-layer fan-out must not change any decision under a
  // non-cycle objective either.
  const VwSdkMapper mapper;
  OptimizerOptions sequential;
  sequential.objective = &energy_objective();
  const NetworkMappingResult a =
      optimize_network(mapper, vgg13_paper(), k512x512, sequential);
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {&one, &four}) {
    OptimizerOptions threaded = sequential;
    threaded.pool = pool;
    const NetworkMappingResult b =
        optimize_network(mapper, vgg13_paper(), k512x512, threaded);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
      EXPECT_EQ(a.layers[i].decision, b.layers[i].decision)
          << i << " with " << pool->size() << " worker(s)";
    }
  }
}

TEST(ObjectiveMapping, EdpRunsEndToEndThroughTheOptimizer) {
  const VwSdkMapper mapper;
  OptimizerOptions options;
  options.objective = &edp_objective();
  const NetworkMappingResult result =
      optimize_network(mapper, resnet18_paper(), k512x512, options);
  EXPECT_EQ(result.objective, "edp");
  EXPECT_GT(result.total_score(), 0.0);
  double sum = 0.0;
  for (const LayerMapping& lm : result.layers) {
    EXPECT_EQ(lm.decision.objective, "edp");
    EXPECT_EQ(lm.decision.score,
              edp_objective().score(lm.decision.shape, k512x512,
                                    lm.decision.cost));
    sum += lm.score();
  }
  EXPECT_DOUBLE_EQ(result.total_score(), sum);
}

TEST(ObjectiveMapping, GroupedLayerScoreScalesWithGroups) {
  Network network("grouped");
  ConvLayerDesc dw = make_conv_layer("dw", 30, 3, 16, 16);
  dw.groups = 16;
  network.add_layer(dw);
  const VwSdkMapper mapper;
  OptimizerOptions options;
  options.objective = &energy_objective();
  const NetworkMappingResult result =
      optimize_network(mapper, network, k512x512, options);
  ASSERT_EQ(result.layers.size(), 1u);
  const LayerMapping& lm = result.layers.front();
  EXPECT_DOUBLE_EQ(lm.score(), 16.0 * lm.decision.score);
  EXPECT_DOUBLE_EQ(result.total_score(), lm.score());
}

TEST(ObjectiveMapping, BitSlicedObjectiveScoringGuard) {
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  // Degenerate (default) config: every cost equals the plain model's,
  // so energy scoring is exact and allowed.
  const BitSlicedVwSdkMapper plain;
  const MappingDecision scored =
      plain.map(context_for(conv5, k512x512, energy_objective()));
  EXPECT_EQ(scored.objective, "energy");
  EXPECT_EQ(scored.score,
            energy_objective().score(conv5, k512x512, scored.cost));
  // A sliced config must refuse non-cycles objectives (the activity
  // model is slicing-unaware) instead of reporting a wrong figure...
  BitSlicingConfig sliced;
  sliced.cell_bits = 1;  // 8 slices per weight
  const BitSlicedVwSdkMapper mapper(sliced);
  EXPECT_THROW(
      mapper.map(context_for(conv5, k512x512, energy_objective())),
      InvalidArgument);
  // ...while the cycles search is unaffected.
  EXPECT_NO_THROW(mapper.map(conv5, k512x512));
}

TEST(ObjectiveMapping, CacheDistinguishesObjectiveParameterizations) {
  const VwSdkMapper mapper;
  MappingCache cache;
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  EnergyParams hot;
  hot.adc_pj_per_col *= 100.0;
  const EnergyObjective custom(hot);

  (void)cache.map(mapper, context_for(conv5, k512x512, energy_objective()));
  (void)cache.map(mapper, context_for(conv5, k512x512, custom));
  // Same objective *name*, different parameters: two distinct searches.
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 2);
}

TEST(ObjectiveMapping, CacheKeysOnTheObjective) {
  const VwSdkMapper mapper;
  MappingCache cache;
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);

  MappingContext by_cycles{conv5, k512x512};
  MappingContext by_energy = context_for(conv5, k512x512, energy_objective());

  const MappingDecision first = cache.map(mapper, by_cycles);
  const MappingDecision second = cache.map(mapper, by_energy);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_NE(first.cost.window, second.cost.window);

  // Replays hit their own objective's entry.
  EXPECT_EQ(cache.map(mapper, by_cycles), first);
  EXPECT_EQ(cache.map(mapper, by_energy), second);
  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.size(), 2);
}

TEST(ObjectiveMapping, OptimizerWithCacheMatchesWithoutUnderEnergy) {
  const VwSdkMapper mapper;
  OptimizerOptions plain;
  plain.objective = &energy_objective();
  const NetworkMappingResult expected =
      optimize_network(mapper, vgg16(), k512x512, plain);

  MappingCache cache;
  OptimizerOptions cached = plain;
  cached.cache = &cache;
  const NetworkMappingResult memoized =
      optimize_network(mapper, vgg16(), k512x512, cached);
  ASSERT_EQ(expected.layers.size(), memoized.layers.size());
  for (std::size_t i = 0; i < expected.layers.size(); ++i) {
    EXPECT_EQ(expected.layers[i].decision, memoized.layers[i].decision) << i;
  }
  EXPECT_GT(cache.stats().hits, 0);
}

}  // namespace
}  // namespace vwsdk
