#include "mapping/objective.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "mapping/activity.h"

namespace vwsdk {
namespace {

const ArrayGeometry k512x512{512, 512};

ConvShape vgg13_conv5() { return ConvShape::square(56, 3, 128, 256); }

TEST(Objective, NamesUnitsAndLookup) {
  EXPECT_EQ(cycles_objective().name(), "cycles");
  EXPECT_EQ(energy_objective().name(), "energy");
  EXPECT_EQ(edp_objective().name(), "edp");
  EXPECT_EQ(cycles_objective().unit(), "cycles");
  EXPECT_EQ(energy_objective().unit(), "pJ");
  EXPECT_EQ(objective_names(),
            (std::vector<std::string>{"cycles", "energy", "edp"}));

  EXPECT_EQ(&objective_by_name("cycles"), &cycles_objective());
  EXPECT_EQ(&objective_by_name("  ENERGY "), &energy_objective());
  EXPECT_EQ(&objective_by_name("edp"), &edp_objective());
  EXPECT_THROW(objective_by_name("joules"), NotFound);
}

TEST(Objective, CyclesScoreIsTheCycleCount) {
  const CycleCost cost = vw_cost(vgg13_conv5(), k512x512, {4, 3});
  ASSERT_TRUE(cost.feasible);
  EXPECT_EQ(cycles_objective().score(vgg13_conv5(), k512x512, cost),
            static_cast<double>(cost.total));
}

TEST(Objective, BetterIsStrictlyLower) {
  // Strictness is the first-minimum tie-break: an equal score must NOT
  // replace the incumbent.
  const Objective& objective = cycles_objective();
  EXPECT_TRUE(objective.better(1.0, 2.0));
  EXPECT_FALSE(objective.better(2.0, 2.0));
  EXPECT_FALSE(objective.better(3.0, 2.0));
}

TEST(Objective, OnlyCyclesAdmitsTheCycleLowerBound) {
  EXPECT_TRUE(cycles_objective().cycle_lower_bound_admissible());
  EXPECT_FALSE(energy_objective().cycle_lower_bound_admissible());
  EXPECT_FALSE(edp_objective().cycle_lower_bound_admissible());
}

TEST(Objective, EnergyScoreMatchesAnalyticActivity) {
  const ConvShape shape = vgg13_conv5();
  const CycleCost cost = vw_cost(shape, k512x512, {4, 3});
  ASSERT_TRUE(cost.feasible);
  const EnergyParams defaults;
  EXPECT_DOUBLE_EQ(
      energy_objective().score(shape, k512x512, cost),
      analytic_activity(shape, k512x512, cost).energy_pj(defaults));
}

TEST(Objective, EdpScoreIsEnergyTimesLatency) {
  const ConvShape shape = vgg13_conv5();
  const CycleCost cost = vw_cost(shape, k512x512, {4, 3});
  ASSERT_TRUE(cost.feasible);
  const EnergyParams defaults;
  const EnergyReport activity = analytic_activity(shape, k512x512, cost);
  EXPECT_DOUBLE_EQ(edp_objective().score(shape, k512x512, cost),
                   activity.energy_pj(defaults) *
                       activity.latency_ns(defaults));
}

TEST(Objective, CustomParamsScaleTheScore) {
  const ConvShape shape = vgg13_conv5();
  const CycleCost cost = vw_cost(shape, k512x512, {4, 3});
  EnergyParams doubled;
  doubled.dac_pj_per_row *= 2.0;
  doubled.adc_pj_per_col *= 2.0;
  doubled.cell_pj_per_mac *= 2.0;
  const EnergyObjective base;
  const EnergyObjective scaled(doubled);
  EXPECT_DOUBLE_EQ(scaled.score(shape, k512x512, cost),
                   2.0 * base.score(shape, k512x512, cost));
  EXPECT_THROW(
      {
        EnergyParams bad;
        bad.adc_pj_per_col = -1.0;
        EnergyObjective rejected(bad);
      },
      InvalidArgument);
}

TEST(Objective, CacheKeyDistinguishesParameterizations) {
  // Same name, different constants -> different memoization identity;
  // identical constants -> identical identity (shared cache entries).
  EXPECT_EQ(cycles_objective().cache_key(), "cycles");
  const EnergyObjective defaults;
  EXPECT_EQ(defaults.cache_key(), energy_objective().cache_key());
  EnergyParams hot;
  hot.adc_pj_per_col *= 3.0;
  const EnergyObjective custom(hot);
  EXPECT_NE(custom.cache_key(), defaults.cache_key());
  EXPECT_NE(EdpObjective(hot).cache_key(), EdpObjective().cache_key());
  // The key still carries the name for debuggability.
  EXPECT_EQ(custom.cache_key().rfind("energy@", 0), 0u);
}

TEST(Objective, CyclesAndEnergyDisagreeOnVgg13Conv5) {
  // The motivating nuance (bench_energy): VW-SDK's 4x3 window beats
  // im2col on cycles (5832 vs 8748) but LOSES on active-accounting
  // energy -- its channel-granular AR split is 4 vs im2col's
  // element-granular 3, one extra partial-sum conversion per output.
  const ConvShape shape = vgg13_conv5();
  const CycleCost windowed = vw_cost(shape, k512x512, {4, 3});
  const CycleCost fallback = im2col_cost(shape, k512x512);
  ASSERT_TRUE(windowed.feasible && fallback.feasible);
  EXPECT_LT(cycles_objective().score(shape, k512x512, windowed),
            cycles_objective().score(shape, k512x512, fallback));
  EXPECT_GT(energy_objective().score(shape, k512x512, windowed),
            energy_objective().score(shape, k512x512, fallback));
}

}  // namespace
}  // namespace vwsdk
