/// Randomized (seeded, reproducible) property sweeps across the whole
/// stack.  Shapes and geometries are drawn from a deterministic PRNG so
/// failures are replayable; every draw is printed in the failure message.

#include <gtest/gtest.h>

#include "core/exhaustive_mapper.h"
#include "core/pruned_mapper.h"
#include "core/vwsdk_mapper.h"
#include "mapping/plan_builder.h"
#include "mapping/plan_validate.h"
#include "sim/verifier.h"
#include "random_draw.h"

namespace vwsdk {
namespace {

TEST(Randomized, VwSdkEqualsOracleOn200RandomProblems) {
  Rng rng(0xF00D);
  const VwSdkMapper vw;
  const ExhaustiveMapper oracle;
  const PrunedVwSdkMapper pruned;
  for (int i = 0; i < 200; ++i) {
    const RandomDraw d = draw(rng, /*small=*/false);
    const Cycles vw_cycles = vw.map(d.shape, d.geometry).cost.total;
    const Cycles oracle_cycles = oracle.map(d.shape, d.geometry).cost.total;
    const MappingDecision pruned_decision = pruned.map(d.shape, d.geometry);
    EXPECT_EQ(vw_cycles, oracle_cycles) << "draw " << i << ": " << d.context;
    EXPECT_EQ(pruned_decision.cost.total, vw_cycles)
        << "draw " << i << ": " << d.context;
    EXPECT_EQ(pruned_decision.cost.window,
              vw.map(d.shape, d.geometry).cost.window)
        << "draw " << i << ": " << d.context;
  }
}

TEST(Randomized, PlansAlwaysValidOn100RandomProblems) {
  Rng rng(0xBEEF);
  for (int i = 0; i < 100; ++i) {
    const RandomDraw d = draw(rng, /*small=*/false);
    for (const char* name : {"im2col", "smd", "sdk", "vw-sdk"}) {
      const MappingDecision decision =
          make_mapper(name)->map(d.shape, d.geometry);
      ASSERT_TRUE(decision.cost.feasible)
          << name << " draw " << i << ": " << d.context;
      const MappingPlan plan =
          build_plan_for_cost(d.shape, d.geometry, decision.cost);
      const auto issues = validate_plan(plan);
      EXPECT_TRUE(issues.empty())
          << name << " draw " << i << ": " << d.context << " -> "
          << (issues.empty() ? "" : issues.front());
    }
  }
}

TEST(Randomized, FunctionalEquivalenceOn40SmallRandomProblems) {
  Rng rng(0xCAFE);
  for (int i = 0; i < 40; ++i) {
    const RandomDraw d = draw(rng, /*small=*/true);
    for (const char* name : {"im2col", "smd", "vw-sdk"}) {
      const MappingDecision decision =
          make_mapper(name)->map(d.shape, d.geometry);
      const MappingPlan plan =
          build_plan_for_cost(d.shape, d.geometry, decision.cost);
      const VerificationReport report = verify_mapping_random(
          plan, 0x1000u + static_cast<std::uint64_t>(i));
      EXPECT_TRUE(report.exact_match)
          << name << " draw " << i << ": " << d.context << " -> "
          << report.summary;
      EXPECT_TRUE(report.cycles_match)
          << name << " draw " << i << ": " << d.context;
    }
  }
}

TEST(Randomized, StridedPaddedEquivalenceOn25RandomProblems) {
  Rng rng(0xD00D);
  for (int i = 0; i < 25; ++i) {
    RandomDraw d = draw(rng, /*small=*/true);
    d.shape.stride_w = static_cast<Dim>(rng.uniform_int(1, 3));
    d.shape.stride_h = static_cast<Dim>(rng.uniform_int(1, 3));
    d.shape.pad_w = static_cast<Dim>(rng.uniform_int(0, 2));
    d.shape.pad_h = static_cast<Dim>(rng.uniform_int(0, 2));
    d.shape.validate();
    const MappingDecision decision =
        make_mapper("vw-sdk")->map(d.shape, d.geometry);
    const MappingPlan plan =
        build_plan_for_cost(d.shape, d.geometry, decision.cost);
    const VerificationReport report = verify_mapping_random(
        plan, 0x2000u + static_cast<std::uint64_t>(i));
    EXPECT_TRUE(report.exact_match)
        << "draw " << i << ": " << d.shape.to_string() << " on "
        << d.geometry.to_string() << " -> " << report.summary;
  }
}

}  // namespace
}  // namespace vwsdk
