/// Functional verification of SDK's entire-channel windows that overflow
/// one array (Eq. (1)'s element-granular AR and column-granular AC) --
/// the VGG-13 conv2 regime, scaled down to executable sizes.

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/sdk_mapper.h"
#include "mapping/plan_builder.h"
#include "mapping/plan_validate.h"
#include "sim/verifier.h"

namespace vwsdk {
namespace {

TEST(ElementSplit, SdkOversizedWindowBuildsAndValidates) {
  // 10x10, 3x3x8x4 on 64x16: im2col AR = ceil(72/64) = 2; SDK's 4x4
  // window needs 128 rows -> AR = 2 as well (allowed), 1024 > one array.
  const ConvShape shape = ConvShape::square(10, 3, 8, 4);
  const ArrayGeometry geometry{64, 16};
  const SdkMapper sdk;
  const MappingDecision decision = sdk.map(shape, geometry);
  ASSERT_EQ(decision.cost.window, (ParallelWindow{4, 4}));
  ASSERT_EQ(decision.cost.ar_cycles, 2);
  const MappingPlan plan =
      build_plan_for_cost(shape, geometry, decision.cost);
  // The window's whole channels overflow one array, so rows are cut
  // every 64 elements rather than between channels.
  EXPECT_GT(plan.cost.window.area() * plan.cost.ic_t, geometry.rows);
  EXPECT_TRUE(validate_plan(plan).empty());
  // The first AR slice is a full array; the second holds the remainder
  // (128 - 64 = 64 flat elements), split mid-channel (64 / 16 = channel 4
  // starts at offset 0 -- actually element 64 = channel 4, offset 0).
  EXPECT_EQ(plan.tiles[0].rows.size(), 64u);
  EXPECT_EQ(plan.tiles[1].rows.size(), 64u);
}

TEST(ElementSplit, SdkOversizedWindowExecutesExactly) {
  const ConvShape shape = ConvShape::square(10, 3, 8, 4);
  const ArrayGeometry geometry{64, 16};
  const MappingDecision decision = SdkMapper().map(shape, geometry);
  const MappingPlan plan =
      build_plan_for_cost(shape, geometry, decision.cost);
  const VerificationReport report = verify_mapping_random(plan, 77);
  EXPECT_TRUE(report.exact_match) << report.summary;
  EXPECT_TRUE(report.cycles_match) << report.summary;
}

TEST(ElementSplit, ColumnSplitAcrossAcTiles) {
  // A wide window whose duplicated kernels exceed the columns: 6x4 window
  // on 3x3 kernel -> N_WP = 8; OC = 6 -> 48 flat columns over 16-column
  // arrays = 3 AC tiles, cutting one output channel's windows across
  // arrays.
  const ConvShape shape = ConvShape::square(8, 3, 2, 6);
  const ArrayGeometry geometry{48, 16};
  const CycleCost cost = sdk_cost(shape, geometry, {6, 4});
  ASSERT_TRUE(cost.feasible);
  ASSERT_EQ(cost.ac_cycles, 3);
  ASSERT_EQ(cost.ar_cycles, 1);
  const MappingPlan plan = build_plan_for_cost(shape, geometry, cost);
  EXPECT_TRUE(validate_plan(plan).empty());
  const VerificationReport report = verify_mapping_random(plan, 99);
  EXPECT_TRUE(report.exact_match) << report.summary;
  EXPECT_TRUE(report.cycles_match) << report.summary;
}

TEST(ElementSplit, BothAxesSplitSimultaneously) {
  const ConvShape shape = ConvShape::square(9, 3, 6, 5);
  const ArrayGeometry geometry{40, 12};
  const CycleCost cost = sdk_cost(shape, geometry, {5, 4});
  ASSERT_TRUE(cost.feasible);
  ASSERT_GT(cost.ar_cycles, 1);
  ASSERT_GT(cost.ac_cycles, 1);
  const MappingPlan plan = build_plan_for_cost(shape, geometry, cost);
  EXPECT_TRUE(validate_plan(plan).empty());
  const VerificationReport report = verify_mapping_random(plan, 13);
  EXPECT_TRUE(report.exact_match) << report.summary;
}

TEST(ElementSplit, RejectsNonSdkCosts) {
  // IC = 16 on 64 rows with a 4x3 window: VW's channel tile IC_t = 5
  // gives AR = ceil(16/5) = 4, while SDK's entire channels split at
  // element granularity need only ceil(192/64) = 3 arrays.  Each cost
  // builds; an entire-channel cost carrying VW's AR does not match its
  // own cut, and the builder must refuse to mislabel it.
  const ConvShape shape = ConvShape::square(8, 3, 16, 6);
  const ArrayGeometry geometry{64, 32};
  const CycleCost vw = vw_cost(shape, geometry, {4, 3});
  const CycleCost sdk = sdk_cost(shape, geometry, {4, 3});
  ASSERT_EQ(vw.ar_cycles, 4);
  ASSERT_EQ(sdk.ar_cycles, 3);
  EXPECT_EQ(build_plan_for_cost(shape, geometry, vw).tiles.size(), 4u);
  EXPECT_EQ(build_plan_for_cost(shape, geometry, sdk).tiles.size(), 3u);
  CycleCost mixed = sdk;
  mixed.ar_cycles = vw.ar_cycles;
  mixed.total = vw.total;
  EXPECT_THROW(build_plan_for_cost(shape, geometry, mixed), InvalidArgument);
}

TEST(ElementSplit, DispatcherPrefersFittingPlans) {
  // When the SDK window fits one array, its rows are cut between
  // channels: one tile holds every channel of the window.
  const ConvShape shape = ConvShape::square(10, 3, 2, 4);
  const ArrayGeometry geometry{64, 16};
  const MappingDecision decision = SdkMapper().map(shape, geometry);
  if (!decision.is_im2col_fallback() &&
      decision.cost.window.area() * decision.cost.ic_t <= geometry.rows) {
    const MappingPlan plan =
        build_plan_for_cost(shape, geometry, decision.cost);
    EXPECT_EQ(static_cast<Count>(plan.tiles.front().rows.size()),
              decision.cost.window.area() * decision.cost.ic_t);
  }
}

}  // namespace
}  // namespace vwsdk
