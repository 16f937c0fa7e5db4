/// Smoke test for the documented VGG-13 conv5 tie-break (vwsdk_mapper.h):
/// on a 512x512 array, the 4x4 window ties the 4x3 window at 5832 cycles,
/// and Algorithm 1's first-strict-minimum scan must report 4x3 because it
/// is visited first.  Goes through the model zoo so the layer is exactly
/// the one Table I prints.

#include <gtest/gtest.h>

#include "core/vwsdk_mapper.h"
#include "mapping/cost_model.h"
#include "nn/model_zoo.h"

namespace vwsdk {
namespace {

const ArrayGeometry k512x512{512, 512};

ConvShape vgg13_conv5() {
  return ConvShape::from_layer(vgg13_paper().layer_by_name("conv5"));
}

TEST(VwSdkSmoke, Vgg13Conv5WindowsTieAt5832) {
  const ConvShape conv5 = vgg13_conv5();
  const CycleCost c43 = vw_cost(conv5, k512x512, {4, 3});
  const CycleCost c44 = vw_cost(conv5, k512x512, {4, 4});
  ASSERT_TRUE(c43.feasible);
  ASSERT_TRUE(c44.feasible);
  EXPECT_EQ(c43.total, 5832);
  EXPECT_EQ(c44.total, 5832);
}

TEST(VwSdkSmoke, Vgg13Conv5FirstMinimumPicks4x3) {
  const VwSdkMapper mapper;
  const MappingDecision decision = mapper.map(vgg13_conv5(), k512x512);
  EXPECT_EQ(decision.cost.window, (ParallelWindow{4, 3}));
  EXPECT_EQ(decision.cost.total, 5832);
  EXPECT_FALSE(decision.is_im2col_fallback());
}

TEST(VwSdkSmoke, Vgg13Conv5ScanVisits4x3Before4x4) {
  const VwSdkMapper mapper;
  SearchTrace trace;
  MappingContext context{vgg13_conv5(), k512x512};
  context.trace = &trace;
  (void)mapper.map(context);
  std::ptrdiff_t seen_4x3 = -1;
  std::ptrdiff_t seen_4x4 = -1;
  const auto& steps = trace.steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].window == (ParallelWindow{4, 3}) && seen_4x3 < 0) {
      seen_4x3 = static_cast<std::ptrdiff_t>(i);
    }
    if (steps[i].window == (ParallelWindow{4, 4}) && seen_4x4 < 0) {
      seen_4x4 = static_cast<std::ptrdiff_t>(i);
    }
  }
  ASSERT_GE(seen_4x3, 0);
  ASSERT_GE(seen_4x4, 0);
  EXPECT_LT(seen_4x3, seen_4x4);
}

}  // namespace
}  // namespace vwsdk
