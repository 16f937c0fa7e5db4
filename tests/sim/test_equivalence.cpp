/// The repo's strongest correctness evidence: every mapping strategy,
/// executed cell by cell on the functional crossbar, must reproduce the
/// reference convolution EXACTLY (integer-valued tensors, ideal ADC).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/mapping_decision.h"
#include "mapping/plan_builder.h"
#include "sim/verifier.h"

namespace vwsdk {
namespace {

struct EquivalenceCase {
  const char* label;
  Dim image, kernel, ic, oc, rows, cols;
};

std::ostream& operator<<(std::ostream& os, const EquivalenceCase& c) {
  return os << c.label;
}

// The mapper name is a std::string, not a const char*: gtest prints a
// pointer parameter as its address, which would put a per-run address
// into every listed (and ctest-discovered) test name.
class MapperEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, EquivalenceCase>> {};

TEST_P(MapperEquivalence, CrossbarMatchesReferenceConv) {
  const auto& [mapper_name, c] = GetParam();
  const ConvShape shape = ConvShape::square(c.image, c.kernel, c.ic, c.oc);
  const ArrayGeometry geometry{c.rows, c.cols};
  const MappingDecision decision =
      make_mapper(mapper_name)->map(shape, geometry);
  const MappingPlan plan =
      build_plan_for_cost(shape, geometry, decision.cost);
  const VerificationReport report = verify_mapping_random(plan, 0xABCD);
  EXPECT_TRUE(report.exact_match) << report.summary;
  EXPECT_TRUE(report.cycles_match) << report.summary;
}

INSTANTIATE_TEST_SUITE_P(
    AllMappersAllShapes, MapperEquivalence,
    ::testing::Combine(
        ::testing::Values("im2col", "smd", "sdk", "vw-sdk"),
        ::testing::Values(
            // Regimes: wide-open window search, AR-tiled, AC-tiled, both,
            // im2col-fallback, tiny, non-square image.
            EquivalenceCase{"open", 12, 3, 2, 4, 64, 32},
            EquivalenceCase{"ar_tiled", 8, 3, 20, 4, 64, 32},
            EquivalenceCase{"ac_tiled", 8, 3, 2, 40, 64, 32},
            EquivalenceCase{"both_tiled", 8, 3, 20, 40, 64, 32},
            EquivalenceCase{"fallback", 6, 3, 30, 30, 64, 32},
            EquivalenceCase{"tiny", 4, 3, 1, 1, 16, 8},
            EquivalenceCase{"k5", 9, 5, 3, 6, 128, 64},
            EquivalenceCase{"k1", 6, 1, 5, 7, 32, 16})),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param).label;
      for (char& c : name) {
        if (c == '-') {
          c = '_';  // gtest parameter names must be alphanumeric
        }
      }
      return name;
    });

TEST(MapperEquivalence, NonSquareImageAndKernel) {
  ConvShape shape;
  shape.ifm_w = 11;
  shape.ifm_h = 7;
  shape.kernel_w = 5;
  shape.kernel_h = 3;
  shape.in_channels = 3;
  shape.out_channels = 4;
  shape.validate();
  const ArrayGeometry geometry{96, 48};
  for (const char* name : {"im2col", "vw-sdk", "smd"}) {
    const MappingDecision decision = make_mapper(name)->map(shape, geometry);
    const MappingPlan plan =
        build_plan_for_cost(shape, geometry, decision.cost);
    const VerificationReport report = verify_mapping_random(plan, 7);
    EXPECT_TRUE(report.exact_match) << name << ": " << report.summary;
  }
}

TEST(MapperEquivalence, StridedAndPaddedConv) {
  ConvShape shape = ConvShape::square(9, 3, 3, 5);
  shape.stride_w = 2;
  shape.stride_h = 2;
  shape.pad_w = 1;
  shape.pad_h = 1;
  const ArrayGeometry geometry{64, 32};
  for (const char* name : {"im2col", "vw-sdk"}) {
    const MappingDecision decision = make_mapper(name)->map(shape, geometry);
    const MappingPlan plan =
        build_plan_for_cost(shape, geometry, decision.cost);
    const VerificationReport report = verify_mapping_random(plan, 11);
    EXPECT_TRUE(report.exact_match) << name << ": " << report.summary;
    EXPECT_TRUE(report.cycles_match) << name << ": " << report.summary;
  }
}

TEST(MapperEquivalence, EverySpecificWindowShapeOnOneLayer) {
  // Execute EVERY feasible window of a small layer, not just the optimum:
  // the plan builder and executor must be correct for arbitrary windows.
  const ConvShape shape = ConvShape::square(7, 3, 3, 5);
  const ArrayGeometry geometry{72, 24};
  int tested = 0;
  for (Dim w = 3; w <= 7; ++w) {
    for (Dim h = 3; h <= 7; ++h) {
      const CycleCost cost = vw_cost(shape, geometry, {w, h});
      if (!cost.feasible) {
        continue;
      }
      const MappingPlan plan = build_plan_for_cost(
          shape, geometry,
          (w == 3 && h == 3) ? im2col_cost(shape, geometry) : cost);
      const VerificationReport report =
          verify_mapping_random(plan, 1000 + static_cast<unsigned>(w * 8 + h));
      EXPECT_TRUE(report.exact_match)
          << "window " << w << "x" << h << ": " << report.summary;
      ++tested;
    }
  }
  EXPECT_GE(tested, 15);
}

}  // namespace
}  // namespace vwsdk
