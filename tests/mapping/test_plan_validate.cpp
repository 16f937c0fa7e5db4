#include "mapping/plan_validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "mapping/plan_builder.h"
#include "support/support.h"

namespace vwsdk {
namespace {

const ArrayGeometry kSmall{64, 32};

MappingPlan good_plan() {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  return build_plan_for_window(shape, kSmall, {4, 3});
}

bool has_issue(const MappingPlan& plan, const std::string& text) {
  const auto issues = validate_plan(plan);
  return std::any_of(issues.begin(), issues.end(), [&](const auto& issue) {
    return issue.find(text) != std::string::npos;
  });
}

TEST(PlanValidate, BuilderOutputsAreValid) {
  EXPECT_TRUE(validate_plan(good_plan()).empty());
  EXPECT_NO_THROW(expect_valid(good_plan()));
}

TEST(PlanValidate, DetectsCellCollision) {
  // A second binding of column 0 would program every cell of that column
  // twice.
  MappingPlan plan = good_plan();
  plan.tiles[0].cols.push_back(plan.tiles[0].cols.front());
  const auto issues = validate_plan(plan);
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const std::string& issue : issues) {
    found = found || issue.find("duplicate col binding 0") != std::string::npos;
  }
  EXPECT_TRUE(found);
  EXPECT_THROW(expect_valid(plan), InternalError);
}

TEST(PlanValidate, DetectsRowOutsideArray) {
  MappingPlan plan = good_plan();
  plan.tiles[0].rows.front().row = 64;
  const auto issues = validate_plan(plan);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("outside array"), std::string::npos);
}

TEST(PlanValidate, DetectsDuplicateRowBinding) {
  MappingPlan plan = good_plan();
  plan.tiles[0].rows.push_back(plan.tiles[0].rows.front());
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found || issue.find("duplicate row binding") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsGeometryBreak) {
  MappingPlan plan = good_plan();
  // Move row 0's offset (dy, dx) = (0, 0) onto (1, 0), another in-window
  // offset: row 0 would now feed W[..][..][1][0] where (0, 0) belongs.
  RowBinding& moved = plan.tiles[0].rows.front();
  ASSERT_EQ(moved.dy, 0);
  ASSERT_EQ(moved.dx, 0);
  moved.dy = 1;
  EXPECT_TRUE(
      has_issue(plan, "input row entity (ic=0, dy=1, dx=0) bound twice"));
  EXPECT_TRUE(
      has_issue(plan, "input row entity (ic=0, dy=0, dx=0) not mapped"));
}

TEST(PlanValidate, DetectsChannelDroppedFromCoverage) {
  MappingPlan plan = good_plan();
  // Remove every row binding of channel 2.
  auto& rows = plan.tiles[0].rows;
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [](const RowBinding& rb) { return rb.ic == 2; }),
             rows.end());
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found || issue.find("input row entity (ic=2, dy=0, dx=0) "
                                "not mapped") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsOutputChannelMissing) {
  MappingPlan plan = good_plan();
  auto& cols = plan.tiles[0].cols;
  cols.erase(std::remove_if(cols.begin(), cols.end(),
                            [](const ColBinding& cb) { return cb.oc == 5; }),
             cols.end());
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found || issue.find("output column entity (oc=5, win_py=0, "
                                "win_px=0) not mapped") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsRowMissingFromOneTileOfItsBand) {
  // AR = 2, AC = 3: every row of AR band 0 must sit in all three tiles.
  const ConvShape shape = ConvShape::square(8, 3, 9, 40);
  MappingPlan plan = build_plan_for_window(shape, kSmall, {4, 3});
  ASSERT_EQ(plan.cost.ac_cycles, 3);
  plan.tiles[1].rows.pop_back();
  EXPECT_TRUE(has_issue(plan, "bound 2 times, expected 3"));
}

TEST(PlanValidate, DetectsColumnsThatDifferAcrossOneAcBand) {
  // AR = 2, AC = 3: the executor sums tile(0,0) and tile(1,0) per array
  // column, so both must bind each column to the same output.  Swapping
  // two column indices in tile(0,0) alone keeps every index unique and
  // every output covered.
  const ConvShape shape = ConvShape::square(8, 3, 9, 40);
  MappingPlan plan = build_plan_for_window(shape, kSmall, {4, 3});
  ASSERT_EQ(plan.cost.ar_cycles, 2);
  std::swap(plan.tiles[0].cols[0].col, plan.tiles[0].cols[1].col);
  EXPECT_TRUE(has_issue(
      plan, "tile(1,0): column bindings differ from tile(0,0)"));
  EXPECT_THROW(expect_valid(plan), InternalError);
}

TEST(PlanValidate, DetectsBindingOutsideTheLayer) {
  MappingPlan plan = good_plan();
  plan.tiles[0].rows.front().ic = 4;  // the layer has channels 0..3
  EXPECT_TRUE(has_issue(plan, "row 0 binds an input outside the layer"));
  plan = good_plan();
  plan.tiles[0].cols.front().win_px = 2;  // two windows per row: 0 and 1
  EXPECT_TRUE(has_issue(plan, "col 0 binds an output outside the layer"));
}

TEST(PlanValidate, DetectsSmdDuplicateMissingAnEntity) {
  // Dup 1's first row rebound to dup 0: dup 0 binds (ic 0, 0, 0) twice,
  // dup 1 not at all.
  const ConvShape shape = ConvShape::square(6, 3, 1, 2);
  MappingPlan plan =
      build_plan_for_cost(shape, kSmall, smd_cost(shape, kSmall));
  ASSERT_GT(plan.cost.smd_duplicates, 1);
  RowBinding& row = plan.tiles[0].rows[9];
  ASSERT_EQ(row.dup, 1);
  row.dup = 0;
  EXPECT_TRUE(has_issue(plan, "input row entity (ic=0, dy=0, dx=0) bound "
                              "twice"));
}

TEST(PlanValidate, DetectsBaseGridGap) {
  MappingPlan plan = good_plan();
  plan.base_x.pop_back();
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found ||
            issue.find("not fully covered along x") != std::string::npos ||
            issue.find("cycles") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsCycleMismatch) {
  MappingPlan plan = good_plan();
  plan.cost.total += 1;
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found || issue.find("analytic cycles") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsEmptyPlan) {
  MappingPlan plan;
  plan.shape = ConvShape::square(8, 3, 4, 6);
  plan.geometry = kSmall;
  const auto issues = validate_plan(plan);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("no tiles"), std::string::npos);
}

TEST(PlanValidate, SmdAndIm2colPlansValidate) {
  const ConvShape small = ConvShape::square(6, 3, 1, 2);
  EXPECT_TRUE(validate_plan(build_plan_for_cost(small, kSmall,
                                                smd_cost(small, kSmall)))
                  .empty());
  const ConvShape split = ConvShape::square(6, 3, 8, 10);
  EXPECT_TRUE(validate_plan(build_plan_for_cost(split, kSmall,
                                                im2col_cost(split, kSmall)))
                  .empty());
}

}  // namespace
}  // namespace vwsdk
