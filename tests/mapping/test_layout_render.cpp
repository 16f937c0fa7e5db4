#include "mapping/layout_render.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "mapping/plan_builder.h"

namespace vwsdk {
namespace {

TEST(LayoutRender, SmallTileShowsCells) {
  const ConvShape shape = ConvShape::square(5, 3, 1, 2);
  const ArrayGeometry geometry{16, 8};
  const MappingPlan plan = build_plan_for_window(shape, geometry, {4, 3});
  const std::string art = render_tile(plan, 0, 0);
  EXPECT_NE(art.find("tile(0,0)"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('.'), std::string::npos);
  // 16 rows of the grid plus the header line.
  EXPECT_GE(std::count(art.begin(), art.end(), '\n'), 17);
}

TEST(LayoutRender, SdkLayoutHasStructuralZeroInterleave) {
  // For a 4x3 window on a 3x3 kernel, each column holds 9 of 12 offsets:
  // the rendered first column must contain both '#' and '.' within the
  // first 12 rows.
  const ConvShape shape = ConvShape::square(5, 3, 1, 1);
  const ArrayGeometry geometry{12, 2};
  const MappingPlan plan = build_plan_for_window(shape, geometry, {4, 3});
  const ArrayTile& tile = plan.tile(0, 0);
  int programmed = 0;
  for_each_cell(plan.shape, tile,
                [&](const RowBinding&, const ColBinding& cb, Dim, Dim) {
                  programmed += (cb.col == 0) ? 1 : 0;
                });
  EXPECT_EQ(programmed, 9);  // K^2 weights in a 12-row window column
}

TEST(LayoutRender, LargeArrayTruncated) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const ArrayGeometry geometry{512, 512};
  const MappingPlan plan = build_plan_for_window(shape, geometry, {4, 3});
  const std::string art = render_tile(plan, 0, 0, 8, 16);
  EXPECT_NE(art.find("showing top-left 8x16"), std::string::npos);
}

TEST(LayoutRender, TileIndexBoundsChecked) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan =
      build_plan_for_window(shape, {64, 32}, {4, 3});
  EXPECT_THROW(render_tile(plan, 1, 0), InvalidArgument);
}

TEST(LayoutRender, DescribePlanSummarizes) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan =
      build_plan_for_window(shape, {64, 32}, {4, 3});
  const std::string text = describe_plan(plan);
  EXPECT_NE(text.find("plan[windowed]"), std::string::npos);
  EXPECT_NE(text.find("base grid"), std::string::npos);
  EXPECT_NE(text.find("total cycles"), std::string::npos);

  const ConvShape small = ConvShape::square(6, 3, 1, 2);
  const std::string smd_text = describe_plan(build_smd_plan(small, {64, 32}));
  EXPECT_NE(smd_text.find("smd duplicates"), std::string::npos);
}

}  // namespace
}  // namespace vwsdk
