#include "mapping/plan_builder.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/error.h"
#include "mapping/plan_validate.h"
#include "support/support.h"

namespace vwsdk {
namespace {

const ArrayGeometry kSmall{64, 32};

TEST(PlanBuilder, WindowedPlanStructure) {
  // 8x8 image, 3x3 kernel, 4 IC, 6 OC on a 64x32 array with a 4x3 window:
  // IC_t = floor(64/12) = 5 -> clamped... IC=4 <= 5 so IC_t = 4, AR = 1.
  // N_WP = 2, OC_t = floor(32/2) = 16 -> clamped 6, AC = 1.
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const CycleCost cost = vw_cost(shape, kSmall, {4, 3});
  ASSERT_TRUE(cost.feasible);
  const MappingPlan plan = build_plan_for_cost(shape, kSmall, cost);

  EXPECT_EQ(plan.cost, cost);
  EXPECT_FALSE(plan.is_smd());
  EXPECT_EQ(plan.tiles.size(), 1u);
  // Base grid: windows_w = 6, per PW = 2 -> 3 bases; windows_h = 6 / 1 -> 6.
  EXPECT_EQ(plan.base_x.size(), 3u);
  EXPECT_EQ(plan.base_y.size(), 6u);
  // Rows: 4 channels x 12 offsets = 48 bindings; cols: 6 oc x 2 = 12.
  EXPECT_EQ(plan.tiles[0].rows.size(), 48u);
  EXPECT_EQ(plan.tiles[0].cols.size(), 12u);
  // Cells: 6 oc x 2 windows x 4 ic x 9 kernel = 432.
  EXPECT_EQ(plan.programmed_cells(), 432);
  EXPECT_TRUE(validate_plan(plan).empty());
}

TEST(PlanBuilder, WindowedPlanClampedLastBaseOverlaps) {
  // windows_w = 5, per PW = 2 -> bases at windows 0, 2, 3 (clamped).
  const ConvShape shape = ConvShape::square(7, 3, 2, 2);
  const CycleCost cost = vw_cost(shape, kSmall, {4, 3});
  const MappingPlan plan = build_plan_for_cost(shape, kSmall, cost);
  ASSERT_EQ(plan.base_x.size(), 3u);
  EXPECT_EQ(plan.base_x[0], 0);
  EXPECT_EQ(plan.base_x[1], 2);
  EXPECT_EQ(plan.base_x[2], 3);  // clamped from 4: window must fit in 7
  EXPECT_TRUE(validate_plan(plan).empty());
}

TEST(PlanBuilder, WindowedPlanChannelTiling) {
  // IC = 9, IC_t = floor(64/12) = 5 -> AR = 2 tiles (5 + 4 channels).
  const ConvShape shape = ConvShape::square(8, 3, 9, 40);
  const CycleCost cost = vw_cost(shape, kSmall, {4, 3});
  ASSERT_EQ(cost.ar_cycles, 2);
  ASSERT_EQ(cost.ac_cycles, 3);  // OC_t = 16 -> ceil(40/16) = 3
  const MappingPlan plan = build_plan_for_cost(shape, kSmall, cost);
  EXPECT_EQ(plan.tiles.size(), 6u);
  // Tiles are AR-major: tile (ar, ac) is tiles[ar * 3 + ac].
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    EXPECT_EQ(plan.tiles[t].ar_index, static_cast<Dim>(t / 3));
    EXPECT_EQ(plan.tiles[t].ac_index, static_cast<Dim>(t % 3));
  }
  // First AR band holds channels 0..4, second 5..8.
  EXPECT_EQ(plan.tiles[0].rows.front().ic, 0);
  EXPECT_EQ(plan.tiles[3].rows.front().ic, 5);
  EXPECT_EQ(plan.tiles[3].rows.size(), 4u * 12u);
  // Last AC tile holds 40 - 2*16 = 8 output channels x N_WP = 2 cols.
  EXPECT_EQ(plan.tiles[2].cols.size(), 16u);
  EXPECT_TRUE(validate_plan(plan).empty());
}

TEST(PlanBuilder, Im2colPlanDenseRows) {
  // K^2*IC = 9*8 = 72 > 64 rows -> AR = 2 element slices (64 + 8).
  const ConvShape shape = ConvShape::square(6, 3, 8, 10);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, im2col_cost(shape, kSmall));
  ASSERT_EQ(plan.cost.ar_cycles, 2);
  EXPECT_EQ(plan.tiles[0].rows.size(), 64u);
  EXPECT_EQ(plan.tiles[1].rows.size(), 8u);
  // A split mid-channel: flat element 64 = channel 7, ky 0, kx 1.
  const RowBinding& first_of_second = plan.tiles[1].rows.front();
  EXPECT_EQ(first_of_second.row, 0);
  EXPECT_EQ(first_of_second.ic, 7);
  EXPECT_EQ(first_of_second.dy, 0);
  EXPECT_EQ(first_of_second.dx, 1);
  EXPECT_TRUE(validate_plan(plan).empty());
}

TEST(PlanBuilder, Im2colPlanBaseGridIsEveryWindow) {
  const ConvShape shape = ConvShape::square(6, 3, 1, 1);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, im2col_cost(shape, kSmall));
  EXPECT_EQ(plan.base_x.size(), 4u);
  EXPECT_EQ(plan.base_y.size(), 4u);
  EXPECT_EQ(plan.total_cycles(), 16);
}

TEST(PlanBuilder, SmdPlanBlockDiagonal) {
  // K^2*IC = 9, OC = 2: by_rows = floor(64/9) = 7, by_cols = 16 -> D = 7,
  // capped by 16 windows -> 7.
  const ConvShape shape = ConvShape::square(6, 3, 1, 2);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, smd_cost(shape, kSmall));
  EXPECT_TRUE(plan.is_smd());
  EXPECT_EQ(plan.cost.smd_duplicates, 7);
  EXPECT_TRUE(plan.base_x.empty() && plan.base_y.empty());
  ASSERT_EQ(plan.tiles.size(), 1u);
  // 7 dups x 9 rows, 7 dups x 2 cols, 7 x 18 cells.
  EXPECT_EQ(plan.tiles[0].rows.size(), 63u);
  EXPECT_EQ(plan.tiles[0].cols.size(), 14u);
  EXPECT_EQ(plan.programmed_cells(), 126);
  // Block-diagonal: dup d occupies rows [9d, 9d+9) and cols [2d, 2d+2).
  for_each_cell(plan.shape, plan.tiles[0],
                [](const RowBinding& rb, const ColBinding& cb, Dim, Dim) {
                  EXPECT_EQ(rb.row / 9, cb.col / 2);
                });
  EXPECT_TRUE(validate_plan(plan).empty());
}

TEST(PlanBuilder, SmdFallsBackToIm2colWhenOneCopy) {
  // 72 rows > 64: one copy fits, so the SMD cost is the im2col cost and
  // builds the im2col plan.
  const ConvShape shape = ConvShape::square(6, 3, 8, 10);
  const CycleCost cost = smd_cost(shape, kSmall);
  ASSERT_EQ(cost, im2col_cost(shape, kSmall));
  const MappingPlan plan = build_plan_for_cost(shape, kSmall, cost);
  EXPECT_FALSE(plan.is_smd());
  EXPECT_EQ(plan.base_x.size(), 4u);
  EXPECT_EQ(plan.tiles.size(), 2u);
}

TEST(PlanBuilder, PlanForWindowDispatches) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  EXPECT_EQ(build_plan_for_window(shape, kSmall, {3, 3}).cost,
            im2col_cost(shape, kSmall));
  EXPECT_EQ(build_plan_for_window(shape, kSmall, {4, 3}).cost,
            vw_cost(shape, kSmall, {4, 3}));
  EXPECT_THROW(build_plan_for_window(shape, kSmall, {30, 30}),
               InvalidArgument);
}

TEST(PlanBuilder, PlanForCostDispatches) {
  // Every cost function's cost builds a valid plan that stores it and
  // runs its cycles.
  const ConvShape small = ConvShape::square(6, 3, 1, 2);
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  for (const auto& [s, cost] :
       {std::pair{small, smd_cost(small, kSmall)},
        std::pair{small, im2col_cost(small, kSmall)},
        std::pair{shape, vw_cost(shape, kSmall, {4, 3})},
        std::pair{shape, sdk_cost(shape, kSmall, {8, 8})}}) {
    const MappingPlan plan = build_plan_for_cost(s, kSmall, cost);
    EXPECT_EQ(plan.cost, cost) << cost.to_string();
    EXPECT_EQ(plan.total_cycles(), cost.total) << cost.to_string();
    EXPECT_TRUE(validate_plan(plan).empty()) << cost.to_string();
  }
  CycleCost bad;
  EXPECT_THROW(build_plan_for_cost(shape, kSmall, bad), InvalidArgument);
}

TEST(PlanBuilder, RejectsInfeasibleOrForeignCosts) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const CycleCost infeasible = vw_cost(shape, kSmall, {30, 30});
  EXPECT_THROW(build_plan_for_cost(shape, kSmall, infeasible),
               InvalidArgument);
  // Tile counts that are not the cut's.
  CycleCost miscounted = vw_cost(shape, kSmall, {4, 3});
  miscounted.ac_cycles += 1;
  EXPECT_THROW(build_plan_for_cost(shape, kSmall, miscounted),
               InvalidArgument);
  // An empty channel tile.
  CycleCost empty = vw_cost(shape, kSmall, {4, 3});
  empty.oc_t = 0;
  EXPECT_THROW(build_plan_for_cost(shape, kSmall, empty), InvalidArgument);
  // More SMD duplicates than the array holds: 8 x 9 rows > 64.
  const ConvShape small = ConvShape::square(6, 3, 1, 2);
  CycleCost crowded = smd_cost(small, kSmall);
  ASSERT_EQ(crowded.smd_duplicates, 7);
  crowded.smd_duplicates = 8;
  EXPECT_THROW(build_plan_for_cost(small, kSmall, crowded), InvalidArgument);
}

TEST(PlanBuilder, EveryTileHoldsOneContiguousFlatRange) {
  // The tiling rule: a tile's rows are a range of the flattened
  // (ic, dy, dx), each bound at its offset from the range's start, and
  // the AR bands' ranges follow one another; likewise its columns over
  // (oc, wy, wx).
  const ConvShape shape = ConvShape::square(9, 3, 6, 5);
  const ArrayGeometry geometry{40, 12};
  for (const CycleCost& cost :
       {im2col_cost(shape, geometry), sdk_cost(shape, geometry, {5, 4}),
        vw_cost(shape, geometry, {4, 3})}) {
    ASSERT_TRUE(cost.feasible) << cost.to_string();
    const MappingPlan plan = build_plan_for_cost(shape, geometry, cost);
    const ParallelWindow pw = cost.window;
    const auto flat_row = [&](const RowBinding& rb) {
      return rb.ic * pw.w * pw.h + rb.dy * pw.w + rb.dx;
    };
    const Dim wip_w = static_cast<Dim>(windows_in_pw_w(shape, pw));
    const Dim n_wp = static_cast<Dim>(windows_in_pw(shape, pw));
    const auto flat_col = [&](const ColBinding& cb) {
      return cb.oc * n_wp + cb.win_py * wip_w + cb.win_px;
    };
    Count next_row = 0;
    for (const ArrayTile& tile : plan.tiles) {
      const Dim row_first = flat_row(tile.rows.front());
      if (tile.ac_index == 0) {
        EXPECT_EQ(row_first, next_row) << cost.to_string();
        next_row += static_cast<Count>(tile.rows.size());
      }
      for (const RowBinding& rb : tile.rows) {
        EXPECT_EQ(flat_row(rb), row_first + rb.row) << cost.to_string();
      }
      const Dim col_first = flat_col(tile.cols.front());
      for (const ColBinding& cb : tile.cols) {
        EXPECT_EQ(flat_col(cb), col_first + cb.col) << cost.to_string();
      }
    }
    EXPECT_EQ(next_row, pw.area() * shape.in_channels) << cost.to_string();
  }
}

TEST(PlanBuilder, StridedWindowedPlan) {
  // Stride-2 extension: 9x9 image, 3x3 kernel, stride 2 -> 4x4 windows.
  ConvShape shape = ConvShape::square(9, 3, 2, 3);
  shape.stride_w = 2;
  shape.stride_h = 2;
  const CycleCost cost = vw_cost(shape, kSmall, {5, 5});  // 2x2 windows/PW
  ASSERT_TRUE(cost.feasible);
  const MappingPlan plan = build_plan_for_cost(shape, kSmall, cost);
  EXPECT_EQ(plan.base_x.size(), 2u);
  EXPECT_EQ(plan.base_x[1], 4);  // second PW starts at window 2 -> pixel 4
  EXPECT_TRUE(validate_plan(plan).empty());
}

TEST(PlanBuilder, ProgrammedCellCountsMatchAnalyticWeights) {
  // Windowed plan: total cells = K^2 * IC * N_WP * OC (every weight copied
  // once per window position across all tiles).
  const ConvShape shape = ConvShape::square(8, 3, 9, 40);
  const CycleCost cost = vw_cost(shape, kSmall, {4, 3});
  const MappingPlan plan = build_plan_for_cost(shape, kSmall, cost);
  EXPECT_EQ(plan.programmed_cells(), 9LL * 9 * 2 * 40);
}

}  // namespace
}  // namespace vwsdk
