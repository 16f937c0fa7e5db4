/// The im2col range derive_layout gives a column group
/// (ColumnGroup::im2col_first): with it, the executor reads the group's
/// weights in place from the weight tensor instead of programming them.
/// Every plan the builder returns must have a range for every group, and
/// the range must be the one a brute-force walk over the bindings finds;
/// a group whose rows are out of im2col order must have none.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/grouped_conv.h"
#include "core/mapper_registry.h"
#include "mapping/plan_builder.h"
#include "mapping/plan_validate.h"
#include "nn/model_zoo.h"

namespace vwsdk {
namespace {

/// The group's range, recomputed cell by cell: walk the tile's rows in
/// ascending array row, and for every row that holds a cell under the
/// group's first column, its im2col row must be the next one; every
/// column must bind the output channel after the previous column's.
std::optional<Count> brute_force_range(const ConvShape& shape,
                                       const ArrayTile& tile,
                                       const ColumnGroup& group) {
  std::vector<const RowBinding*> by_row;
  for (const RowBinding& rb : tile.rows) {
    by_row.push_back(&rb);
  }
  std::ranges::sort(by_row, {}, &RowBinding::row);
  std::vector<Count> im2col;
  for (const RowBinding* rb : by_row) {
    Dim ky = 0;
    Dim kx = 0;
    if (holds_cell(shape, *rb, *group.cols.front(), ky, kx)) {
      im2col.push_back(
          (static_cast<Count>(rb->ic) * shape.kernel_h + ky) * shape.kernel_w +
          kx);
    }
  }
  for (std::size_t q = 1; q < im2col.size(); ++q) {
    if (im2col[q] != im2col[q - 1] + 1) {
      return std::nullopt;
    }
  }
  for (std::size_t j = 1; j < group.cols.size(); ++j) {
    if (group.cols[j]->oc != group.cols[j - 1]->oc + 1) {
      return std::nullopt;
    }
  }
  return im2col.empty() ? 0 : im2col.front();
}

TEST(Im2colRange, EveryZooGroupHasTheBruteForceRange) {
  const MapperRegistry& registry = MapperRegistry::instance();
  ASSERT_EQ(registry.names().size(), 7u);
  int plans = 0;
  for (const ArrayGeometry geometry :
       {ArrayGeometry{512, 512}, ArrayGeometry{256, 256},
        ArrayGeometry{128, 128}, ArrayGeometry{64, 64}}) {
    for (const std::string& net : model_names()) {
      const Network network = model_by_name(net);
      for (const ConvLayerDesc& layer : network.layers()) {
        GroupedConvShape grouped;
        grouped.base = ConvShape::from_layer(layer);
        grouped.groups = layer.groups;
        const ConvShape shape = grouped.group_shape();
        for (const std::string& name : registry.names()) {
          const MappingPlan plan = build_plan_for_cost(
              shape, geometry, registry.create(name)->map(shape, geometry).cost);
          const PlanLayout layout = derive_layout(plan);
          ASSERT_TRUE(layout.issues.empty());
          for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
            for (const ColumnGroup& group : layout.tiles[t].groups) {
              ASSERT_TRUE(group.im2col_first.has_value())
                  << net << " " << layer.name << " " << name << " "
                  << geometry.to_string() << " " << tile_name(plan.tiles[t]);
              ASSERT_EQ(group.im2col_first,
                        brute_force_range(shape, plan.tiles[t], group))
                  << net << " " << layer.name << " " << name << " "
                  << geometry.to_string() << " " << tile_name(plan.tiles[t]);
            }
          }
          ++plans;
        }
      }
    }
  }
  EXPECT_EQ(plans, 4 * 280);
}

TEST(Im2colRange, SwappedRowsLeaveTheirGroupWithoutARange) {
  // Rows 0 and 1 of the first tile hold (ic 0, dy 0, dx 0) and (0, 0, 1):
  // im2col rows 0 and 1 of the window (0, 0) group.  Swapping their array
  // rows reverses that group's order; the plan stays valid.
  const ConvShape shape = ConvShape::square(8, 3, 9, 40);
  const ArrayGeometry geometry{64, 32};
  MappingPlan plan =
      build_plan_for_cost(shape, geometry, vw_cost(shape, geometry, {4, 3}));
  ArrayTile& tile = plan.tiles.front();
  ASSERT_EQ(tile.rows[0].dx, 0);
  ASSERT_EQ(tile.rows[1].dx, 1);
  std::swap(tile.rows[0].row, tile.rows[1].row);
  EXPECT_TRUE(validate_plan(plan).empty());

  const PlanLayout layout = derive_layout(plan);
  int without = 0;
  for (const ColumnGroup& group : layout.tiles.front().groups) {
    const ColBinding& first = *group.cols.front();
    EXPECT_EQ(group.im2col_first,
              brute_force_range(shape, tile, group));
    if (first.win_px == 0 && first.win_py == 0) {
      EXPECT_FALSE(group.im2col_first.has_value());
    }
    without += group.im2col_first.has_value() ? 0 : 1;
  }
  EXPECT_GE(without, 1);
  // The other tiles keep every range.
  for (std::size_t t = 1; t < plan.tiles.size(); ++t) {
    for (const ColumnGroup& group : layout.tiles[t].groups) {
      EXPECT_TRUE(group.im2col_first.has_value()) << t;
    }
  }
}

TEST(Im2colRange, ColumnsOutOfChannelOrderLeaveTheirGroupWithoutARange) {
  // An im2col tile has one group; swapping the output channels of its
  // first two columns makes them, in binding order, bind 1, 0, 2, ...
  const ConvShape shape = ConvShape::square(6, 3, 2, 5);
  const ArrayGeometry geometry{64, 32};
  MappingPlan plan =
      build_plan_for_cost(shape, geometry, im2col_cost(shape, geometry));
  ASSERT_EQ(plan.tiles.size(), 1u);
  std::swap(plan.tiles[0].cols[0].oc, plan.tiles[0].cols[1].oc);
  EXPECT_TRUE(validate_plan(plan).empty());
  const PlanLayout layout = derive_layout(plan);
  ASSERT_EQ(layout.tiles[0].groups.size(), 1u);
  EXPECT_FALSE(layout.tiles[0].groups[0].im2col_first.has_value());
}

}  // namespace
}  // namespace vwsdk
