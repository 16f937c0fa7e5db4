/// Differential test of for_each_cell against the cell lists the plan
/// builders used to store.  `legacy_cells` is a test-only copy of the four
/// cell-emission loops the builders ran before cells were derived from the
/// bindings; the walk must visit exactly those cells in exactly that
/// order, because crossbars draw device noise in visit order.  The tile
/// layout derive_layout gives the validator and the executor must hold
/// exactly the cells the walk visits.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/grouped_conv.h"
#include "core/mapping_decision.h"
#include "mapping/plan_builder.h"
#include "nn/model_zoo.h"
#include "../integration/random_draw.h"

namespace vwsdk {
namespace {

struct Cell {
  Dim row = 0;
  Dim col = 0;
  Dim oc = 0;
  Dim ic = 0;
  Dim ky = 0;
  Dim kx = 0;

  bool operator==(const Cell&) const = default;
};

std::vector<Cell> legacy_windowed(const MappingPlan& plan,
                                  const ArrayTile& tile) {
  const ConvShape& shape = plan.shape;
  const CycleCost& cost = plan.cost;
  const ParallelWindow pw = cost.window;
  const Dim wip_w = static_cast<Dim>(windows_in_pw_w(shape, pw));
  const Dim wip_h = static_cast<Dim>(windows_in_pw_h(shape, pw));
  const Dim n_wp = wip_w * wip_h;
  const Dim area = static_cast<Dim>(pw.area());
  const Dim ic_first = tile.ar_index * cost.ic_t;
  const Dim ic_count =
      std::min<Dim>(cost.ic_t, shape.in_channels - ic_first);
  const Dim oc_first = tile.ac_index * cost.oc_t;
  const Dim oc_count =
      std::min<Dim>(cost.oc_t, shape.out_channels - oc_first);
  std::vector<Cell> cells;
  for (Dim o = 0; o < oc_count; ++o) {
    for (Dim wy = 0; wy < wip_h; ++wy) {
      for (Dim wx = 0; wx < wip_w; ++wx) {
        const Dim col = o * n_wp + wy * wip_w + wx;
        for (Dim c = 0; c < ic_count; ++c) {
          for (Dim ky = 0; ky < shape.kernel_h; ++ky) {
            const Dim dy = wy * shape.stride_h + ky;
            for (Dim kx = 0; kx < shape.kernel_w; ++kx) {
              const Dim dx = wx * shape.stride_w + kx;
              cells.push_back(Cell{c * area + dy * pw.w + dx, col,
                                   oc_first + o, ic_first + c, ky, kx});
            }
          }
        }
      }
    }
  }
  return cells;
}

std::vector<Cell> legacy_element_split(const MappingPlan& plan,
                                       const ArrayTile& tile) {
  const ConvShape& shape = plan.shape;
  std::vector<Cell> cells;
  for (const ColBinding& cb : tile.cols) {
    for (const RowBinding& rb : tile.rows) {
      const Dim ky = rb.dy - cb.win_py * shape.stride_h;
      const Dim kx = rb.dx - cb.win_px * shape.stride_w;
      if (ky < 0 || ky >= shape.kernel_h || kx < 0 ||
          kx >= shape.kernel_w) {
        continue;
      }
      cells.push_back(Cell{rb.row, cb.col, cb.oc, rb.ic, ky, kx});
    }
  }
  return cells;
}

std::vector<Cell> legacy_im2col(const ArrayTile& tile) {
  std::vector<Cell> cells;
  for (const ColBinding& cb : tile.cols) {
    for (const RowBinding& rb : tile.rows) {
      cells.push_back(Cell{rb.row, cb.col, cb.oc, rb.ic, rb.dy, rb.dx});
    }
  }
  return cells;
}

std::vector<Cell> legacy_smd(const MappingPlan& plan) {
  const ConvShape& shape = plan.shape;
  const Count volume = shape.kernel_volume();
  const Dim kernel_area = shape.kernel_w * shape.kernel_h;
  std::vector<Cell> cells;
  for (Dim dup = 0; dup < plan.cost.smd_duplicates; ++dup) {
    const Dim row_base = static_cast<Dim>(static_cast<Count>(dup) * volume);
    const Dim col_base = dup * shape.out_channels;
    for (Dim oc = 0; oc < shape.out_channels; ++oc) {
      for (Count flat = 0; flat < volume; ++flat) {
        const Dim ic = static_cast<Dim>(flat / kernel_area);
        const Dim rem = static_cast<Dim>(flat % kernel_area);
        cells.push_back(Cell{row_base + static_cast<Dim>(flat),
                             col_base + oc, oc, ic, rem / shape.kernel_w,
                             rem % shape.kernel_w});
      }
    }
  }
  return cells;
}

/// The legacy list of `tile`, chosen from the plan's cost the way the
/// builders were once dispatched.
std::vector<Cell> legacy_cells(const MappingPlan& plan,
                               const ArrayTile& tile) {
  const CycleCost& cost = plan.cost;
  if (plan.is_smd()) {
    return legacy_smd(plan);
  }
  if (cost.split == RowSplit::kElementGranular) {
    return legacy_im2col(tile);
  }
  if (cost.window.area() * cost.ic_t > plan.geometry.rows ||
      windows_in_pw(plan.shape, cost.window) * cost.oc_t >
          plan.geometry.cols) {
    return legacy_element_split(plan, tile);
  }
  return legacy_windowed(plan, tile);
}

/// The rows, ascending, that `layout`'s groups give each array column,
/// for the `cols` columns of the array; empty for a column in no group.
std::vector<std::vector<Dim>> layout_rows(const TileLayout& layout,
                                          std::size_t cols) {
  std::vector<std::vector<Dim>> rows(cols);
  for (const ColumnGroup& group : layout.groups) {
    for (const ColBinding* cb : group.cols) {
      for (const std::size_t p : group.rows) {
        rows[static_cast<std::size_t>(cb->col)].push_back(layout.rows[p]->row);
      }
    }
  }
  return rows;
}

/// Walks every tile of `plan` and compares against the legacy list, and
/// the derived layout against the walk: each column's rows must be the
/// rows the walk visits in it, and programmed_cells() the cells it
/// visits.  On the first disagreement returns a description, else an
/// empty string.
std::string compare_walk(const MappingPlan& plan) {
  const auto cols = static_cast<std::size_t>(plan.geometry.cols);
  const PlanLayout layout = derive_layout(plan);
  if (!layout.issues.empty()) {
    return cat("layout: ", layout.issues.front());
  }
  std::vector<char> visited(
      static_cast<std::size_t>(plan.geometry.cell_count()), 0);
  Count cells = 0;
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    const ArrayTile& tile = plan.tiles[t];
    const std::vector<Cell> expected = legacy_cells(plan, tile);
    std::fill(visited.begin(), visited.end(), 0);
    std::vector<std::vector<Dim>> walked(cols);
    std::size_t next = 0;
    std::string error;
    for_each_cell(plan.shape, tile,
                  [&](const RowBinding& rb, const ColBinding& cb, Dim ky,
                      Dim kx) {
                    if (!error.empty()) {
                      return;
                    }
                    const Cell cell{rb.row, cb.col, cb.oc, rb.ic, ky, kx};
                    const std::size_t flat =
                        static_cast<std::size_t>(rb.row) * cols +
                        static_cast<std::size_t>(cb.col);
                    if (next >= expected.size() || !(cell == expected[next])) {
                      error = cat("cell ", next, " (", rb.row, ",", cb.col,
                                  ") differs from the legacy list");
                    } else if (std::exchange(visited[flat], 1) != 0) {
                      error = cat("cell (", rb.row, ",", cb.col,
                                  ") visited twice");
                    }
                    walked[static_cast<std::size_t>(cb.col)].push_back(
                        rb.row);
                    ++next;
                  });
    if (error.empty() && next != expected.size()) {
      error = cat("walk visited ", next, " cells, legacy list has ",
                  expected.size());
    }
    const std::vector<std::vector<Dim>> derived =
        layout_rows(layout.tiles[t], cols);
    for (std::size_t col = 0; error.empty() && col < cols; ++col) {
      std::sort(walked[col].begin(), walked[col].end());
      if (derived[col] != walked[col]) {
        error = cat("layout rows of column ", col, " differ from the ",
                    walked[col].size(), " rows the walk visits");
      }
    }
    if (!error.empty()) {
      return cat("tile(", tile.ar_index, ",", tile.ac_index, "): ", error);
    }
    cells += static_cast<Count>(next);
  }
  if (plan.programmed_cells() != cells) {
    return cat("programmed_cells() ", plan.programmed_cells(),
               ", the walk visits ", cells);
  }
  return "";
}

const char* const kMappers[] = {"im2col", "smd", "sdk", "vw-sdk",
                                "vw-sdk-pruned"};

class ZooCellWalk : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooCellWalk, MatchesLegacyEmissionAt512x512) {
  const Network network = model_by_name(GetParam());
  const ArrayGeometry geometry{512, 512};
  for (const char* name : kMappers) {
    const auto mapper = make_mapper(name);
    for (const ConvLayerDesc& layer : network.layers()) {
      GroupedConvShape grouped;
      grouped.base = ConvShape::from_layer(layer);
      grouped.groups = layer.groups;
      const ConvShape shape = grouped.group_shape();
      const MappingPlan plan = build_plan_for_cost(
          shape, geometry, mapper->map(shape, geometry).cost);
      EXPECT_EQ(compare_walk(plan), "")
          << name << " " << shape.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooCellWalk, ::testing::ValuesIn(model_names()),
                         [](const auto& info) { return info.param; });

class RandomCellWalk : public ::testing::TestWithParam<const char*> {};

/// The 100 draws of Randomized.PlansAlwaysValidOn100RandomProblems.
TEST_P(RandomCellWalk, MatchesLegacyEmissionOn100RandomProblems) {
  Rng rng(0xBEEF);
  const auto mapper = make_mapper(GetParam());
  for (int i = 0; i < 100; ++i) {
    const RandomDraw d = draw(rng, /*small=*/false);
    const MappingPlan plan = build_plan_for_cost(
        d.shape, d.geometry, mapper->map(d.shape, d.geometry).cost);
    EXPECT_EQ(compare_walk(plan), "") << "draw " << i << ": " << d.context;
  }
}

INSTANTIATE_TEST_SUITE_P(Randomized, RandomCellWalk,
                         ::testing::Values("im2col", "smd", "sdk", "vw-sdk"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace vwsdk
