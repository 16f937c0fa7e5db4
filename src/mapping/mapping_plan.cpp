#include "mapping/mapping_plan.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

Cycles MappingPlan::total_cycles() const {
  const Count grid = is_smd()
                         ? ceil_div(shape.num_windows(), cost.smd_duplicates)
                         : checked_mul(static_cast<Count>(base_x.size()),
                                       static_cast<Count>(base_y.size()));
  return checked_mul(grid, static_cast<Count>(tiles.size()));
}

Count MappingPlan::programmed_cells() const {
  Count total = 0;
  for (const TileLayout& tile : derive_layout(*this).tiles) {
    for (const ColumnGroup& group : tile.groups) {
      total = checked_add(total, group.cells());
    }
  }
  return total;
}

std::string tile_name(const ArrayTile& tile) {
  return cat("tile(", tile.ar_index, ",", tile.ac_index, ")");
}

PlanLayout derive_layout(const MappingPlan& plan) {
  PlanLayout layout;
  if (plan.tiles.empty()) {
    return layout;
  }
  const ConvShape& s = plan.shape;
  const ParallelWindow& window = plan.cost.window;
  const Count wip_w = windows_in_pw_w(s, window);
  const Count wip_h = windows_in_pw_h(s, window);
  const Dim dups = std::max<Dim>(1, plan.cost.smd_duplicates);
  const auto bands =
      static_cast<std::size_t>(std::max<Dim>(1, plan.cost.ac_cycles));
  std::vector<std::string>& issues = layout.issues;
  if (static_cast<Count>(plan.tiles.size()) !=
      plan.cost.ar_cycles * plan.cost.ac_cycles) {
    issues.push_back(cat("tile count ", plan.tiles.size(),
                         " != AR*AC = ", plan.cost.ar_cycles, "*",
                         plan.cost.ac_cycles));
  }
  // Per array row and column, the last tile (1-based) that bound it.
  std::vector<std::size_t> row_tile(
      static_cast<std::size_t>(plan.geometry.rows), 0);
  std::vector<std::size_t> col_tile(
      static_cast<std::size_t>(plan.geometry.cols), 0);
  layout.tiles.resize(plan.tiles.size());
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    const ArrayTile& tile = plan.tiles[t];
    TileLayout& out = layout.tiles[t];
    // An index outside the array holds no device; an index bound twice
    // would put two weights in one device.
    const auto take = [&](Dim index, std::vector<std::size_t>& last,
                          const char* axis) {
      if (index < 0 || static_cast<std::size_t>(index) >= last.size()) {
        issues.push_back(
            cat(tile_name(tile), ": ", axis, " ", index, " outside array"));
      } else if (std::exchange(last[static_cast<std::size_t>(index)],
                               t + 1) == t + 1) {
        issues.push_back(
            cat(tile_name(tile), ": duplicate ", axis, " binding ", index));
      }
    };
    for (const RowBinding& rb : tile.rows) {
      take(rb.row, row_tile, "row");
      if (rb.ic < 0 || rb.ic >= s.in_channels || rb.dy < 0 ||
          rb.dy >= window.h || rb.dx < 0 || rb.dx >= window.w ||
          rb.dup < 0 || rb.dup >= dups) {
        issues.push_back(cat(tile_name(tile), ": row ", rb.row,
                             " binds an input outside the layer"));
      } else {
        out.rows.push_back(&rb);
      }
    }
    std::ranges::sort(out.rows, {}, &RowBinding::row);
    for (const ColBinding& cb : tile.cols) {
      take(cb.col, col_tile, "col");
      if (cb.oc < 0 || cb.oc >= s.out_channels || cb.win_py < 0 ||
          cb.win_py >= wip_h || cb.win_px < 0 || cb.win_px >= wip_w ||
          cb.dup < 0 || cb.dup >= dups) {
        issues.push_back(cat(tile_name(tile), ": col ", cb.col,
                             " binds an output outside the layer"));
        continue;
      }
      const auto group =
          std::ranges::find_if(out.groups, [&](const ColumnGroup& g) {
            const ColBinding& first = *g.cols.front();
            return first.dup == cb.dup && first.win_py == cb.win_py &&
                   first.win_px == cb.win_px;
          });
      if (group == out.groups.end()) {
        out.groups.emplace_back().cols.push_back(&cb);
      } else {
        group->cols.push_back(&cb);
      }
    }
    // The executor sums an AC band's AR tiles per array column and reads
    // the band's outputs off one tile's columns.
    const ArrayTile& first = plan.tiles[t % bands];
    if (tile.cols != first.cols) {
      issues.push_back(cat(tile_name(tile), ": column bindings differ from ",
                           tile_name(first), ", the first tile of its AC "
                           "band"));
    }
    for (ColumnGroup& group : out.groups) {
      Count first = 0;  // the im2col row of the group's first row
      bool consecutive = true;
      for (std::size_t p = 0; p < out.rows.size(); ++p) {
        const RowBinding& rb = *out.rows[p];
        Dim ky = 0;
        Dim kx = 0;
        if (holds_cell(s, rb, *group.cols.front(), ky, kx)) {
          const Count im2col =
              (static_cast<Count>(rb.ic) * s.kernel_h + ky) * s.kernel_w + kx;
          first = group.rows.empty() ? im2col : first;
          consecutive = consecutive &&
                        im2col == first + static_cast<Count>(group.rows.size());
          group.rows.push_back(p);
        }
      }
      const Dim oc_first = group.cols.front()->oc;
      for (std::size_t j = 0; j < group.cols.size(); ++j) {
        consecutive = consecutive &&
                      group.cols[j]->oc == oc_first + static_cast<Dim>(j);
      }
      if (consecutive) {
        group.im2col_first = first;
      }
    }
  }
  return layout;
}

}  // namespace vwsdk
