#include "mapping/layout_render.h"

#include <algorithm>

#include "common/string_util.h"

namespace vwsdk {

std::string render_tile(const MappingPlan& plan, Dim ar, Dim ac,
                        Dim max_rows, Dim max_cols) {
  const ArrayTile& tile = plan.tile(ar, ac);
  const Dim rows = std::min(plan.geometry.rows, max_rows);
  const Dim cols = std::min(plan.geometry.cols, max_cols);
  const bool truncated =
      rows < plan.geometry.rows || cols < plan.geometry.cols;

  std::vector<std::string> grid(
      static_cast<std::size_t>(rows),
      std::string(static_cast<std::size_t>(cols), '.'));
  for_each_cell(plan.shape, tile,
                [&](const RowBinding& rb, const ColBinding& cb, Dim, Dim) {
                  if (rb.row < rows && cb.col < cols) {
                    grid[static_cast<std::size_t>(rb.row)]
                        [static_cast<std::size_t>(cb.col)] = '#';
                  }
                });

  std::string out = cat("tile(", ar, ",", ac, ") of ",
                        plan.geometry.to_string(), " array ('#'=weight):\n");
  for (const std::string& line : grid) {
    out += "  ";
    out += line;
    out += '\n';
  }
  if (truncated) {
    out += cat("  ... (showing top-left ", rows, "x", cols, " of ",
               plan.geometry.to_string(), ")\n");
  }
  return out;
}

std::string describe_plan(const MappingPlan& plan) {
  const char* kind = plan.kind == PlanKind::kWindowed ? "windowed"
                     : plan.kind == PlanKind::kWindowedSplit
                         ? "windowed-split"
                     : plan.kind == PlanKind::kIm2colDense ? "im2col"
                                                           : "smd";
  std::string out = cat("plan[", kind, "] layer ", plan.shape.to_string(),
                        " on ", plan.geometry.to_string(), "\n  ",
                        plan.cost.to_string(), "\n");
  if (plan.kind != PlanKind::kSmd) {
    out += cat("  base grid: ", plan.base_y.size(), " x ",
               plan.base_x.size(), " parallel windows\n");
  } else {
    out += cat("  smd duplicates: ", plan.cost.smd_duplicates, "\n");
  }
  out += cat("  tiles: ", plan.tiles.size(), ", programmed cells: ",
             plan.programmed_cells(), ", total cycles: ",
             plan.total_cycles(), "\n");
  return out;
}

}  // namespace vwsdk
