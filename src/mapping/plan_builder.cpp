#include "mapping/plan_builder.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

/// Clamped base positions of parallel windows along one axis, in padded
/// input pixels.  Covers kernel-window indices [0, windows) in groups of
/// `per_pw`, the final group clamped so the window stays inside the input
/// (clamping makes trailing windows overlap -- they recompute a few
/// outputs, exactly as the ceil in Eq. (3) implies).
std::vector<Dim> window_bases(Count windows, Count per_pw, Dim stride) {
  VWSDK_ASSERT(windows >= per_pw && per_pw > 0, "bad window grouping");
  std::vector<Dim> bases;
  const Count groups = ceil_div(windows, per_pw);
  bases.reserve(static_cast<std::size_t>(groups));
  for (Count g = 0; g < groups; ++g) {
    const Count first_window = std::min(g * per_pw, windows - per_pw);
    bases.push_back(static_cast<Dim>(first_window * stride));
  }
  return bases;
}

}  // namespace

MappingPlan build_plan_for_cost(const ConvShape& shape,
                                const ArrayGeometry& geometry,
                                const CycleCost& cost) {
  shape.validate();
  geometry.validate();
  VWSDK_REQUIRE(cost.feasible, "cannot build a plan for an infeasible cost");
  const ParallelWindow pw = cost.window;
  VWSDK_REQUIRE(window_admissible(shape, pw),
                cat("window ", pw.to_string(), " not admissible"));
  VWSDK_REQUIRE(cost.ic_t > 0 && cost.oc_t > 0, "empty channel tile");

  // The one tiling rule (plan_builder.h): flatten, then cut.
  const Dim wip_w = static_cast<Dim>(windows_in_pw_w(shape, pw));
  const Count n_wp = windows_in_pw(shape, pw);
  const Count area = pw.area();
  const Count flat_rows = checked_mul(area, shape.in_channels);
  const Count flat_cols = checked_mul(n_wp, shape.out_channels);
  const Count row_cut = std::min<Count>(geometry.rows,
                                        checked_mul(area, cost.ic_t));
  const Count col_cut = std::min<Count>(geometry.cols,
                                        checked_mul(n_wp, cost.oc_t));
  VWSDK_REQUIRE(ceil_div(flat_rows, row_cut) == cost.ar_cycles &&
                    ceil_div(flat_cols, col_cut) == cost.ac_cycles,
                cat("cost ", cost.to_string(),
                    " disagrees with its channel tiles on ",
                    geometry.to_string()));

  MappingPlan plan;
  plan.shape = shape;
  plan.geometry = geometry;
  plan.cost = cost;
  const Dim dups = cost.smd_duplicates;
  if (plan.is_smd()) {
    VWSDK_REQUIRE(checked_mul(dups, flat_rows) <= geometry.rows &&
                      checked_mul(dups, flat_cols) <= geometry.cols,
                  cat(dups, " SMD duplicates exceed ", geometry.to_string()));
  } else {
    plan.base_x = window_bases(shape.windows_w(), wip_w, shape.stride_w);
    plan.base_y = window_bases(shape.windows_h(),
                               windows_in_pw_h(shape, pw), shape.stride_h);
  }

  plan.tiles.reserve(static_cast<std::size_t>(
      checked_mul(cost.ar_cycles, cost.ac_cycles)));
  for (Count ar = 0; ar < cost.ar_cycles; ++ar) {
    const Count row_first = ar * row_cut;
    const Count row_end = std::min(flat_rows, row_first + row_cut);
    for (Count ac = 0; ac < cost.ac_cycles; ++ac) {
      const Count col_first = ac * col_cut;
      const Count col_end = std::min(flat_cols, col_first + col_cut);

      ArrayTile tile;
      tile.ar_index = static_cast<Dim>(ar);
      tile.ac_index = static_cast<Dim>(ac);
      tile.rows.reserve(static_cast<std::size_t>((row_end - row_first) * dups));
      tile.cols.reserve(static_cast<std::size_t>((col_end - col_first) * dups));
      // D > 1 only for SMD, whose one tile repeats block-diagonally.
      for (Dim dup = 0; dup < dups; ++dup) {
        const Count row_base = dup * (row_end - row_first) - row_first;
        for (Count flat = row_first; flat < row_end; ++flat) {
          const Dim rem = static_cast<Dim>(flat % area);
          tile.rows.push_back(RowBinding{static_cast<Dim>(row_base + flat),
                                         static_cast<Dim>(flat / area),
                                         rem / pw.w, rem % pw.w, dup});
        }
      }
      for (Dim dup = 0; dup < dups; ++dup) {
        const Count col_base = dup * (col_end - col_first) - col_first;
        for (Count flat = col_first; flat < col_end; ++flat) {
          const Dim win = static_cast<Dim>(flat % n_wp);
          tile.cols.push_back(ColBinding{static_cast<Dim>(col_base + flat),
                                         static_cast<Dim>(flat / n_wp),
                                         win % wip_w, win / wip_w, dup});
        }
      }
      plan.tiles.push_back(std::move(tile));
    }
  }
  VWSDK_ASSERT(plan.total_cycles() == cost.total,
               cat("built plan cycles ", plan.total_cycles(),
                   " differ from requested cost ", cost.total));
  return plan;
}

}  // namespace vwsdk
