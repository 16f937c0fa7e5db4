#include "mapping/plan_builder.h"

#include <algorithm>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "tensor/im2col_ref.h"

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

MappingPlan build_windowed_plan(const ConvShape& shape,
                                const ArrayGeometry& geometry,
                                const CycleCost& cost) {
  shape.validate();
  geometry.validate();
  VWSDK_REQUIRE(cost.feasible, "cannot build a plan for an infeasible cost");
  VWSDK_REQUIRE(cost.split == RowSplit::kChannelGranular,
                "windowed plans are channel-granular");
  const ParallelWindow pw = cost.window;
  VWSDK_REQUIRE(window_admissible(shape, pw),
                cat("window ", pw.to_string(), " not admissible"));
  VWSDK_REQUIRE(cost.ic_t > 0 && cost.oc_t > 0, "empty channel tile");
  VWSDK_REQUIRE(checked_mul(pw.area(), cost.ic_t) <= geometry.rows,
                "channel tile exceeds array rows");

  const Dim wip_w = static_cast<Dim>(windows_in_pw_w(shape, pw));
  const Dim wip_h = static_cast<Dim>(windows_in_pw_h(shape, pw));
  const Dim n_wp = wip_w * wip_h;
  VWSDK_REQUIRE(checked_mul(n_wp, cost.oc_t) <= geometry.cols,
                "output tile exceeds array columns");

  MappingPlan plan;
  plan.shape = shape;
  plan.geometry = geometry;
  plan.cost = cost;
  plan.kind = PlanKind::kWindowed;
  plan.base_x = window_bases(shape.windows_w(), wip_w, shape.stride_w);
  plan.base_y = window_bases(shape.windows_h(), wip_h, shape.stride_h);
  VWSDK_ASSERT(static_cast<Count>(plan.base_x.size()) ==
                   num_parallel_windows_w(shape, pw),
               "base grid disagrees with Eq. (3)");
  VWSDK_ASSERT(static_cast<Count>(plan.base_y.size()) ==
                   num_parallel_windows_h(shape, pw),
               "base grid disagrees with Eq. (3)");

  const Dim area = static_cast<Dim>(pw.area());
  for (Dim ar = 0; ar < cost.ar_cycles; ++ar) {
    const Dim ic_first = ar * cost.ic_t;
    const Dim ic_count =
        std::min<Dim>(cost.ic_t, shape.in_channels - ic_first);
    VWSDK_ASSERT(ic_count > 0, "empty AR tile");
    for (Dim ac = 0; ac < cost.ac_cycles; ++ac) {
      const Dim oc_first = ac * cost.oc_t;
      const Dim oc_count =
          std::min<Dim>(cost.oc_t, shape.out_channels - oc_first);
      VWSDK_ASSERT(oc_count > 0, "empty AC tile");

      ArrayTile tile;
      tile.ar_index = ar;
      tile.ac_index = ac;

      for (Dim c = 0; c < ic_count; ++c) {
        for (Dim dy = 0; dy < pw.h; ++dy) {
          for (Dim dx = 0; dx < pw.w; ++dx) {
            tile.rows.push_back(RowBinding{c * area + dy * pw.w + dx,
                                           ic_first + c, dy, dx, 0});
          }
        }
      }
      for (Dim o = 0; o < oc_count; ++o) {
        for (Dim wy = 0; wy < wip_h; ++wy) {
          for (Dim wx = 0; wx < wip_w; ++wx) {
            tile.cols.push_back(ColBinding{o * n_wp + wy * wip_w + wx,
                                           oc_first + o, wx, wy, 0});
          }
        }
      }
      plan.tiles.push_back(std::move(tile));
    }
  }
  return plan;
}

MappingPlan build_element_split_plan(const ConvShape& shape,
                                     const ArrayGeometry& geometry,
                                     const CycleCost& cost) {
  shape.validate();
  geometry.validate();
  VWSDK_REQUIRE(cost.feasible, "cannot build a plan for an infeasible cost");
  VWSDK_REQUIRE(cost.split == RowSplit::kChannelGranular,
                "element-split plans realize entire-channel window costs");
  const ParallelWindow pw = cost.window;
  VWSDK_REQUIRE(window_admissible(shape, pw),
                cat("window ", pw.to_string(), " not admissible"));

  const Dim wip_w = static_cast<Dim>(windows_in_pw_w(shape, pw));
  const Dim wip_h = static_cast<Dim>(windows_in_pw_h(shape, pw));
  const Dim n_wp = wip_w * wip_h;
  const Dim area = static_cast<Dim>(pw.area());
  const Count flat_rows = checked_mul(pw.area(), shape.in_channels);
  const Count flat_cols = checked_mul(n_wp, shape.out_channels);
  VWSDK_REQUIRE(cost.ar_cycles == ceil_div(flat_rows, geometry.rows) &&
                    cost.ac_cycles == ceil_div(flat_cols, geometry.cols),
                "cost does not use Eq. (1) row/column splitting");

  MappingPlan plan;
  plan.shape = shape;
  plan.geometry = geometry;
  plan.cost = cost;
  plan.kind = PlanKind::kWindowedSplit;
  plan.base_x = window_bases(shape.windows_w(), wip_w, shape.stride_w);
  plan.base_y = window_bases(shape.windows_h(), wip_h, shape.stride_h);

  for (Dim ar = 0; ar < cost.ar_cycles; ++ar) {
    const Count row_first = static_cast<Count>(ar) * geometry.rows;
    const Count row_end =
        std::min(flat_rows, row_first + static_cast<Count>(geometry.rows));
    for (Dim ac = 0; ac < cost.ac_cycles; ++ac) {
      const Count col_first = static_cast<Count>(ac) * geometry.cols;
      const Count col_end = std::min(
          flat_cols, col_first + static_cast<Count>(geometry.cols));

      ArrayTile tile;
      tile.ar_index = ar;
      tile.ac_index = ac;
      for (Count flat = row_first; flat < row_end; ++flat) {
        const Dim ic = static_cast<Dim>(flat / area);
        const Dim rem = static_cast<Dim>(flat % area);
        tile.rows.push_back(RowBinding{static_cast<Dim>(flat - row_first),
                                       ic, rem / pw.w, rem % pw.w, 0});
      }
      for (Count flat = col_first; flat < col_end; ++flat) {
        const Dim oc = static_cast<Dim>(flat / n_wp);
        const Dim win = static_cast<Dim>(flat % n_wp);
        tile.cols.push_back(ColBinding{static_cast<Dim>(flat - col_first),
                                       oc, win % wip_w, win / wip_w, 0});
      }
      plan.tiles.push_back(std::move(tile));
    }
  }
  return plan;
}

MappingPlan build_im2col_plan(const ConvShape& shape,
                              const ArrayGeometry& geometry) {
  shape.validate();
  geometry.validate();
  const CycleCost cost = im2col_cost(shape, geometry);

  MappingPlan plan;
  plan.shape = shape;
  plan.geometry = geometry;
  plan.cost = cost;
  plan.kind = PlanKind::kIm2colDense;
  // One kernel window per cycle: the base grid is every window position.
  plan.base_x.reserve(static_cast<std::size_t>(shape.windows_w()));
  for (Count wx = 0; wx < shape.windows_w(); ++wx) {
    plan.base_x.push_back(static_cast<Dim>(wx * shape.stride_w));
  }
  plan.base_y.reserve(static_cast<std::size_t>(shape.windows_h()));
  for (Count wy = 0; wy < shape.windows_h(); ++wy) {
    plan.base_y.push_back(static_cast<Dim>(wy * shape.stride_h));
  }

  const Count volume = shape.kernel_volume();
  const Dim kernel_area = shape.kernel_w * shape.kernel_h;
  for (Dim ar = 0; ar < cost.ar_cycles; ++ar) {
    const Count flat_first = static_cast<Count>(ar) * geometry.rows;
    const Count flat_end =
        std::min(volume, flat_first + static_cast<Count>(geometry.rows));
    for (Dim ac = 0; ac < cost.ac_cycles; ++ac) {
      const Dim oc_first = static_cast<Dim>(
          static_cast<Count>(ac) * geometry.cols);
      const Dim oc_count = std::min<Dim>(
          geometry.cols, shape.out_channels - oc_first);

      ArrayTile tile;
      tile.ar_index = ar;
      tile.ac_index = ac;
      for (Count flat = flat_first; flat < flat_end; ++flat) {
        const Dim ic = static_cast<Dim>(flat / kernel_area);
        const Dim rem = static_cast<Dim>(flat % kernel_area);
        const Dim ky = rem / shape.kernel_w;
        const Dim kx = rem % shape.kernel_w;
        VWSDK_ASSERT(im2col_row_index(ic, ky, kx, shape.kernel_h,
                                      shape.kernel_w) ==
                         static_cast<Dim>(flat),
                     "flat decode disagrees with im2col_row_index");
        tile.rows.push_back(RowBinding{static_cast<Dim>(flat - flat_first),
                                       ic, ky, kx, 0});
      }
      for (Dim o = 0; o < oc_count; ++o) {
        tile.cols.push_back(ColBinding{o, oc_first + o, 0, 0, 0});
      }
      plan.tiles.push_back(std::move(tile));
    }
  }
  return plan;
}

MappingPlan build_smd_plan(const ConvShape& shape,
                           const ArrayGeometry& geometry) {
  shape.validate();
  geometry.validate();
  const CycleCost cost = smd_cost(shape, geometry);
  if (cost.smd_duplicates <= 1) {
    return build_im2col_plan(shape, geometry);
  }

  MappingPlan plan;
  plan.shape = shape;
  plan.geometry = geometry;
  plan.cost = cost;
  plan.kind = PlanKind::kSmd;
  // SMD executes chunks of D windows; no base grid.

  const Count volume = shape.kernel_volume();
  const Dim kernel_area = shape.kernel_w * shape.kernel_h;
  ArrayTile tile;
  tile.ar_index = 0;
  tile.ac_index = 0;
  for (Dim dup = 0; dup < cost.smd_duplicates; ++dup) {
    const Dim row_base = static_cast<Dim>(static_cast<Count>(dup) * volume);
    const Dim col_base = dup * shape.out_channels;
    for (Count flat = 0; flat < volume; ++flat) {
      const Dim ic = static_cast<Dim>(flat / kernel_area);
      const Dim rem = static_cast<Dim>(flat % kernel_area);
      tile.rows.push_back(RowBinding{row_base + static_cast<Dim>(flat), ic,
                                     rem / shape.kernel_w,
                                     rem % shape.kernel_w, dup});
    }
    for (Dim oc = 0; oc < shape.out_channels; ++oc) {
      tile.cols.push_back(ColBinding{col_base + oc, oc, 0, 0, dup});
    }
  }
  plan.tiles.push_back(std::move(tile));
  return plan;
}

MappingPlan build_plan_for_cost(const ConvShape& shape,
                                const ArrayGeometry& geometry,
                                const CycleCost& cost) {
  VWSDK_REQUIRE(cost.feasible, "cannot build a plan for an infeasible cost");
  MappingPlan plan;
  if (cost.smd_duplicates > 1) {
    plan = build_smd_plan(shape, geometry);
  } else if (cost.split == RowSplit::kElementGranular) {
    plan = build_im2col_plan(shape, geometry);
  } else if (checked_mul(cost.window.area(), cost.ic_t) > geometry.rows ||
             checked_mul(windows_in_pw(shape, cost.window), cost.oc_t) >
                 geometry.cols) {
    // SDK entire-channel windows that overflow one array: Eq. (1)
    // element/column splitting.
    plan = build_element_split_plan(shape, geometry, cost);
  } else {
    plan = build_windowed_plan(shape, geometry, cost);
  }
  VWSDK_ASSERT(plan.cost.total == cost.total,
               cat("rebuilt plan cycles ", plan.cost.total,
                   " differ from requested cost ", cost.total));
  return plan;
}

}  // namespace vwsdk
