#include "mapping/cost_model.h"

#include <limits>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

std::string CycleCost::to_string() const {
  if (!feasible) {
    return cat("pw=", window.to_string(), " infeasible");
  }
  return cat("pw=", window.to_string(), " ict=", ic_t, " oct=", oc_t,
             " npw=", n_parallel_windows, " ar=", ar_cycles,
             " ac=", ac_cycles,
             (smd_duplicates > 1 ? cat(" dup=", smd_duplicates) : ""),
             " cycles=", total);
}

Dim tiled_ic(const ConvShape& shape, const ArrayGeometry& geometry,
             const ParallelWindow& pw) {
  geometry.validate();
  const Count per_channel_rows = pw.area();
  VWSDK_REQUIRE(per_channel_rows > 0, "window area must be positive");
  const Count tile = floor_div(geometry.rows, per_channel_rows);  // Eq. (4)
  return static_cast<Dim>(
      clamp_count(tile, 0, static_cast<Count>(shape.in_channels)));
}

Dim tiled_oc(const ConvShape& shape, const ArrayGeometry& geometry,
             const ParallelWindow& pw) {
  geometry.validate();
  const Count per_oc_cols = windows_in_pw(shape, pw);
  const Count tile = floor_div(geometry.cols, per_oc_cols);  // Eq. (6)
  return static_cast<Dim>(
      clamp_count(tile, 0, static_cast<Count>(shape.out_channels)));
}

CycleCost im2col_cost(const ConvShape& shape, const ArrayGeometry& geometry) {
  shape.validate();
  geometry.validate();
  CycleCost cost;
  cost.feasible = true;
  cost.window = kernel_window(shape);
  cost.split = RowSplit::kElementGranular;
  // The whole flattened kernel column is packed densely; a single array
  // holds min(rows, K*K*IC) elements of it.
  cost.ic_t = shape.in_channels;  // every channel is present (possibly split)
  cost.oc_t = static_cast<Dim>(clamp_count(
      geometry.cols, 0, static_cast<Count>(shape.out_channels)));
  cost.n_parallel_windows = shape.num_windows();
  cost.ar_cycles = ceil_div(shape.kernel_volume(), geometry.rows);
  cost.ac_cycles = ceil_div(shape.out_channels, geometry.cols);
  cost.total = checked_mul(cost.n_parallel_windows,
                           checked_mul(cost.ar_cycles, cost.ac_cycles));
  return cost;
}

CycleCost sdk_cost(const ConvShape& shape, const ArrayGeometry& geometry,
                   const ParallelWindow& pw) {
  shape.validate();
  geometry.validate();
  CycleCost cost;
  cost.window = pw;
  cost.split = RowSplit::kChannelGranular;
  if (!window_admissible(shape, pw)) {
    cost.total = std::numeric_limits<Cycles>::max();
    return cost;
  }
  const Count n_wp = windows_in_pw(shape, pw);
  cost.feasible = true;
  cost.ic_t = shape.in_channels;  // SDK maps entire channels
  cost.oc_t = shape.out_channels;
  cost.n_parallel_windows = num_parallel_windows(shape, pw);
  // Eq. (1): AR = ceil(PW_w*PW_h*IC / rows), AC = ceil(OC*N_WP / cols).
  cost.ar_cycles =
      ceil_div(checked_mul(pw.area(), shape.in_channels), geometry.rows);
  cost.ac_cycles =
      ceil_div(checked_mul(shape.out_channels, n_wp), geometry.cols);
  cost.total = checked_mul(cost.n_parallel_windows,
                           checked_mul(cost.ar_cycles, cost.ac_cycles));
  return cost;
}

CycleCost vw_cost(const ConvShape& shape, const ArrayGeometry& geometry,
                  const ParallelWindow& pw) {
  shape.validate();
  geometry.validate();
  CycleCost cost;
  cost.window = pw;
  cost.split = RowSplit::kChannelGranular;
  cost.total = std::numeric_limits<Cycles>::max();
  if (!window_admissible(shape, pw)) {
    return cost;
  }
  const Dim ic_t = tiled_ic(shape, geometry, pw);
  const Dim oc_t = tiled_oc(shape, geometry, pw);
  if (ic_t == 0 || oc_t == 0) {
    return cost;  // window too large for the array
  }
  cost.feasible = true;
  cost.ic_t = ic_t;
  cost.oc_t = oc_t;
  cost.n_parallel_windows = num_parallel_windows(shape, pw);
  cost.ar_cycles = ceil_div(shape.in_channels, ic_t);    // Eq. (5)
  cost.ac_cycles = ceil_div(shape.out_channels, oc_t);   // Eq. (7)
  cost.total = checked_mul(cost.n_parallel_windows,      // Eq. (8)
                           checked_mul(cost.ar_cycles, cost.ac_cycles));
  return cost;
}

CycleCost smd_cost(const ConvShape& shape, const ArrayGeometry& geometry) {
  shape.validate();
  geometry.validate();
  // Duplicates that fit block-diagonally with whole kernel columns.
  const Count by_rows = floor_div(geometry.rows, shape.kernel_volume());
  const Count by_cols = floor_div(geometry.cols, shape.out_channels);
  const Count duplicates =
      clamp_count(std::min(by_rows, by_cols), 1, shape.num_windows());

  CycleCost cost = im2col_cost(shape, geometry);
  cost.smd_duplicates = static_cast<Dim>(duplicates);
  if (duplicates > 1) {
    // By construction one array now holds all duplicates: AR = AC = 1.
    cost.ar_cycles = 1;
    cost.ac_cycles = 1;
    cost.n_parallel_windows = ceil_div(shape.num_windows(), duplicates);
    cost.total = cost.n_parallel_windows;
  }
  return cost;
}

}  // namespace vwsdk
