#include "mapping/plan_validate.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

std::string tile_name(const ArrayTile& tile) {
  return cat("tile(", tile.ar_index, ",", tile.ac_index, ")");
}

/// Binding indices of one tile axis must lie inside the array and be
/// unique: two bindings of one index would put two weights in one device.
template <typename Binding, typename IndexOf>
void check_indices(const ArrayTile& tile,
                   const std::vector<Binding>& bindings, Dim extent,
                   const char* axis, IndexOf index_of,
                   std::vector<std::string>& issues) {
  std::vector<char> bound(static_cast<std::size_t>(extent), 0);
  for (const Binding& binding : bindings) {
    const Dim index = index_of(binding);
    if (index < 0 || index >= extent) {
      issues.push_back(
          cat(tile_name(tile), ": ", axis, " ", index, " outside array"));
    } else if (std::exchange(bound[static_cast<std::size_t>(index)], 1) !=
               0) {
      issues.push_back(
          cat(tile_name(tile), ": duplicate ", axis, " binding ", index));
    }
  }
}

/// Coverage of one axis's entities: each must be bound in every tile of
/// exactly one band, once per SMD duplicate.
struct EntityCoverage {
  static constexpr Dim kUnbound = -1;
  static constexpr Dim kManyBands = -2;

  EntityCoverage(Count entities, Dim duplicates)
      : dups(duplicates),
        band(static_cast<std::size_t>(entities), kUnbound),
        bindings(static_cast<std::size_t>(entities), 0),
        last_tile(static_cast<std::size_t>(checked_mul(entities, duplicates)),
                  0) {}

  /// Records a binding by tile number `tile` (1-based) of `tile_band`;
  /// false if that tile already bound (entity, dup).
  bool bind(Count entity, Dim dup, Dim tile_band, Count tile) {
    const auto e = static_cast<std::size_t>(entity);
    band[e] = (band[e] == kUnbound || band[e] == tile_band) ? tile_band
                                                            : kManyBands;
    ++bindings[e];
    return std::exchange(last_tile[e * static_cast<std::size_t>(dups) +
                                   static_cast<std::size_t>(dup)],
                         tile) != tile;
  }

  template <typename NameOf>
  void report(NameOf name_of, const char* band_axis, Count tiles_per_band,
              std::vector<std::string>& issues) const {
    const Count expected = checked_mul(tiles_per_band, dups);
    for (std::size_t e = 0; e < band.size(); ++e) {
      const std::string name = name_of(static_cast<Count>(e));
      if (band[e] == kUnbound) {
        issues.push_back(cat(name, " not mapped"));
      } else if (band[e] == kManyBands) {
        issues.push_back(cat(name, " mapped in several ", band_axis, " tiles"));
      } else if (bindings[e] != expected) {
        issues.push_back(
            cat(name, " bound ", bindings[e], " times, expected ", expected));
      }
    }
  }

  Dim dups;
  std::vector<Dim> band;
  std::vector<Count> bindings;
  std::vector<Count> last_tile;
};

/// A row binds the input entity (ic, dy, dx), an offset inside the plan's
/// window (the kernel window for im2col and SMD plans); a column binds the
/// output entity (oc, win_py, win_px).
void check_coverage(const MappingPlan& plan,
                    std::vector<std::string>& issues) {
  const ConvShape& s = plan.shape;
  const ParallelWindow& window = plan.cost.window;
  const Count wip_w = windows_in_pw_w(s, window);
  const Count wip_h = windows_in_pw_h(s, window);
  const Dim dups = std::max<Dim>(1, plan.cost.smd_duplicates);
  const Count area = window.area();
  const Count n_wp = checked_mul(wip_w, wip_h);
  const auto input_name = [&](Count e) {
    return cat("input row entity (ic=", e / area, ", dy=",
               (e % area) / window.w, ", dx=", e % window.w, ")");
  };
  const auto output_name = [&](Count e) {
    return cat("output column entity (oc=", e / n_wp, ", win_py=",
               (e % n_wp) / wip_w, ", win_px=", e % wip_w, ")");
  };

  EntityCoverage inputs(checked_mul(area, s.in_channels), dups);
  EntityCoverage outputs(checked_mul(n_wp, s.out_channels), dups);
  Count tile_number = 0;
  for (const ArrayTile& tile : plan.tiles) {
    ++tile_number;
    for (const RowBinding& rb : tile.rows) {
      if (rb.ic < 0 || rb.ic >= s.in_channels || rb.dy < 0 ||
          rb.dy >= window.h || rb.dx < 0 || rb.dx >= window.w ||
          rb.dup < 0 || rb.dup >= dups) {
        issues.push_back(cat(tile_name(tile), ": row ", rb.row,
                             " binds an input outside the layer"));
        continue;
      }
      const Count e =
          (static_cast<Count>(rb.ic) * window.h + rb.dy) * window.w + rb.dx;
      if (!inputs.bind(e, rb.dup, tile.ar_index, tile_number)) {
        issues.push_back(
            cat(tile_name(tile), ": ", input_name(e), " bound twice"));
      }
    }
    for (const ColBinding& cb : tile.cols) {
      if (cb.oc < 0 || cb.oc >= s.out_channels || cb.win_py < 0 ||
          cb.win_py >= wip_h || cb.win_px < 0 || cb.win_px >= wip_w ||
          cb.dup < 0 || cb.dup >= dups) {
        issues.push_back(cat(tile_name(tile), ": col ", cb.col,
                             " binds an output outside the layer"));
        continue;
      }
      const Count e =
          (static_cast<Count>(cb.oc) * wip_h + cb.win_py) * wip_w + cb.win_px;
      if (!outputs.bind(e, cb.dup, tile.ac_index, tile_number)) {
        issues.push_back(
            cat(tile_name(tile), ": ", output_name(e), " bound twice"));
      }
    }
  }
  inputs.report(input_name, "AR", plan.cost.ac_cycles, issues);
  outputs.report(output_name, "AC", plan.cost.ar_cycles, issues);
}

/// The parallel-window bases along one axis must be stride-aligned, stay
/// inside the grid of `windows` kernel windows, and together (`per_pw`
/// windows each) cover all of it.
void check_bases(const std::vector<Dim>& bases, Count windows, Count per_pw,
                 Dim stride, const char* axis,
                 std::vector<std::string>& issues) {
  std::vector<char> covered(static_cast<std::size_t>(windows), 0);
  for (const Dim base : bases) {
    if (base % stride != 0) {
      issues.push_back(cat("base ", axis, " ", base, " not stride-aligned"));
      continue;
    }
    const Count first = base / stride;
    for (Count k = 0; k < per_pw; ++k) {
      if (first + k >= windows) {
        issues.push_back(
            cat("base ", axis, " ", base, " overruns the window grid"));
        break;
      }
      covered[static_cast<std::size_t>(first + k)] = 1;
    }
  }
  if (std::count(covered.begin(), covered.end(), 1) !=
      static_cast<std::ptrdiff_t>(covered.size())) {
    issues.push_back(cat("window grid not fully covered along ", axis));
  }
}

}  // namespace

std::vector<std::string> validate_plan(const MappingPlan& plan) {
  std::vector<std::string> issues;
  const ConvShape& s = plan.shape;

  if (plan.tiles.empty()) {
    issues.emplace_back("plan has no tiles");
    return issues;
  }
  if (static_cast<Count>(plan.tiles.size()) !=
      plan.cost.ar_cycles * plan.cost.ac_cycles) {
    issues.push_back(cat("tile count ", plan.tiles.size(),
                         " != AR*AC = ", plan.cost.ar_cycles, "*",
                         plan.cost.ac_cycles));
  }

  for (const ArrayTile& tile : plan.tiles) {
    check_indices(tile, tile.rows, plan.geometry.rows, "row",
                  [](const RowBinding& rb) { return rb.row; }, issues);
    check_indices(tile, tile.cols, plan.geometry.cols, "col",
                  [](const ColBinding& cb) { return cb.col; }, issues);
  }
  check_coverage(plan, issues);

  // Window coverage by the base grid (SMD covers windows by construction).
  if (plan.kind != PlanKind::kSmd) {
    const ParallelWindow& pw = plan.cost.window;
    check_bases(plan.base_x, s.windows_w(), windows_in_pw_w(s, pw), s.stride_w,
                "x", issues);
    check_bases(plan.base_y, s.windows_h(), windows_in_pw_h(s, pw), s.stride_h,
                "y", issues);
  }

  // Realized cycles must equal the analytic cost.
  if (plan.total_cycles() != plan.cost.total) {
    issues.push_back(cat("plan cycles ", plan.total_cycles(),
                         " != analytic cycles ", plan.cost.total));
  }
  return issues;
}

void expect_valid(const MappingPlan& plan) {
  const std::vector<std::string> issues = validate_plan(plan);
  if (!issues.empty()) {
    throw InternalError(cat("invalid mapping plan (", issues.size(),
                            " issues): ", join(issues, "; ")));
  }
}

}  // namespace vwsdk
