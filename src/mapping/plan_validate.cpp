#include "mapping/plan_validate.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

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
      const auto name = [&] { return name_of(static_cast<Count>(e)); };
      if (band[e] == kUnbound) {
        issues.push_back(cat(name(), " not mapped"));
      } else if (band[e] == kManyBands) {
        issues.push_back(
            cat(name(), " mapped in several ", band_axis, " tiles"));
      } else if (bindings[e] != expected) {
        issues.push_back(
            cat(name(), " bound ", bindings[e], " times, expected ", expected));
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
/// output entity (oc, win_py, win_px).  The layout holds only bindings
/// inside the layer.
void check_coverage(const MappingPlan& plan, const PlanLayout& layout,
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
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    const ArrayTile& tile = plan.tiles[t];
    const Count tile_number = static_cast<Count>(t) + 1;
    for (const RowBinding* rb : layout.tiles[t].rows) {
      const Count e =
          (static_cast<Count>(rb->ic) * window.h + rb->dy) * window.w + rb->dx;
      if (!inputs.bind(e, rb->dup, tile.ar_index, tile_number)) {
        issues.push_back(
            cat(tile_name(tile), ": ", input_name(e), " bound twice"));
      }
    }
    for (const ColumnGroup& group : layout.tiles[t].groups) {
      for (const ColBinding* cb : group.cols) {
        const Count e = (static_cast<Count>(cb->oc) * wip_h + cb->win_py) *
                            wip_w +
                        cb->win_px;
        if (!outputs.bind(e, cb->dup, tile.ac_index, tile_number)) {
          issues.push_back(
              cat(tile_name(tile), ": ", output_name(e), " bound twice"));
        }
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

/// Every check, on `layout` derived from `plan`.
std::vector<std::string> validate(const MappingPlan& plan,
                                  const PlanLayout& layout) {
  if (plan.tiles.empty()) {
    return {"plan has no tiles"};
  }
  const ConvShape& s = plan.shape;
  std::vector<std::string> issues = layout.issues;
  check_coverage(plan, layout, issues);

  // Window coverage by the base grid (SMD covers windows by construction).
  if (!plan.is_smd()) {
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

}  // namespace

std::vector<std::string> validate_plan(const MappingPlan& plan) {
  return validate(plan, derive_layout(plan));
}

void expect_valid(const MappingPlan& plan) {
  expect_valid(plan, derive_layout(plan));
}

void expect_valid(const MappingPlan& plan, const PlanLayout& layout) {
  const std::vector<std::string> issues = validate(plan, layout);
  if (!issues.empty()) {
    throw InternalError(cat("invalid mapping plan (", issues.size(),
                            " issues): ", join(issues, "; ")));
  }
}

}  // namespace vwsdk
