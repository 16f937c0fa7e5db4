#include "core/pruned_mapper.h"

namespace vwsdk {

MappingDecision PrunedVwSdkMapper::map(const MappingContext& context) const {
  return map_impl(context, nullptr);
}

MappingDecision PrunedVwSdkMapper::map_with_stats(
    const ConvShape& shape, const ArrayGeometry& geometry,
    PruneStats* stats) const {
  return map_impl(MappingContext{shape, geometry}, stats);
}

MappingDecision PrunedVwSdkMapper::map_impl(const MappingContext& context,
                                            PruneStats* stats) const {
  context.validate();
  const Objective& objective = context.scoring();
  const ConvShape& shape = context.shape;
  const ArrayGeometry& geometry = context.geometry;
  // Prune 3 compares raw cycle counts against the incumbent's score,
  // which is only sound when the score *is* the cycle count.
  const bool cycle_bound = objective.cycle_lower_bound_admissible();

  MappingDecision decision;
  decision.algorithm = name();
  decision.objective = objective.name();
  decision.shape = shape;
  decision.geometry = geometry;
  decision.cost = im2col_cost(shape, geometry);
  decision.score = objective.score(shape, geometry, decision.cost);

  for (Dim h = shape.kernel_h; h <= shape.padded_h(); h += shape.stride_h) {
    // Prune 1 (outer form): if even the narrowest window is row-
    // infeasible at this height, every taller height is as well.
    if (static_cast<Count>(shape.kernel_w) * h > geometry.rows) {
      break;
    }
    // Prune 2 (outer form): N_WP at the narrowest width is the height's
    // window count; once that alone exceeds the columns, taller heights
    // only grow it.
    const ParallelWindow narrowest{shape.kernel_w, h};
    if (windows_in_pw(shape, narrowest) > geometry.cols) {
      break;
    }
    for (Dim w = shape.kernel_w; w <= shape.padded_w();
         w += shape.stride_w) {
      if (w == shape.kernel_w && h == shape.kernel_h) {
        continue;  // im2col initialization covers the kernel window
      }
      const ParallelWindow pw{w, h};
      // Prune 1: wider windows only grow the area.
      if (pw.area() > geometry.rows) {
        if (stats != nullptr) {
          ++stats->row_breaks;
        }
        break;
      }
      // Prune 2: wider windows only grow N_WP.
      if (windows_in_pw(shape, pw) > geometry.cols) {
        if (stats != nullptr) {
          ++stats->col_breaks;
        }
        break;
      }
      // Prune 3: cycles >= N_PW; no improvement possible if the bound
      // already meets the incumbent.
      if (cycle_bound &&
          num_parallel_windows(shape, pw) >= decision.cost.total) {
        if (stats != nullptr) {
          ++stats->lb_skipped;
        }
        continue;
      }
      const CycleCost candidate = vw_cost(shape, geometry, pw);
      if (stats != nullptr) {
        ++stats->evaluated;
      }
      if (candidate.feasible) {
        const double candidate_score =
            objective.score(shape, geometry, candidate);
        if (objective.better(candidate_score, decision.score)) {
          decision.cost = candidate;
          decision.score = candidate_score;
        }
      }
    }
  }
  return decision;
}

}  // namespace vwsdk
