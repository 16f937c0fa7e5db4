#include "core/vwsdk_mapper.h"

namespace vwsdk {

MappingDecision VwSdkMapper::map(const MappingContext& context) const {
  context.validate();
  const Objective& objective = context.scoring();
  const ConvShape& shape = context.shape;
  const ArrayGeometry& geometry = context.geometry;

  MappingDecision decision;
  decision.algorithm = name();
  decision.objective = objective.name();
  decision.shape = shape;
  decision.geometry = geometry;
  // Step 1 of Algorithm 1: initialize with im2col.
  decision.cost = im2col_cost(shape, geometry);
  decision.score = objective.score(shape, geometry, decision.cost);

  // Steps 2-16: every candidate in scan order (PW_h outer, PW_w inner),
  // skipping the kernel window the initialization covers.  Costs stream
  // one candidate at a time (no whole-scan cost buffer).
  for (const ParallelWindow& pw :
       enumerate_windows(shape, /*include_kernel=*/false)) {
    const CycleCost candidate = vw_cost(shape, geometry, pw);
    const double candidate_score =
        candidate.feasible ? objective.score(shape, geometry, candidate)
                           : 0.0;
    // The strict comparison keeps the first minimum.
    const bool improved =
        candidate.feasible &&
        objective.better(candidate_score, decision.score);
    if (context.trace != nullptr) {
      context.trace->record(SearchStep{pw, candidate.feasible,
                                       candidate.feasible ? candidate.total
                                                          : 0,
                                       improved, candidate_score});
    }
    if (improved) {
      decision.cost = candidate;
      decision.score = candidate_score;
    }
  }
  return decision;
}

}  // namespace vwsdk
