#include "core/exhaustive_mapper.h"

namespace vwsdk {

MappingDecision ExhaustiveMapper::map(const MappingContext& context) const {
  context.validate();
  const Objective& objective = context.scoring();
  const ConvShape& shape = context.shape;
  const ArrayGeometry& geometry = context.geometry;

  MappingDecision decision;
  decision.algorithm = name();
  decision.objective = objective.name();
  decision.shape = shape;
  decision.geometry = geometry;
  decision.cost = im2col_cost(shape, geometry);
  decision.score = objective.score(shape, geometry, decision.cost);

  // Costs stream per candidate, in scan order, so the im2col-first
  // tie-break holds.
  for (const ParallelWindow& pw :
       enumerate_windows(shape, /*include_kernel=*/true)) {
    const CycleCost candidate = vw_cost(shape, geometry, pw);
    const double candidate_score =
        candidate.feasible ? objective.score(shape, geometry, candidate)
                           : 0.0;
    if (candidate.feasible &&
        objective.better(candidate_score, decision.score)) {
      decision.cost = candidate;
      decision.score = candidate_score;
    }
  }
  return decision;
}

}  // namespace vwsdk
