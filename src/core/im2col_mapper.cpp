#include "core/im2col_mapper.h"

namespace vwsdk {

MappingDecision Im2colMapper::map(const MappingContext& context) const {
  context.validate();
  const Objective& objective = context.scoring();
  MappingDecision decision;
  decision.algorithm = name();
  decision.objective = objective.name();
  decision.shape = context.shape;
  decision.geometry = context.geometry;
  decision.cost = im2col_cost(context.shape, context.geometry);
  decision.score =
      objective.score(context.shape, context.geometry, decision.cost);
  return decision;
}

}  // namespace vwsdk
