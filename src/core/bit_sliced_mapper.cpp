#include "core/bit_sliced_mapper.h"

#include "common/error.h"
#include "common/string_util.h"

namespace vwsdk {

BitSlicedVwSdkMapper::BitSlicedVwSdkMapper(BitSlicingConfig config)
    : config_(config) {
  config_.validate();
}

MappingDecision BitSlicedVwSdkMapper::map(
    const MappingContext& context) const {
  context.validate();
  const Objective& objective = context.scoring();
  // Energy/EDP scoring runs the analytic activity model, which does not
  // know about slicing: a sliced cost's AC accounting breaks its
  // invariants (negative residual columns).  With the degenerate
  // 1-slice/1-step config every cost equals the plain model's, so
  // objective scoring is sound; otherwise refuse loudly rather than
  // return a wrong energy figure.
  VWSDK_REQUIRE(objective.cycle_lower_bound_admissible() ||
                    (config_.slices() == 1 && config_.input_steps() == 1),
                cat("vw-sdk-bitsliced can score the '", objective.name(),
                    "' objective only with the default 1-slice/1-step "
                    "config (the activity model is slicing-unaware)"));
  const ConvShape& shape = context.shape;
  const ArrayGeometry& geometry = context.geometry;

  MappingDecision decision;
  decision.algorithm = name();
  decision.objective = objective.name();
  decision.shape = shape;
  decision.geometry = geometry;
  decision.cost = im2col_cost_bitsliced(shape, geometry, config_);

  for (Dim h = shape.kernel_h; h <= shape.padded_h(); h += shape.stride_h) {
    for (Dim w = shape.kernel_w; w <= shape.padded_w();
         w += shape.stride_w) {
      if (w == shape.kernel_w && h == shape.kernel_h) {
        continue;
      }
      const CycleCost candidate =
          vw_cost_bitsliced(shape, geometry, {w, h}, config_);
      if (candidate.feasible && decision.cost.total > candidate.total) {
        decision.cost = candidate;
      }
    }
  }
  decision.score = objective.score(shape, geometry, decision.cost);
  return decision;
}

}  // namespace vwsdk
