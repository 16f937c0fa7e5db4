#include "core/sdk_mapper.h"

#include <algorithm>

#include "common/math_util.h"

namespace vwsdk {

Dim SdkMapper::chosen_gamma(const ConvShape& shape,
                            const ArrayGeometry& geometry) {
  shape.validate();
  geometry.validate();
  if (shape.kernel_w != shape.kernel_h) {
    return 1;  // baseline defined for square kernels only
  }
  const Cycles im2col_ar =
      ceil_div(shape.kernel_volume(), geometry.rows);
  Dim gamma = 1;
  while (true) {
    const Dim next = gamma + 1;
    const ParallelWindow pw{shape.kernel_w + (next - 1) * shape.stride_w,
                            shape.kernel_h + (next - 1) * shape.stride_h};
    // (iii) window inside the padded IFM (and stride-admissible).
    if (!window_admissible(shape, pw)) {
      break;
    }
    // (i) every duplicated kernel on the columns at once.
    const Count duplicated_cols =
        checked_mul(shape.out_channels,
                    checked_mul(static_cast<Count>(next), next));
    if (duplicated_cols > geometry.cols) {
      break;
    }
    // (ii) AR cycles may not grow beyond im2col's.
    const Cycles ar =
        ceil_div(checked_mul(pw.area(), shape.in_channels), geometry.rows);
    if (ar > im2col_ar) {
      break;
    }
    gamma = next;
  }
  return gamma;
}

MappingDecision SdkMapper::map(const MappingContext& context) const {
  const Objective& objective = context.scoring();
  MappingDecision decision;
  decision.algorithm = name();
  decision.objective = objective.name();
  decision.shape = context.shape;
  decision.geometry = context.geometry;

  const Dim gamma = chosen_gamma(context.shape, context.geometry);
  if (gamma <= 1) {
    decision.cost = im2col_cost(context.shape, context.geometry);
  } else {
    const ParallelWindow pw{
        context.shape.kernel_w + (gamma - 1) * context.shape.stride_w,
        context.shape.kernel_h + (gamma - 1) * context.shape.stride_h};
    decision.cost = sdk_cost(context.shape, context.geometry, pw);
  }
  decision.score =
      objective.score(context.shape, context.geometry, decision.cost);
  return decision;
}

}  // namespace vwsdk
