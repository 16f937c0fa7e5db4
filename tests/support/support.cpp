#include "support/support.h"

#include "common/error.h"
#include "common/string_util.h"
#include "mapping/cost_model.h"
#include "mapping/plan_builder.h"

namespace vwsdk {

void fill_random_real(Tensord& tensor, Rng& rng, double lo, double hi) {
  for (double& value : tensor.data()) {
    value = rng.uniform_double(lo, hi);
  }
}

void fill_sequential(Tensord& tensor) {
  double next = 0.0;
  for (double& value : tensor.data()) {
    value = next;
    next += 1.0;
  }
}

double sum(const Tensord& tensor) {
  double total = 0.0;
  for (const double value : tensor.data()) {
    total += value;
  }
  return total;
}

MappingPlan build_plan_for_window(const ConvShape& shape,
                                  const ArrayGeometry& geometry,
                                  const ParallelWindow& pw) {
  if (pw == kernel_window(shape)) {
    return build_plan_for_cost(shape, geometry, im2col_cost(shape, geometry));
  }
  const CycleCost cost = vw_cost(shape, geometry, pw);
  VWSDK_REQUIRE(cost.feasible, cat("window ", pw.to_string(),
                                   " infeasible on ", geometry.to_string()));
  return build_plan_for_cost(shape, geometry, cost);
}

}  // namespace vwsdk
