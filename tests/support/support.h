#pragma once

// Helpers only the test suites call: tensor fills and sums for layout
// and property tests, and the plan-for-a-window shortcut.  Built as the
// vwsdk_test_support library, which only test targets link.

#include "common/random.h"
#include "mapping/mapping_plan.h"
#include "mapping/parallel_window.h"
#include "tensor/tensor.h"

namespace vwsdk {

/// Fill with uniform real values in [lo, hi).
void fill_random_real(Tensord& tensor, Rng& rng, double lo, double hi);

/// Fill with 0, 1, 2, ... (useful for position-sensitive layout tests:
/// every element value identifies its own coordinates).
void fill_sequential(Tensord& tensor);

/// Sum of all elements.
double sum(const Tensord& tensor);

/// Build the plan for a window chosen by a mapper, using channel tiling
/// (VW semantics).  `pw` equal to the kernel window yields the im2col
/// plan.
MappingPlan build_plan_for_window(const ConvShape& shape,
                                  const ArrayGeometry& geometry,
                                  const ParallelWindow& pw);

}  // namespace vwsdk
