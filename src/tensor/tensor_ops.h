#pragma once

/// @file tensor_ops.h
/// Deterministic tensor generators and comparison utilities.

#include "common/random.h"
#include "tensor/tensor.h"

namespace vwsdk {

/// Fill with uniform *integer-valued* doubles in [-magnitude, +magnitude].
/// Integer values keep crossbar-vs-reference comparisons exact (see
/// tensor.h).  Deterministic for a given (rng seed, shape).
void fill_random_int(Tensord& tensor, Rng& rng, int magnitude);

/// Largest absolute element difference; shapes must match.
double max_abs_diff(const Tensord& a, const Tensord& b);

/// True if all elements match exactly (shape included).
bool exactly_equal(const Tensord& a, const Tensord& b);

}  // namespace vwsdk
