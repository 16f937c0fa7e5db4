#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vwsdk {

void fill_random_int(Tensord& tensor, Rng& rng, int magnitude) {
  VWSDK_REQUIRE(magnitude >= 0, "magnitude must be non-negative");
  for (double& value : tensor.data()) {
    value = static_cast<double>(rng.uniform_int(-magnitude, magnitude));
  }
}

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

double max_abs_diff(const Tensord& a, const Tensord& b) {
  VWSDK_REQUIRE(a.shape() == b.shape(),
                "max_abs_diff requires matching shapes");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

bool exactly_equal(const Tensord& a, const Tensord& b) {
  return a.shape() == b.shape() && a.data() == b.data();
}

double sum(const Tensord& tensor) {
  double total = 0.0;
  for (const double value : tensor.data()) {
    total += value;
  }
  return total;
}

}  // namespace vwsdk
