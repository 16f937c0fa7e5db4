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

}  // namespace vwsdk
