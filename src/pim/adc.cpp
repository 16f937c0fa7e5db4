#include "pim/adc.h"

#include <cmath>

#include "common/error.h"
#include "common/string_util.h"

namespace vwsdk {

ConverterModel::ConverterModel(int bits, double min_value, double max_value)
    : mode_(ConverterMode::kLinear),
      bits_(bits),
      min_value_(min_value),
      max_value_(max_value) {
  VWSDK_REQUIRE(bits >= 1 && bits <= 30,
                cat("converter bits must be in [1, 30], got ", bits));
  VWSDK_REQUIRE(max_value > min_value,
                "converter range must have max_value > min_value");
  const double levels = std::ldexp(1.0, bits);  // 2^bits
  step_ = (max_value_ - min_value_) / levels;
}

double ConverterModel::quantize(double value) const {
  if (value <= min_value_) {
    return min_value_;
  }
  if (value >= max_value_) {
    return max_value_ - step_;  // top code
  }
  // Mid-rise uniform quantizer: floor to the code edge.
  const double code = std::floor((value - min_value_) / step_);
  return min_value_ + code * step_;
}

}  // namespace vwsdk
