#pragma once

/// @file adc.h
/// Analog/digital conversion models for the functional crossbar.
///
/// The paper's cost argument (§II-B, refs [2][3]) is that AD/DA conversions
/// dominate PIM energy, so *cycles* -- each requiring one conversion per
/// active row/column -- are the quantity to minimize.  The functional
/// simulator models the conversions explicitly:
///  * `kIdeal`  : infinite-precision passthrough (used for bit-exact
///                equivalence tests),
///  * `kLinear` : uniform mid-rise quantization with saturation, the usual
///                behavioural model of a linear SAR/flash ADC.

#include "common/types.h"

namespace vwsdk {

/// Converter transfer-function model.
enum class ConverterMode { kIdeal, kLinear };

/// A linear converter: quantizes values into 2^bits uniform codes across
/// [min_value, max_value], saturating outside.  Shared by the ADC (column
/// current read-out) and, if desired, the DAC (row voltage drive).
class ConverterModel {
 public:
  /// Ideal passthrough converter.
  ConverterModel() = default;

  /// Linear quantizing converter.
  /// @param bits       resolution, 1..30.
  /// @param min_value  lower edge of the input range.
  /// @param max_value  upper edge of the input range (must exceed min).
  ConverterModel(int bits, double min_value, double max_value);

  /// Apply the transfer function.
  double convert(double value) const {
    return mode_ == ConverterMode::kIdeal ? value : quantize(value);
  }

  ConverterMode mode() const { return mode_; }
  int bits() const { return bits_; }

  /// Width of one quantization step (0 for ideal).
  double step() const { return step_; }

 private:
  double quantize(double value) const;

  ConverterMode mode_ = ConverterMode::kIdeal;
  int bits_ = 0;
  double min_value_ = 0.0;
  double max_value_ = 0.0;
  double step_ = 0.0;
};

}  // namespace vwsdk
