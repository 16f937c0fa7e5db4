#pragma once

/// @file tensor.h
/// Dense rank-4 tensors used by the functional PIM simulator.
///
/// Layout is row-major NCHW-style: index (d0, d1, d2, d3) with d3 fastest.
/// Two conventions are used throughout the library:
///   * feature maps:  (1, C, H, W)   -- batch is always 1 in this repo,
///   * conv weights:  (OC, IC, KH, KW).
///
/// Values are `double` in the simulator; tests use integer-valued doubles
/// so that crossbar execution matches the reference convolution *exactly*
/// (doubles represent integers exactly far beyond the magnitudes reached
/// here), making equivalence checks bit-precise rather than tolerance-based.

#include <algorithm>
#include <ostream>
#include <vector>

#include "common/error.h"
#include "common/string_util.h"
#include "common/types.h"

namespace vwsdk {

/// Shape of a rank-4 tensor.
struct Shape4 {
  Dim d0 = 0;
  Dim d1 = 0;
  Dim d2 = 0;
  Dim d3 = 0;

  /// Total element count.
  Count size() const {
    return static_cast<Count>(d0) * d1 * d2 * d3;
  }

  bool operator==(const Shape4&) const = default;

  /// "(a, b, c, d)" for diagnostics.
  std::string to_string() const {
    return cat("(", d0, ", ", d1, ", ", d2, ", ", d3, ")");
  }
};

/// A dense rank-4 tensor of T with bounds-checked access.
template <typename T>
class Tensor {
 public:
  /// An empty tensor (shape all zero).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape4 shape) : shape_(shape) {
    VWSDK_REQUIRE(shape.d0 >= 0 && shape.d1 >= 0 && shape.d2 >= 0 &&
                      shape.d3 >= 0,
                  "tensor dimensions must be non-negative");
    data_.assign(static_cast<std::size_t>(shape.size()), T{});
  }

  /// Feature-map factory: shape (1, channels, height, width).
  static Tensor feature_map(Dim channels, Dim height, Dim width) {
    return Tensor(Shape4{1, channels, height, width});
  }

  /// Weight factory: shape (out_channels, in_channels, kh, kw).
  static Tensor weights(Dim out_channels, Dim in_channels, Dim kh, Dim kw) {
    return Tensor(Shape4{out_channels, in_channels, kh, kw});
  }

  const Shape4& shape() const { return shape_; }
  Count size() const { return shape_.size(); }
  bool empty() const { return data_.empty(); }

  /// Raw storage (row-major, d3 fastest).
  const std::vector<T>& data() const { return data_; }
  std::vector<T>& data() { return data_; }

  /// Bounds-checked element access.
  T& at(Dim i0, Dim i1, Dim i2, Dim i3) {
    return data_[check_index(i0, i1, i2, i3)];
  }
  const T& at(Dim i0, Dim i1, Dim i2, Dim i3) const {
    return data_[check_index(i0, i1, i2, i3)];
  }

  /// Feature-map accessors (require d0 == 1): (channel, y, x).
  T& at(Dim channel, Dim y, Dim x) { return at(0, channel, y, x); }
  const T& at(Dim channel, Dim y, Dim x) const { return at(0, channel, y, x); }

  /// Fill every element with `value`.
  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  bool operator==(const Tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
  }

 private:
  std::size_t check_index(Dim i0, Dim i1, Dim i2, Dim i3) const {
    VWSDK_REQUIRE(i0 >= 0 && i0 < shape_.d0 && i1 >= 0 && i1 < shape_.d1 &&
                      i2 >= 0 && i2 < shape_.d2 && i3 >= 0 && i3 < shape_.d3,
                  cat("tensor index (", i0, ", ", i1, ", ", i2, ", ", i3,
                      ") out of bounds for shape ", shape_.to_string()));
    const Count flat =
        ((static_cast<Count>(i0) * shape_.d1 + i1) * shape_.d2 + i2) *
            shape_.d3 +
        i3;
    return static_cast<std::size_t>(flat);
  }

  Shape4 shape_{};
  std::vector<T> data_;
};

/// The simulator's working precision.
using Tensord = Tensor<double>;

inline std::ostream& operator<<(std::ostream& os, const Shape4& shape) {
  return os << shape.to_string();
}

}  // namespace vwsdk
