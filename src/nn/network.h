#pragma once

/// @file network.h
/// A network = a named, ordered list of convolutional layer descriptors.
///
/// Matching the paper's accounting, each listed layer contributes once to
/// network totals: Table I lists each *distinct layer shape* of VGG-13 and
/// ResNet-18 and sums their cycles once (verified against the published
/// totals 114697 / 77102 / 7240 / 4294).

#include <string>
#include <vector>

#include "nn/layer.h"

namespace vwsdk {

/// An ordered collection of conv layers with validation.
class Network {
 public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Append a validated layer.
  void add_layer(ConvLayerDesc layer);

  /// The layers, in order.  A temporary has none to lend: the reference
  /// would dangle at the end of the full expression (as in a range-for
  /// over `model_by_name(n).layers()`), so that call does not compile.
  const std::vector<ConvLayerDesc>& layers() const& { return layers_; }
  const std::vector<ConvLayerDesc>& layers() const&& = delete;
  Count layer_count() const { return static_cast<Count>(layers_.size()); }
  bool empty() const { return layers_.empty(); }

  /// Layer by index (bounds-checked).
  const ConvLayerDesc& layer(Count index) const;

  /// Layer by name; throws NotFound.
  const ConvLayerDesc& layer_by_name(const std::string& layer_name) const;

  /// Sum of weight parameters across layers.
  Count total_weights() const;

  /// Multi-line human-readable listing.
  std::string to_string() const;

 private:
  std::string name_;
  std::vector<ConvLayerDesc> layers_;
};

}  // namespace vwsdk
