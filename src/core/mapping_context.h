#pragma once

/// @file mapping_context.h
/// The parameter object every mapping search runs against.
///
/// A MappingContext bundles what used to be loose `map(shape, geometry)`
/// arguments with the search objective and the optional search trace.
/// It is cheap to copy (non-owning pointers; the caller keeps ownership
/// of every resource) and default-constructs to the paper's
/// configuration: cycles objective, no trace.

#include "mapping/conv_shape.h"
#include "mapping/objective.h"
#include "pim/array_geometry.h"

namespace vwsdk {

class SearchTrace;

/// Everything a Mapper needs to choose a mapping for one layer.
struct MappingContext {
  ConvShape shape{};         ///< the layer (or one group's sub-convolution)
  ArrayGeometry geometry{};  ///< the array

  /// Scoring strategy for candidate comparison and tie-breaking;
  /// nullptr means cycles_objective() (the paper's search, bit-exact).
  const Objective* objective = nullptr;

  /// When non-null, search mappers record every candidate visited, in
  /// scan order (see core/search_trace.h).
  SearchTrace* trace = nullptr;

  MappingContext() = default;
  MappingContext(const ConvShape& shape_in, const ArrayGeometry& geometry_in)
      : shape(shape_in), geometry(geometry_in) {}

  /// The effective objective: `objective`, defaulting to cycles.
  const Objective& scoring() const {
    return objective != nullptr ? *objective : cycles_objective();
  }

  /// Validate shape and geometry (what every mapper checks on entry).
  void validate() const {
    shape.validate();
    geometry.validate();
  }
};

}  // namespace vwsdk
