#pragma once

/// @file exhaustive_mapper.h
/// Exhaustive oracle for the window search.
///
/// Evaluates *every* admissible window (including the kernel-sized one
/// with channel-granular tiling) plus the element-granular im2col mapping,
/// and returns the global optimum under the context's objective.  Under
/// the default cycles objective: because the element-granular im2col
/// cost never exceeds the channel-granular kernel-window cost (a channel
/// tile is a restricted row split), the optimum over this superset equals
/// the optimum Algorithm 1 reports -- the property test
/// `VwSdkMatchesExhaustiveOracle` relies on exactly that.
///
/// Intentionally the dumbest correct implementation: its value is being
/// obviously right, not fast.

#include "core/mapping_decision.h"

namespace vwsdk {

/// Brute-force oracle mapper (global optimum, im2col tie-break first).
class ExhaustiveMapper final : public Mapper {
 public:
  using Mapper::map;

  std::string name() const override { return "exhaustive"; }

  /// Evaluates all windows in scan order, scoring each through
  /// `context.scoring()`.
  MappingDecision map(const MappingContext& context) const override;
};

}  // namespace vwsdk
