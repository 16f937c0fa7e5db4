#pragma once

/// @file vwsdk_mapper.h
/// VW-SDK: the paper's Algorithm 1, generalized over search objectives.
///
/// Initialize the incumbent with the im2col mapping, then scan every
/// parallel-window shape (PW_w, PW_h) with PW_h = K_h .. I_h (outer loop)
/// and PW_w = K_w .. I_w (inner loop), skipping (K_w, K_h) itself (that is
/// the im2col initialization), evaluating the channel-tiled cost of
/// Eq. (8) and keeping the *first* candidate strictly better under the
/// context's objective.  With the default cycles objective this is
/// exactly the paper's minimum-cycles scan, bit for bit.
///
/// The first-minimum tie-break is observable in the paper's own results:
/// VGG-13 conv5 reports a 4x3 window although 4x4 ties it at 5832 cycles;
/// 4x3 is visited first.  Our tests pin this behaviour.
///
/// Stride extension: candidate extents advance in stride steps so every
/// candidate is admissible; with stride 1 this is exactly Algorithm 1.

#include "core/mapping_decision.h"
#include "core/search_trace.h"

namespace vwsdk {

/// The proposed variable-window SDK mapping algorithm.
class VwSdkMapper final : public Mapper {
 public:
  using Mapper::map;

  std::string name() const override { return "vw-sdk"; }

  /// Algorithm 1 under `context`: candidates are scored by
  /// `context.scoring()` in scan order, and every candidate is recorded
  /// into `context.trace` when one is given.
  MappingDecision map(const MappingContext& context) const override;
};

}  // namespace vwsdk
