#pragma once

/// @file mapping_decision.h
/// The result of running a mapping algorithm on one layer, and the common
/// interface all mapping algorithms implement.

#include <memory>
#include <string>

#include "core/mapping_context.h"
#include "mapping/cost_model.h"
#include "pim/array_geometry.h"

namespace vwsdk {

/// A mapper's chosen mapping for one (layer, array) pair.
struct MappingDecision {
  std::string algorithm;    ///< producer name ("im2col", "sdk", "vw-sdk", ...)
  std::string objective;    ///< scoring objective name ("cycles", "energy", ...)
  double score = 0.0;       ///< the chosen mapping's score under `objective`
  ConvShape shape{};        ///< the layer
  ArrayGeometry geometry{}; ///< the array
  CycleCost cost{};         ///< full cycle breakdown of the chosen mapping

  /// True if the chosen window is just the kernel (no SDK duplication) --
  /// the "cannot form a parallel window larger than the kernel" regime the
  /// paper discusses for SDK beyond layer 3.
  bool is_im2col_fallback() const;

  /// Table-I-style cell: "PW_w x PW_h x IC_t x OC_t".  Matches the paper's
  /// printing convention: fallback rows print the full K x K x IC x OC.
  std::string table_entry() const;

  /// One-line description.  For the cycles objective this is unchanged
  /// from the pre-objective API; other objectives append their score.
  std::string to_string() const;

  /// Field-wise equality; the parallel-determinism tests rely on the
  /// threaded optimizer producing *identical* decisions, not merely
  /// equal totals.
  bool operator==(const MappingDecision&) const = default;
};

/// Interface of a mapping algorithm.
///
/// The primary entry point is context-based: `map(const MappingContext&)`
/// receives the layer, the array, the scoring objective, and (for search
/// mappers) an optional trace.  The two-argument `map` is a non-virtual
/// compatibility shim equivalent to a default context (cycles
/// objective) -- it is what the pre-context API looked like.
class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Short stable identifier ("im2col", "smd", "sdk", "vw-sdk", ...).
  virtual std::string name() const = 0;

  /// Choose a mapping under `context`.  Search mappers must score
  /// candidates through `context.scoring()`.
  virtual MappingDecision map(const MappingContext& context) const = 0;

  /// Compatibility shim: map `shape` on `geometry` under the default
  /// context (cycles objective).
  MappingDecision map(const ConvShape& shape,
                      const ArrayGeometry& geometry) const;
};

/// Construct any mapper in the table by name or alias (case-insensitive);
/// throws NotFound listing the known names.  Thin shim over
/// MapperRegistry::instance() (core/mapper_registry.h), whose constant
/// table is the single source of mapper names.
std::unique_ptr<Mapper> make_mapper(const std::string& name);

}  // namespace vwsdk
