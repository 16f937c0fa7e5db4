#pragma once

/// @file mapper_registry.h
/// The single source of truth for mapper names: one constant table of
/// every mapping algorithm with its aliases, one-line description,
/// capability flags and factory.
///
/// The table lives in mapper_registry.cpp, one row per mapper in
/// listing order: the paper's baselines (im2col, SMD, SDK), its
/// proposal (vw-sdk), then this repo's extensions.  The set is closed:
/// adding a mapper is one class and one table row.
///
/// Everything that used to hand-maintain a name list derives it from
/// here instead: make_mapper (a shim over `create`), the CLI's
/// --mapper/--mappers validation and help text, `vwsdk mappers`, and the
/// error messages -- so docs/CLI.md stays honest through the
/// `cli.help_matches_doc` ctest.

#include <memory>
#include <string>
#include <vector>

#include "core/mapping_decision.h"

namespace vwsdk {

/// What a mapper can do; drives `vwsdk mappers` and lets tools reason
/// about the algorithms without instantiating them.  Every mapper
/// handles grouped sub-convolutions (IC/G -> OC/G shapes).
struct MapperCapabilities {
  /// The *search* optimizes MappingContext::objective (im2col/SMD/SDK
  /// compute a fixed mapping and merely report its score).
  bool objective_aware = false;

  /// Guarantees the global optimum over all admissible windows.
  bool exhaustive = false;
};

/// One row of the mapper table.
struct MapperInfo {
  std::string name;                  ///< canonical name ("vw-sdk")
  std::vector<std::string> aliases;  ///< extra lookup keys ("vwsdk")
  std::string description;           ///< one line, for --help and docs
  MapperCapabilities capabilities{};

  /// Constructs a fresh instance of the mapper.
  std::unique_ptr<Mapper> (*factory)() = nullptr;
};

/// Name -> mapper lookup over the constant table.  Every lookup takes
/// a canonical name or an alias, case-insensitive, surrounding
/// whitespace ignored.
class MapperRegistry {
 public:
  /// The process-wide registry.
  static const MapperRegistry& instance();

  /// The row `name` resolves to; throws NotFound listing the known
  /// names.  The reference stays valid for the process lifetime.
  const MapperInfo& info(const std::string& name) const;

  /// A fresh instance of the mapper `name` resolves to; throws NotFound
  /// listing the known names.
  std::unique_ptr<Mapper> create(const std::string& name) const;

  /// Canonical names, in listing order.
  std::vector<std::string> names() const;

  /// The names joined as "a, b, c" -- the list error messages and help
  /// text embed.
  std::string known_names() const;
};

}  // namespace vwsdk
