#pragma once

/// @file mapper_registry.h
/// The single source of truth for mapper names: a registry of every
/// mapping algorithm with its aliases, one-line description, and
/// capability flags.
///
/// Each built-in mapper registers *itself*: its name, aliases,
/// description, and capabilities live in its own .cpp next to the
/// algorithm (see e.g. im2col_mapper.cpp), not in a central list.  The
/// registry bootstrap in mapper_registry.cpp references one registration
/// symbol per mapper -- a linker anchor, required because the library is
/// static and a translation unit nothing references would never be
/// linked, silently dropping its registration.
///
/// Everything that used to hand-maintain a name list derives it from
/// here instead: make_mapper (now a shim over `create`), the CLI's
/// --mapper/--mappers validation and help text, `vwsdk mappers`, and the
/// error messages -- so adding a mapper is one registration call, and
/// docs/CLI.md stays honest through the `cli.help_matches_doc` ctest.
///
/// Out-of-library mappers (tests, plugins, experiments) self-register
/// with a static MapperRegistrar in their own translation unit.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "core/mapping_decision.h"

namespace vwsdk {

/// What a mapper can do; drives `vwsdk mappers` and lets tools reason
/// about the algorithms without instantiating them.
struct MapperCapabilities {
  /// The *search* optimizes MappingContext::objective (im2col/SMD/SDK
  /// compute a fixed mapping and merely report its score).
  bool objective_aware = false;

  /// Guarantees the global optimum over all admissible windows.
  bool exhaustive = false;

  /// Handles grouped sub-convolutions (IC/G -> OC/G shapes); every
  /// built-in does, the flag exists for restricted externals.
  bool grouped = true;
};

/// One registered mapping algorithm.
struct MapperInfo {
  std::string name;                  ///< canonical name ("vw-sdk")
  std::vector<std::string> aliases;  ///< extra lookup keys ("vwsdk")
  std::string description;           ///< one line, for --help and docs
  MapperCapabilities capabilities{};

  /// Presentation rank: names() sorts by (sort_key, name), so listings
  /// and error messages are deterministic regardless of registration
  /// order.  Built-ins use the paper's order (baselines first, the
  /// proposed algorithm, then extensions); externals default after.
  int sort_key = 1000;

  /// Constructs a fresh instance of the mapper.
  std::function<std::unique_ptr<Mapper>()> factory;
};

/// Thread-safe name -> mapper registry.
class MapperRegistry {
 public:
  /// The process-wide registry, with every built-in mapper registered.
  static MapperRegistry& instance();

  /// An empty registry (for tests composing their own).
  MapperRegistry() = default;
  MapperRegistry(const MapperRegistry&) = delete;
  MapperRegistry& operator=(const MapperRegistry&) = delete;

  /// Register a mapper.  Throws InvalidArgument on a missing name or
  /// factory, or when the name or an alias (case-insensitive) is taken.
  void add(MapperInfo info) VWSDK_EXCLUDES(mutex_);

  /// True when `name` resolves to a registered mapper (canonical name
  /// or alias, case-insensitive, surrounding whitespace ignored).
  bool contains(const std::string& name) const VWSDK_EXCLUDES(mutex_);

  /// Metadata of the mapper `name` resolves to; throws NotFound listing
  /// the known names.  The reference stays valid for the registry's
  /// lifetime (registrations never move or remove entries' storage).
  const MapperInfo& info(const std::string& name) const
      VWSDK_EXCLUDES(mutex_);

  /// A fresh instance of the mapper `name` resolves to; throws NotFound
  /// listing the known names.
  std::unique_ptr<Mapper> create(const std::string& name) const
      VWSDK_EXCLUDES(mutex_);

  /// Canonical names, sorted by (sort_key, name).
  std::vector<std::string> names() const VWSDK_EXCLUDES(mutex_);

  /// The names joined as "a, b, c" -- the list error messages and help
  /// text embed.
  std::string known_names() const;

  /// Number of registered mappers.
  Count size() const VWSDK_EXCLUDES(mutex_);

 private:
  std::vector<std::string> names_locked() const VWSDK_REQUIRES(mutex_);

  mutable Mutex mutex_;
  /// unique_ptr so info() references survive vector growth.
  std::vector<std::unique_ptr<MapperInfo>> infos_ VWSDK_GUARDED_BY(mutex_);
  std::unordered_map<std::string, const MapperInfo*> lookup_
      VWSDK_GUARDED_BY(mutex_);
};

/// Registers `info` into MapperRegistry::instance() at construction.
/// Define one as a namespace-scope static in a mapper's translation
/// unit to self-register before main() -- reliable for code linked into
/// the final binary (tests, apps, plugins).  Built-ins inside the static
/// library register through the bootstrap anchors instead (see file
/// comment).
class MapperRegistrar {
 public:
  explicit MapperRegistrar(MapperInfo info);
};

}  // namespace vwsdk
