#pragma once

/// @file mapping_cache.h
/// Thread-safe memoization of mapping searches, keyed by
/// (mapper id, ConvShape, ArrayGeometry, objective).
///
/// Real networks repeat conv shapes heavily (VGG-16's 13 conv layers
/// collapse to 9 distinct shapes), so the network optimizer searches each
/// distinct (shape, array, algorithm) triple once and replays the
/// decision everywhere else.
///
/// Concurrency model: *single-flight*.  The first thread to request a key
/// computes it; concurrent requesters for the same key block on a shared
/// future instead of duplicating the search.  This keeps the hit/miss
/// statistics deterministic -- misses always equal the number of distinct
/// keys, regardless of how layers race -- which the determinism tests
/// pin down.  A compute that throws propagates to every waiter and is
/// evicted, so a later request retries rather than replaying the error.

#include <functional>
#include <future>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "core/mapping_decision.h"

namespace vwsdk {

/// Cache key: one mapping search.  The objective is part of the key --
/// the same (mapper, shape, array) triple can legitimately map to
/// different windows under cycles and under energy, and mixing them
/// would silently serve one objective's optimum to the other.
struct MappingCacheKey {
  std::string mapper;       ///< Mapper::name()
  ConvShape shape{};        ///< the layer
  ArrayGeometry geometry{}; ///< the array
  /// Objective::cache_key() -- the name plus, for parameterized
  /// objectives, their parameters, so e.g. two EnergyObjectives with
  /// different EnergyParams never share an entry.
  std::string objective = "cycles";

  bool operator==(const MappingCacheKey&) const = default;
};

/// One consistent snapshot of a cache's counters, taken under a single
/// lock acquisition -- `hits`/`misses` are lifetime-monotonic,
/// `entries` is instantaneous, and the three are mutually consistent
/// (reading them through separate calls could interleave a concurrent
/// insert between the reads).
struct MappingCacheStats {
  Count hits = 0;    ///< requests served from a present or in-flight entry
  Count misses = 0;  ///< requests that triggered a compute
  Count entries = 0; ///< cached (completed or in-flight) entries right now
};

/// Thread-safe single-flight memoization of Mapper::map results.
class MappingCache {
 public:
  MappingCache() = default;
  MappingCache(const MappingCache&) = delete;
  MappingCache& operator=(const MappingCache&) = delete;

  /// The decision for `key`, computing it with `compute` on a miss.
  /// Concurrent callers with the same key share one compute.  The
  /// compute itself runs *outside* the cache mutex (only the entry
  /// bookkeeping is locked), so a slow search never blocks lookups of
  /// other keys.
  MappingDecision get_or_compute(
      const MappingCacheKey& key,
      const std::function<MappingDecision()>& compute)
      VWSDK_EXCLUDES(mutex_);

  /// Convenience: memoized `mapper.map(shape, geometry)` under the
  /// default context (cycles objective).
  MappingDecision map(const Mapper& mapper, const ConvShape& shape,
                      const ArrayGeometry& geometry);

  /// Convenience: memoized `mapper.map(context)`, keyed by the
  /// context's shape, geometry, and objective.
  MappingDecision map(const Mapper& mapper, const MappingContext& context);

  /// One consistent counter snapshot; hits + misses equals requests
  /// served.
  MappingCacheStats stats() const VWSDK_EXCLUDES(mutex_);

  /// Number of cached (completed or in-flight) entries.
  Count size() const VWSDK_EXCLUDES(mutex_);

 private:
  struct KeyHash {
    std::size_t operator()(const MappingCacheKey& key) const;
  };

  mutable Mutex mutex_;
  std::unordered_map<MappingCacheKey, std::shared_future<MappingDecision>,
                     KeyHash>
      entries_ VWSDK_GUARDED_BY(mutex_);
  MappingCacheStats stats_ VWSDK_GUARDED_BY(mutex_);
};

}  // namespace vwsdk
