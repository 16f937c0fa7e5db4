#include "core/mapping_cache.h"

#include <optional>
#include <utility>

namespace vwsdk {

namespace {

void hash_combine(std::size_t& seed, std::size_t value) {
  // Boost's golden-ratio mixer; good enough for a lookup table.
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

}  // namespace

std::size_t MappingCache::KeyHash::operator()(
    const MappingCacheKey& key) const {
  std::size_t seed = std::hash<std::string>{}(key.mapper);
  hash_combine(seed, std::hash<std::string>{}(key.objective));
  const ConvShape& s = key.shape;
  for (const Dim dim :
       {s.ifm_w, s.ifm_h, s.kernel_w, s.kernel_h, s.in_channels,
        s.out_channels, s.stride_w, s.stride_h, s.pad_w, s.pad_h,
        key.geometry.rows, key.geometry.cols}) {
    hash_combine(seed, std::hash<Dim>{}(dim));
  }
  return seed;
}

MappingDecision MappingCache::get_or_compute(
    const MappingCacheKey& key,
    const std::function<MappingDecision()>& compute) {
  std::shared_future<MappingDecision> future;
  // Lazily constructed so the hit path never allocates promise state.
  std::optional<std::promise<MappingDecision>> promise;
  {
    const MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      future = it->second;
    } else {
      ++stats_.misses;
      promise.emplace();
      future = promise->get_future().share();
      entries_.emplace(key, future);
    }
  }
  if (promise.has_value()) {
    try {
      promise->set_value(compute());
    } catch (...) {
      // Wake waiters with the error, then evict so the next request
      // retries instead of replaying a stale failure forever.  Entries
      // are never dropped otherwise, so the key is still ours.
      promise->set_exception(std::current_exception());
      const MutexLock lock(mutex_);
      entries_.erase(key);
    }
  }
  return future.get();
}

MappingDecision MappingCache::map(const Mapper& mapper,
                                  const ConvShape& shape,
                                  const ArrayGeometry& geometry) {
  return map(mapper, MappingContext{shape, geometry});
}

MappingDecision MappingCache::map(const Mapper& mapper,
                                  const MappingContext& context) {
  // cache_key(), not name(): a custom-parameter EnergyObjective must not
  // share entries with the default-parameter singleton of the same name.
  return get_or_compute(
      MappingCacheKey{mapper.name(), context.shape, context.geometry,
                      context.scoring().cache_key()},
      [&]() { return mapper.map(context); });
}

MappingCacheStats MappingCache::stats() const {
  const MutexLock lock(mutex_);
  MappingCacheStats stats = stats_;
  stats.entries = static_cast<Count>(entries_.size());
  return stats;
}

Count MappingCache::size() const {
  const MutexLock lock(mutex_);
  return static_cast<Count>(entries_.size());
}

}  // namespace vwsdk
