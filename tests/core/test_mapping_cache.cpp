#include "core/mapping_cache.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/vwsdk_mapper.h"

namespace vwsdk {
namespace {

const ArrayGeometry k512x512{512, 512};

TEST(MappingCache, HitReturnsIdenticalDecision) {
  const VwSdkMapper mapper;
  MappingCache cache;
  const ConvShape shape = ConvShape::square(14, 3, 256, 256);
  const MappingDecision first = cache.map(mapper, shape, k512x512);
  const MappingDecision second = cache.map(mapper, shape, k512x512);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, mapper.map(shape, k512x512));
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.size(), 1);
}

TEST(MappingCache, DistinguishesMapperShapeAndGeometry) {
  const VwSdkMapper mapper;
  MappingCache cache;
  const ConvShape a = ConvShape::square(14, 3, 256, 256);
  const ConvShape b = ConvShape::square(28, 3, 256, 256);
  (void)cache.map(mapper, a, k512x512);
  (void)cache.map(mapper, b, k512x512);             // new shape
  (void)cache.map(mapper, a, {256, 256});           // new geometry
  (void)cache.get_or_compute(                       // new mapper id
      MappingCacheKey{"other", a, k512x512},
      [&]() { return mapper.map(a, k512x512); });
  EXPECT_EQ(cache.stats().misses, 4);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.size(), 4);
}

TEST(MappingCache, SingleFlightUnderConcurrency) {
  // 32 concurrent requests for the same key must compute exactly once:
  // hit/miss counters stay deterministic no matter how the tasks race.
  const VwSdkMapper mapper;
  MappingCache cache;
  const ConvShape shape = ConvShape::square(56, 3, 128, 256);
  std::atomic<int> computes{0};
  ThreadPool pool(8);
  std::vector<MappingDecision> decisions(32);
  parallel_chunks(&pool, 32, [&](Count begin, Count end) {
    for (Count i = begin; i < end; ++i) {
      decisions[static_cast<std::size_t>(i)] = cache.get_or_compute(
          MappingCacheKey{mapper.name(), shape, k512x512}, [&]() {
            ++computes;
            return mapper.map(shape, k512x512);
          });
    }
  });
  const MappingDecision expected = mapper.map(shape, k512x512);
  for (const MappingDecision& decision : decisions) {
    EXPECT_EQ(decision, expected);
  }
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 31);
}

TEST(MappingCache, ComputeFailureIsEvictedAndRetried) {
  const VwSdkMapper mapper;
  MappingCache cache;
  const ConvShape shape = ConvShape::square(14, 3, 16, 16);
  const MappingCacheKey key{mapper.name(), shape, k512x512};
  EXPECT_THROW(cache.get_or_compute(
                   key,
                   []() -> MappingDecision {
                     throw std::runtime_error("search exploded");
                   }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0);  // evicted, not poisoned
  const MappingDecision retried = cache.get_or_compute(
      key, [&]() { return mapper.map(shape, k512x512); });
  EXPECT_EQ(retried, mapper.map(shape, k512x512));
  EXPECT_EQ(cache.stats().misses, 2);
}

// Pinning test for the one-lock stats snapshot: `entries` is part of
// MappingCacheStats precisely so hits/misses/entries come from a single
// lock acquisition.  Reading size() separately (the old shape) could
// interleave a concurrent insert and report entries > misses, which is
// impossible in a consistent snapshot (every entry was created by a
// miss).
TEST(MappingCache, StatsSnapshotStaysInternallyConsistent) {
  const VwSdkMapper mapper;
  MappingCache cache;
  std::atomic<bool> done{false};
  std::thread inserter([&] {
    for (int i = 0; i < 24; ++i) {
      const ConvShape shape = ConvShape::square(8 + i, 3, 8, 8);
      (void)cache.map(mapper, shape, k512x512);
    }
    done.store(true);
  });
  while (!done.load()) {
    const MappingCacheStats snapshot = cache.stats();
    ASSERT_LE(snapshot.entries, snapshot.misses)
        << "torn snapshot: an entry exists that no recorded miss created";
  }
  inserter.join();
  const MappingCacheStats final_stats = cache.stats();
  EXPECT_EQ(final_stats.entries, 24);
  EXPECT_EQ(final_stats.misses, 24);
  EXPECT_EQ(final_stats.entries, cache.size());
}

/// Many threads racing many keys (ctest label `stress`): single-flight
/// must hold per key, with the counters landing exactly on
/// (distinct keys) misses no matter how the requests interleave.
TEST(MappingCacheStress, ManyKeysManyThreadsComputeOncePerKey) {
  constexpr int kKeys = 12;
  constexpr int kThreads = 8;
  const VwSdkMapper mapper;
  MappingCache cache;
  std::vector<ConvShape> shapes;
  shapes.reserve(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    shapes.push_back(ConvShape::square(6 + k, 3, 8, 8));
  }
  std::vector<std::atomic<int>> computes(kKeys);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shapes, &cache, &mapper, &computes] {
      for (int k = 0; k < kKeys; ++k) {
        // Each thread walks the keys from a different start so every
        // key sees first-requester races from several threads.
        const int key = (k + t) % kKeys;
        const ConvShape& shape = shapes[static_cast<std::size_t>(key)];
        const MappingDecision decision = cache.get_or_compute(
            MappingCacheKey{mapper.name(), shape, k512x512}, [&] {
              ++computes[static_cast<std::size_t>(key)];
              return mapper.map(shape, k512x512);
            });
        EXPECT_EQ(decision, mapper.map(shape, k512x512));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(computes[static_cast<std::size_t>(k)].load(), 1)
        << "key " << k << " computed more than once";
  }
  const MappingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits, kKeys * kThreads - kKeys);
  EXPECT_EQ(stats.entries, kKeys);
}

}  // namespace
}  // namespace vwsdk
