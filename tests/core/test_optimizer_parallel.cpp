/// Concurrency determinism of the network-mapping engine: the pooled
/// optimizer (any pool size, cached or not) must produce byte-identical
/// MappingDecisions and cycle totals to a run on the calling thread
/// alone (a nullptr pool), and the MappingCache counters must be exact.

#include "core/network_optimizer.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/vwsdk_mapper.h"
#include "nn/model_zoo.h"

namespace vwsdk {
namespace {

const ArrayGeometry k512x512{512, 512};

void expect_identical(const NetworkMappingResult& a,
                      const NetworkMappingResult& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  EXPECT_EQ(a.network_name, b.network_name);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.total_cycles(), b.total_cycles());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].decision, b.layers[i].decision)
        << a.network_name << " layer " << i;
    EXPECT_EQ(a.layers[i].layer.name, b.layers[i].layer.name);
  }
}

TEST(OptimizerParallel, FourThreadsMatchSingleThreadAcrossModelZoo) {
  const VwSdkMapper mapper;
  ThreadPool one(1);
  ThreadPool four(4);
  for (const std::string& model : model_names()) {
    const Network net = model_by_name(model);
    const NetworkMappingResult sequential =
        optimize_network(mapper, net, k512x512, OptimizerOptions{});
    for (ThreadPool* pool : {&one, &four}) {
      const NetworkMappingResult threaded = optimize_network(
          mapper, net, k512x512, OptimizerOptions{.pool = pool});
      expect_identical(sequential, threaded);
    }
  }
}

TEST(OptimizerParallel, ExternalPoolAndManyThreadsStayDeterministic) {
  const VwSdkMapper mapper;
  ThreadPool pool(8);
  OptimizerOptions options;
  options.pool = &pool;
  const Network net = vgg13_paper();
  const NetworkMappingResult expected =
      optimize_network(mapper, net, k512x512, OptimizerOptions{});
  for (int run = 0; run < 5; ++run) {
    expect_identical(expected,
                     optimize_network(mapper, net, k512x512, options));
  }
}

TEST(OptimizerParallel, CacheReportsExactHitCountOnVgg16) {
  // VGG-16 lists 13 conv layers over 9 distinct shapes; a fresh cache
  // must therefore miss 9 times and hit 4, in every threading mode.
  const VwSdkMapper mapper;
  const Network net = vgg16();
  std::set<std::string> distinct;
  for (const ConvLayerDesc& layer : net.layers()) {
    distinct.insert(ConvShape::from_layer(layer).to_string());
  }
  ASSERT_EQ(distinct.size(), 9u);
  const Count total = static_cast<Count>(net.layers().size());

  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    const int threads = pool != nullptr ? pool->size() : 0;
    MappingCache cache;
    OptimizerOptions options;
    options.pool = pool;
    options.cache = &cache;
    const NetworkMappingResult result =
        optimize_network(mapper, net, k512x512, options);
    EXPECT_EQ(cache.stats().misses, 9) << threads << " worker(s)";
    EXPECT_EQ(cache.stats().hits, total - 9) << threads << " worker(s)";
    EXPECT_EQ(cache.size(), 9) << threads << " worker(s)";
    expect_identical(result, optimize_network(mapper, net, k512x512,
                                              OptimizerOptions{}));
  }
}

TEST(OptimizerParallel, SharedCacheSpansComparisonsAndGeometries) {
  ThreadPool pool(4);
  MappingCache cache;
  OptimizerOptions options;
  options.pool = &pool;
  options.cache = &cache;
  const NetworkComparison first = compare_mappers(
      {"im2col", "sdk", "vw-sdk"}, resnet18_paper(), k512x512, options);
  const MappingCacheStats after_first = cache.stats();
  EXPECT_EQ(after_first.misses, 15);  // 5 layers x 3 mappers, no repeats
  // Same request again: everything hits.
  const NetworkComparison second = compare_mappers(
      {"im2col", "sdk", "vw-sdk"}, resnet18_paper(), k512x512, options);
  EXPECT_EQ(cache.stats().misses, after_first.misses);
  EXPECT_EQ(cache.stats().hits, after_first.hits + 15);
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    expect_identical(first.results[i], second.results[i]);
  }
  // A different geometry is a different key: no false sharing.
  (void)compare_mappers({"vw-sdk"}, resnet18_paper(), {256, 256}, options);
  EXPECT_EQ(cache.stats().misses, after_first.misses + 5);
}

TEST(OptimizerParallel, Vgg16PaperTotalSurvivesEveryMode) {
  // Totals pinned by the sequential engine must not drift in any mode.
  const VwSdkMapper mapper;
  const Network net = vgg16();
  const Cycles expected =
      optimize_network(mapper, net, k512x512, OptimizerOptions{})
          .total_cycles();
  ThreadPool pool(4);
  MappingCache cache;
  OptimizerOptions cached;
  cached.pool = &pool;
  cached.cache = &cache;
  EXPECT_EQ(optimize_network(mapper, net, k512x512, cached).total_cycles(),
            expected);
  EXPECT_EQ(optimize_network(mapper, net, k512x512).total_cycles(),
            expected);  // default options (calling thread, no cache)
}

}  // namespace
}  // namespace vwsdk
