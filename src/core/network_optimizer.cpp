#include "core/network_optimizer.h"

#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace vwsdk {

Cycles LayerMapping::cycles() const {
  return checked_mul(static_cast<Count>(layer.groups), decision.cost.total);
}

double LayerMapping::score() const {
  return static_cast<double>(layer.groups) * decision.score;
}

Cycles NetworkMappingResult::total_cycles() const {
  Cycles total = 0;
  for (const LayerMapping& lm : layers) {
    total = checked_add(total, lm.cycles());
  }
  return total;
}

double NetworkMappingResult::total_score() const {
  double total = 0.0;
  for (const LayerMapping& lm : layers) {
    total += lm.score();
  }
  return total;
}

Cycles NetworkMappingResult::layer_cycles(Count index) const {
  VWSDK_REQUIRE(index >= 0 && index < static_cast<Count>(layers.size()),
                cat("layer index ", index, " out of range"));
  return layers[static_cast<std::size_t>(index)].cycles();
}

namespace {

/// The shape a layer's mapper actually searches: the full convolution for
/// dense layers, one group's sub-convolution (IC/G -> OC/G) for grouped
/// layers -- groups are identical and mapped independently, so the layer
/// total is G x the per-group cycles (applied in LayerMapping::cycles).
ConvShape mapping_shape(const ConvLayerDesc& layer) {
  ConvShape shape = ConvShape::from_layer(layer);
  shape.in_channels = layer.group_in_channels();
  shape.out_channels = layer.group_out_channels();
  return shape;
}

/// One layer's search: through the cache when one is given.
MappingDecision map_layer(const Mapper& mapper, const ConvShape& shape,
                          const ArrayGeometry& geometry,
                          const OptimizerOptions& options) {
  MappingContext context{shape, geometry};
  context.objective = options.objective;
  if (options.cache != nullptr) {
    return options.cache->map(mapper, context);
  }
  return mapper.map(context);
}

}  // namespace

NetworkMappingResult optimize_network(const Mapper& mapper,
                                      const Network& network,
                                      const ArrayGeometry& geometry) {
  return optimize_network(mapper, network, geometry, OptimizerOptions{});
}

NetworkMappingResult optimize_network(const Mapper& mapper,
                                      const Network& network,
                                      const ArrayGeometry& geometry,
                                      const OptimizerOptions& options) {
  VWSDK_REQUIRE(!network.empty(), "cannot optimize an empty network");
  geometry.validate();

  const std::vector<ConvLayerDesc>& layers = network.layers();
  // Fan layers out across the pool (nullptr: the calling thread, in
  // order); slot `i` of `decisions` belongs to layer `i`, so the result
  // order is the network order regardless of completion order.
  std::vector<MappingDecision> decisions(layers.size());
  parallel_chunks(options.pool, static_cast<Count>(layers.size()),
                  [&](Count begin, Count end) {
                    for (Count i = begin; i < end; ++i) {
                      const auto index = static_cast<std::size_t>(i);
                      decisions[index] =
                          map_layer(mapper, mapping_shape(layers[index]),
                                    geometry, options);
                    }
                  });

  NetworkMappingResult result;
  result.network_name = network.name();
  result.algorithm = mapper.name();
  result.objective = options.objective != nullptr
                         ? options.objective->name()
                         : cycles_objective().name();
  result.geometry = geometry;
  result.layers.reserve(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    result.layers.push_back(
        LayerMapping{layers[i], std::move(decisions[i])});
  }
  return result;
}

double NetworkComparison::speedup(Count baseline, Count target) const {
  VWSDK_REQUIRE(baseline >= 0 &&
                    baseline < static_cast<Count>(results.size()) &&
                    target >= 0 && target < static_cast<Count>(results.size()),
                "comparison index out of range");
  const Cycles base =
      results[static_cast<std::size_t>(baseline)].total_cycles();
  const Cycles tgt = results[static_cast<std::size_t>(target)].total_cycles();
  VWSDK_REQUIRE(tgt > 0, "target cycles must be positive");
  return static_cast<double>(base) / static_cast<double>(tgt);
}

double NetworkComparison::layer_speedup(Count baseline, Count target,
                                        Count layer_index) const {
  VWSDK_REQUIRE(baseline >= 0 &&
                    baseline < static_cast<Count>(results.size()) &&
                    target >= 0 && target < static_cast<Count>(results.size()),
                "comparison index out of range");
  const Cycles base = results[static_cast<std::size_t>(baseline)].layer_cycles(
      layer_index);
  const Cycles tgt =
      results[static_cast<std::size_t>(target)].layer_cycles(layer_index);
  VWSDK_REQUIRE(tgt > 0, "target cycles must be positive");
  return static_cast<double>(base) / static_cast<double>(tgt);
}

NetworkComparison compare_mappers(const std::vector<std::string>& mapper_names,
                                  const Network& network,
                                  const ArrayGeometry& geometry) {
  return compare_mappers(mapper_names, network, geometry,
                         OptimizerOptions{});
}

NetworkComparison compare_mappers(const std::vector<std::string>& mapper_names,
                                  const Network& network,
                                  const ArrayGeometry& geometry,
                                  const OptimizerOptions& options) {
  VWSDK_REQUIRE(!mapper_names.empty(), "need at least one mapper");

  NetworkComparison comparison;
  comparison.results.reserve(mapper_names.size());
  for (const std::string& name : mapper_names) {
    const auto mapper = make_mapper(name);
    comparison.results.push_back(
        optimize_network(*mapper, network, geometry, options));
  }
  return comparison;
}

}  // namespace vwsdk
