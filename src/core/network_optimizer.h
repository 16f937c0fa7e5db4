#pragma once

/// @file network_optimizer.h
/// Runs a mapping algorithm over every layer of a network and aggregates
/// the results; also compares several algorithms on the same network (the
/// computation behind Table I and Fig. 8).
///
/// The optimizer is a concurrent, memoized search engine:
///  * layer searches fan out across the caller's ThreadPool; each
///    layer's own window scan is sequential;
///  * an optional MappingCache deduplicates repeated (shape, array,
///    algorithm) searches -- real networks repeat shapes heavily;
///  * results are bit-identical to the sequential scan at any pool
///    size: each layer's decision lands in its layer's slot, never in
///    completion order.
///
/// The optimizer owns no threads: `OptimizerOptions::pool` is borrowed,
/// and a nullptr pool (the default) maps the layers on the calling
/// thread, in network order.

#include <string>
#include <vector>

#include "core/mapping_cache.h"
#include "core/mapping_decision.h"
#include "nn/network.h"

namespace vwsdk {

class ThreadPool;

/// One layer's mapping inside a network-level result.
///
/// For a grouped layer (layer.groups > 1) `decision` describes ONE group's
/// independent sub-convolution (IC/G -> OC/G); the groups are identical
/// and cannot share crossbar columns, so the layer costs G times the
/// per-group cycles (see core/grouped_conv.h).  `cycles()` is the
/// layer-level total either way.
struct LayerMapping {
  ConvLayerDesc layer{};
  MappingDecision decision{};

  /// Layer-level computing cycles: groups x per-group decision cycles.
  Cycles cycles() const;

  /// Layer-level objective score: groups x per-group decision score
  /// (the groups are identical, so cycles and energy both scale
  /// linearly; for EDP this is the sum of the groups' products, a
  /// consistent search metric even though it is not the layer's literal
  /// EDP).
  double score() const;
};

/// A mapping algorithm's result over a whole network.
struct NetworkMappingResult {
  std::string network_name;
  std::string algorithm;
  std::string objective;  ///< scoring objective the layers were mapped under
  ArrayGeometry geometry{};
  std::vector<LayerMapping> layers;

  /// Sum of per-layer computing cycles (the paper's "Total cycles").
  Cycles total_cycles() const;

  /// Sum of per-layer objective scores (equals total_cycles() under the
  /// default cycles objective).
  double total_score() const;

  /// Cycles of layer `index`.
  Cycles layer_cycles(Count index) const;
};

/// How optimize_network schedules its work.
struct OptimizerOptions {
  /// Pool the layer searches fan out over; nullptr maps them on the
  /// calling thread.  The caller keeps ownership.
  ThreadPool* pool = nullptr;

  /// Memoize layer searches here; distinct (mapper, shape, geometry)
  /// triples are searched once.  The caller keeps ownership, so one
  /// cache can span many optimize_network / compare_mappers calls.
  MappingCache* cache = nullptr;

  /// Search objective every layer's candidates are scored under;
  /// nullptr means cycles_objective() (the paper's search, bit-exact).
  /// The caller keeps ownership.
  const Objective* objective = nullptr;
};

/// Map every layer of `network` with `mapper` on `geometry` using the
/// default options (calling thread, no cache).
NetworkMappingResult optimize_network(const Mapper& mapper,
                                      const Network& network,
                                      const ArrayGeometry& geometry);

/// As above with explicit scheduling/memoization options.
NetworkMappingResult optimize_network(const Mapper& mapper,
                                      const Network& network,
                                      const ArrayGeometry& geometry,
                                      const OptimizerOptions& options);

/// Results of several mappers on the same network/array, with speedups.
struct NetworkComparison {
  std::vector<NetworkMappingResult> results;  ///< one per mapper, in order

  /// Speedup of algorithm `target` relative to `baseline` (total cycles
  /// ratio); indices into `results`.
  double speedup(Count baseline, Count target) const;

  /// Per-layer speedup of `target` vs `baseline` for layer `layer_index`.
  double layer_speedup(Count baseline, Count target,
                       Count layer_index) const;
};

/// Run each mapper in `mapper_names` (resolved through the
/// MapperRegistry, see core/mapper_registry.h) over the network.
NetworkComparison compare_mappers(const std::vector<std::string>& mapper_names,
                                  const Network& network,
                                  const ArrayGeometry& geometry);

/// As above with explicit options; any pool and cache are shared across
/// all mappers.
NetworkComparison compare_mappers(const std::vector<std::string>& mapper_names,
                                  const Network& network,
                                  const ArrayGeometry& geometry,
                                  const OptimizerOptions& options);

}  // namespace vwsdk
