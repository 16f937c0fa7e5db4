#pragma once

/// @file service.h
/// The ServiceApi facade: one resident mapping service -- a shared
/// ThreadPool plus a single-flight MappingCache -- answering the
/// request shapes every user surface speaks: `map`, `compare`, `chip`,
/// `verify`, `stats`.  (The `mappers` listing needs no service: it is
/// the constant table of core/mapper_registry.h.)
///
/// Both front doors are thin shells over this class: the one-shot
/// `vwsdk` CLI subcommands build a query from flags and serialize the
/// result once, and the long-running `vwsdk serve` daemon parses the
/// same queries from NDJSON requests (serve/protocol.h) -- so a serve
/// response payload is byte-identical to the equivalent one-shot
/// `--format json` invocation, and repeated queries hit the cache
/// instead of re-searching.
///
/// Concurrency: every method is safe to call from multiple threads at
/// once.  The pool is the only one the library owns.  `vwsdk serve`
/// runs each request on it as an admitted task (ThreadPool::try_submit),
/// and the layer searches and `verify`'s crossbar execution and
/// reference convolution fan out over the same workers through parallel_chunks, where the calling
/// thread works through its own chunks, so concurrent requests share
/// the workers and a task running on the pool may itself call the
/// service (common/thread_pool.h).

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/mapping_cache.h"
#include "core/network_optimizer.h"
#include "sim/chip_allocator.h"
#include "sim/traffic.h"
#include "sim/verifier.h"

namespace vwsdk {

/// `map`: one network, one algorithm, every layer.
struct MapQuery {
  std::string net;                   ///< zoo name or spec file (required)
  std::string mapper = "vw-sdk";     ///< mapping algorithm name or alias
  std::string array;                 ///< "RxC"; "" = spec hint, then 512x512
  std::string objective = "cycles";  ///< search objective name
};

/// `compare`: several algorithms on one network side by side.
struct CompareQuery {
  std::string net;  ///< zoo name or spec file (required)
  /// Algorithms in comparison order; the first is the speedup baseline.
  std::vector<std::string> mappers{"im2col", "smd", "sdk", "vw-sdk"};
  std::string array;                 ///< "RxC"; "" = spec hint, then 512x512
  std::string objective = "cycles";  ///< search objective name
};

/// `chip`: pipeline one network across one or more PIM chips.
struct ChipQuery {
  std::string net;                   ///< zoo name or spec file (required)
  std::string mapper = "vw-sdk";     ///< mapping algorithm name or alias
  std::string array;                 ///< "RxC"; "" = spec hint, then 512x512
  std::string objective = "cycles";  ///< search + stage-scoring objective
  Dim arrays_per_chip = 0;           ///< crossbar arrays per chip (>= 1)
  Dim max_chips = 0;                 ///< chip budget; 0 = as demand needs
  Count batch = 1;                   ///< inferences streamed through
};

/// `traffic`: stream request arrivals at one or more co-resident
/// networks pipelined across chips, or (slo_p99 > 0) search the
/// smallest chip count meeting a p99 SLO at the given rate.
struct TrafficQuery {
  std::string net;                   ///< comma-separated zoo names or spec files
  std::string mapper = "vw-sdk";     ///< mapping algorithm name or alias
  std::string array;                 ///< "RxC"; "" = spec hint, then 512x512
  std::string objective = "cycles";  ///< search + stage-scoring objective
  Dim arrays_per_chip = 0;           ///< crossbar arrays per chip (>= 1)
  Dim max_chips = 0;                 ///< chip budget per network; 0 = as needed
  Count replicas = 1;                ///< pipeline replicas per network
  double rate = 0.0;                 ///< Poisson arrivals per 1e6 cycles
  Cycles duration = 10'000'000;      ///< Poisson-mode horizon in cycles
  std::uint64_t seed = 42;           ///< arrival-stream root seed
  Cycles batch_window = 0;           ///< max cycles a batch is held open
  Count max_batch = 1;               ///< largest batch served at once
  Count max_queue = 0;               ///< per-replica queue bound; 0 = unbounded
  std::string trace;                 ///< arrival-trace file; "" = Poisson
  Cycles slo_p99 = 0;                ///< > 0 = capacity-planning mode
};

/// `verify`: functionally verify mapped layers on the simulator.
struct VerifyQuery {
  std::string net;                ///< zoo name or spec file (required)
  std::string mapper = "vw-sdk";  ///< mapping algorithm name or alias
  std::string array;              ///< "RxC"; "" = spec hint, then 512x512
  std::string ref_backend;        ///< "" = VWSDK_REF_BACKEND, then gemm
  std::uint64_t seed = 42;        ///< base seed of the test tensors
};

/// `chip`'s answer: the plan plus the mapping it was planned from (the
/// CLI's table view reports the mapping's resident array demand; the
/// serve op serializes only the plan).
struct ChipResult {
  NetworkMappingResult mapping;
  ChipPlan plan;
};

/// `traffic`'s answer: the per-network plans the simulation ran on,
/// the report, and -- in capacity-planning mode -- the SLO search
/// result (whose `report` field is the one to serialize).
struct TrafficResult {
  std::vector<ChipPlan> plans;
  TrafficReport report;
  bool capacity_mode = false;
  CapacityResult capacity;  ///< meaningful when capacity_mode
};

/// A snapshot of the service's shared state.
struct ServiceStats {
  Count cache_hits = 0;     ///< searches served from the mapping cache
  Count cache_misses = 0;   ///< searches actually computed
  Count cache_entries = 0;  ///< distinct cached searches
  int threads = 0;          ///< worker threads of the shared pool
};

/// The "cache H hit(s) / M miss(es), E distinct search(es)" fragment
/// shared by the sweep summary and the `--stats` stderr line.
std::string cache_stats_fragment(const ServiceStats& stats);

/// The one-line `--stats` report of the one-shot subcommands.
std::string stats_line(const ServiceStats& stats);

/// The resident mapping service: validates queries, resolves names
/// through the registries, and runs every search over one shared
/// ThreadPool and single-flight MappingCache.
class ServiceApi {
 public:
  /// Start the service; `threads <= 0` resolves via VWSDK_THREADS, then
  /// the hardware concurrency (ThreadPool::resolve_thread_count).  The
  /// count bounds the searches, the reference convolution and the serve
  /// daemon's requests alike; `max_inflight` and `max_queue` bound the
  /// pool's admitted tasks, which only the daemon submits.
  explicit ServiceApi(int threads = 0, int max_inflight = 1,
                      int max_queue = 0);

  ServiceApi(const ServiceApi&) = delete;
  ServiceApi& operator=(const ServiceApi&) = delete;

  /// Map every layer of the query's network with one algorithm.
  /// Throws InvalidArgument/NotFound on an invalid query.
  NetworkMappingResult map(const MapQuery& query);

  /// Run the query's algorithms side by side on one network.  Mapper
  /// names are canonicalized through the MapperRegistry; a duplicate
  /// (alias included) is an InvalidArgument -- it would make speedup
  /// columns ambiguous.
  NetworkComparison compare(const CompareQuery& query);

  /// Map the network, then plan a pipelined chip allocation.  An
  /// infeasible plan (a layer bigger than a chip, or a max_chips budget
  /// below the demand) throws Error naming the reason -- the same
  /// contract as the CLI's exit-1 path.
  ChipResult chip(const ChipQuery& query);

  /// Map and chip-plan every network of the comma-separated query, then
  /// simulate its request traffic (Poisson or trace-driven), or -- when
  /// `slo_p99` is set -- search the smallest replica count meeting the
  /// SLO.  Infeasible plans throw Error like chip(); an unmeetable SLO
  /// throws Error (the exit-1 contract).
  TrafficResult traffic(const TrafficQuery& query);

  /// Functionally verify every mapped layer on the crossbar simulator
  /// against the query's reference backend.  Mismatches are reported in
  /// the result, never thrown.
  NetworkVerifyResult verify(const VerifyQuery& query);

  /// Counters of the shared cache and pool.
  ServiceStats stats() const;

  /// The shared pool (the daemon's admitted requests, and callers
  /// composing their own optimizer runs).
  ThreadPool& pool() { return pool_; }

  /// The shared single-flight cache.
  MappingCache& cache() { return cache_; }

 private:
  MappingCache cache_;
  /// Declared last, so it drains its admitted tasks and joins its
  /// workers before the cache they use is destroyed.
  ThreadPool pool_;
};

}  // namespace vwsdk
