#pragma once

/// @file verifier.h
/// End-to-end verification of a mapping: execute the plan on the
/// crossbar simulator and compare with a reference convolution computed
/// by the execution backend ExecutionOptions::ref_backend selects
/// (tensor/exec_backend.h; default "gemm", with "scalar" as the oracle).

#include <cstdint>
#include <string>
#include <vector>

#include "core/mapping_decision.h"
#include "mapping/mapping_plan.h"
#include "nn/network.h"
#include "sim/executor.h"
#include "tensor/exec_backend.h"

namespace vwsdk {

class Mapper;

/// Outcome of one verification run.
struct VerificationReport {
  bool exact_match = false;    ///< OFM identical to reference (bitwise)
  double max_abs_error = 0.0;  ///< worst element error vs reference
  Cycles executed_cycles = 0;  ///< cycles the simulator ran
  Cycles analytic_cycles = 0;  ///< cycles Eq. (8)/(1) predicts
  bool cycles_match = false;   ///< the two agree
  Count programmed_cells = 0;
  std::string summary;         ///< one-line human-readable result
};

/// The reference OFM for `plan` on (ifm, weights), computed by the
/// backend `options.ref_backend` resolves to with the plan's
/// stride/padding, fanned out over `options.pool` (nullptr: the calling
/// thread).
Tensord reference_convolution(const MappingPlan& plan, const Tensord& ifm,
                              const Tensord& weights,
                              const ExecutionOptions& options = {});

/// Build the report comparing an already-run execution against an
/// already-computed reference OFM.  Callers that run the two halves
/// themselves (perfbench's replay times them apart) use this to verify
/// without running the plan twice.
VerificationReport verify_execution(const MappingPlan& plan,
                                    const ExecutionResult& executed,
                                    const Tensord& reference);

/// Execute `plan` on (ifm, weights) and compare with the reference
/// backend.  With ideal ADC and no noise and integer-valued tensors the
/// match is exact; with quantization/noise only max_abs_error is
/// meaningful.
VerificationReport verify_mapping(const MappingPlan& plan, const Tensord& ifm,
                                  const Tensord& weights,
                                  const ExecutionOptions& options = {});

/// Convenience: deterministic integer tensors (seeded), then
/// verify_mapping.  `magnitude` bounds the integer values.
VerificationReport verify_mapping_random(const MappingPlan& plan,
                                         std::uint64_t seed,
                                         int magnitude = 4,
                                         const ExecutionOptions& options = {});

/// One layer's slice of a network-level verification.
struct LayerVerification {
  ConvLayerDesc layer{};        ///< the layer as specified
  MappingDecision decision{};   ///< the mapping that was executed
  VerificationReport report{};  ///< simulator-vs-reference outcome
};

/// A whole network verified layer by layer on the crossbar simulator
/// (the computation behind `vwsdk verify` and the serve `verify` op).
struct NetworkVerifyResult {
  std::string network_name;
  std::string algorithm;       ///< mapper the layers were mapped with
  std::string backend;         ///< resolved reference-backend name
  ArrayGeometry geometry{};
  std::uint64_t seed = 0;      ///< base seed of the integer test tensors
  std::vector<LayerVerification> layers;

  /// True when every layer matched the reference exactly, cycle counts
  /// included.
  bool all_verified() const;
};

/// Map each layer of `network` with `mapper` on `geometry`, build its
/// plan, execute it on the crossbar simulator with deterministic integer
/// tensors (layer i uses seed + i), and compare against the reference
/// backend `options.ref_backend` resolves to.  Grouped layers verify one
/// group's sub-convolution (all groups are identical).  A mismatch is
/// reported per layer, never thrown.
NetworkVerifyResult verify_network(const Network& network,
                                   const Mapper& mapper,
                                   const ArrayGeometry& geometry,
                                   std::uint64_t seed = 42,
                                   const ExecutionOptions& options = {});

}  // namespace vwsdk
