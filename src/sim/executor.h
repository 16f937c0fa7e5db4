#pragma once

/// @file executor.h
/// Functional execution of a MappingPlan on crossbar arrays.
///
/// The executor is tile-major: it programs each (AR, AC) tile once, in
/// plan order (noise drawn in for_each_cell order), into a block of its
/// bound rows x columns, then runs every parallel-window base through it
/// as one computing cycle each: drive the rows, sum each column over its
/// rows in ascending order, convert each read-out with the ADC, and add
/// it into a per-AC-band accumulator in ascending AR order.  Outputs are
/// committed at the end.  Scratch is one tile block plus O(output)
/// accumulators; for finite inputs the OFM bits equal a dense crossbar's.
///
/// This is the strongest form of evidence a mapping can get in software:
/// if the plan (placement, schedule, tiling) is wrong in any way, the
/// produced OFM will not match the reference convolution.

#include <string>

#include "mapping/mapping_plan.h"
#include "pim/adc.h"
#include "pim/energy_model.h"
#include "pim/noise.h"
#include "tensor/tensor.h"

namespace vwsdk {

class ThreadPool;

/// Knobs of a functional execution.
struct ExecutionOptions {
  ConverterModel adc{};             ///< ideal by default
  NoiseConfig noise{};              ///< no device variation by default
  std::uint64_t noise_seed = 1;     ///< seed for the noise model
  bool validate_plan = true;        ///< run plan_validate first

  /// Reference backend verification compares the execution against: a
  /// backend name or alias; empty resolves through the
  /// `VWSDK_REF_BACKEND` environment variable, then "gemm" (see
  /// tensor/exec_backend.h).  The "scalar" oracle is always available.
  std::string ref_backend;

  /// Pool the reference convolution fans out over, borrowed; nullptr
  /// runs it on the calling thread.  The result is the same either way.
  ThreadPool* pool = nullptr;
};

/// What an execution produced and what it cost.
struct ExecutionResult {
  Tensord ofm;                ///< (1, OC, OH, OW)
  Cycles cycles = 0;          ///< computing cycles executed
  EnergyReport activity{};    ///< rows driven / cols read / cell MACs
  Count arrays_used = 0;      ///< tiles (distinct array programmings)
  Count programmed_cells = 0; ///< total cells programmed across tiles
  double min_tile_utilization = 0.0;  ///< min over tiles of programmed frac
  double mean_tile_utilization = 0.0; ///< mean over tiles
};

/// Execute `plan` on the given input and weights.
/// @param ifm     (1, IC, I_h, I_w), matching plan.shape.
/// @param weights (OC, IC, K_h, K_w), matching plan.shape.
ExecutionResult execute_plan(const MappingPlan& plan, const Tensord& ifm,
                             const Tensord& weights,
                             const ExecutionOptions& options = {});

}  // namespace vwsdk
