#pragma once

/// @file executor.h
/// Functional execution of a MappingPlan on crossbar arrays.
///
/// The executor is tile-major, and each tile runs in four steps:
///  1. Program: the tile's weights are laid out by the column groups of
///     its layout (derive_layout, derived once for the whole plan and
///     shared with the validator).  A group is the columns of one SMD
///     duplicate and window position; each column's weights run over the
///     rows its group holds cells in, ascending.  With noise off, a tile
///     whose groups all have their im2col range
///     (ColumnGroup::im2col_first) is read in place: each group's
///     weights are a block of the weight tensor, passed to the kernel
///     with the tensor's row stride, and nothing is written.  Otherwise its cells are written
///     once, in for_each_cell order (the order device noise is drawn
///     in), into one block, each column's weights contiguous.
///  2. Gather: for a block of up to 96 parallel-window bases, the
///     inputs those rows are driven with, zero for padding and idle SMD
///     duplicates, from per-row input offsets and per-base window
///     origins.
///  3. Kernel: one tensor/gemm_kernel.h call per group and base block
///     computes every read-out, [group columns x rows] x [rows x bases]:
///     each column's sum over its rows in ascending order, from +0.0,
///     one computing cycle per base.
///  4. ADC: each read-out is converted and added into a per-AC-band
///     accumulator, in ascending AR order.
/// Outputs are committed at the end.  A tile with at least
/// kParallelCutoffMacs multiply-adds fans out over ExecutionOptions::pool:
/// step 1 by ranges of its columns (on the calling thread when noise is
/// on, so noise is drawn in for_each_cell order), steps 2-4 by work
/// items of one group, one block of bases and one slice of up to 48 of
/// the group's columns.  Each writes only its own cells and (column,
/// base) sums, so the result is bit-identical at any pool size.  Scratch
/// is one tile block (none for a tile read in place), per work chunk one
/// base block of inputs and
/// read-outs, and O(output) accumulators; for finite inputs the OFM
/// bits equal a dense crossbar's.
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

  /// Pool the crossbar execution and the reference convolution fan out
  /// over, borrowed; nullptr runs both on the calling thread.  The result
  /// is bit-identical either way.
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
