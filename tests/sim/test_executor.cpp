#include "sim/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "mapping/activity.h"
#include "mapping/cost_model.h"
#include "mapping/plan_builder.h"
#include "tensor/conv_ref.h"
#include "tensor/tensor_ops.h"
#include "support/support.h"

namespace vwsdk {
namespace {

const ArrayGeometry kSmall{64, 32};

MappingPlan sample_plan() {
  const ConvShape shape = ConvShape::square(8, 3, 9, 40);
  return build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
}

std::pair<Tensord, Tensord> sample_tensors(const ConvShape& shape,
                                           std::uint64_t seed) {
  Rng rng(seed);
  Tensord ifm =
      Tensord::feature_map(shape.in_channels, shape.ifm_h, shape.ifm_w);
  Tensord weights = Tensord::weights(shape.out_channels, shape.in_channels,
                                     shape.kernel_h, shape.kernel_w);
  fill_random_int(ifm, rng, 4);
  fill_random_int(weights, rng, 4);
  return {std::move(ifm), std::move(weights)};
}

TEST(Executor, CycleCountMatchesAnalyticModel) {
  const MappingPlan plan = sample_plan();
  const auto [ifm, weights] = sample_tensors(plan.shape, 1);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  EXPECT_EQ(result.cycles, plan.cost.total);
  EXPECT_EQ(result.activity.cycles, plan.cost.total);
}

TEST(Executor, ActivityMatchesAnalyticActivity) {
  const MappingPlan plan = sample_plan();
  const auto [ifm, weights] = sample_tensors(plan.shape, 2);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  const EnergyReport analytic =
      analytic_activity(plan.shape, plan.geometry, plan.cost);
  EXPECT_EQ(result.activity.cycles, analytic.cycles);
  EXPECT_EQ(result.activity.row_activations, analytic.row_activations);
  EXPECT_EQ(result.activity.col_reads, analytic.col_reads);
  EXPECT_EQ(result.activity.cell_macs, analytic.cell_macs);
}

TEST(Executor, AnalyticActivityMatchesForIm2colAndSmd) {
  for (const ConvShape& shape :
       {ConvShape::square(6, 3, 8, 10),    // im2col with AR split
        ConvShape::square(6, 3, 1, 2)}) {  // SMD with duplicates
    for (const MappingPlan& plan :
         {build_plan_for_cost(shape, kSmall, im2col_cost(shape, kSmall)),
          build_plan_for_cost(shape, kSmall, smd_cost(shape, kSmall))}) {
      const auto [ifm, weights] = sample_tensors(plan.shape, 3);
      const ExecutionResult result = execute_plan(plan, ifm, weights);
      const EnergyReport analytic =
          analytic_activity(plan.shape, plan.geometry, plan.cost);
      EXPECT_EQ(result.activity.row_activations, analytic.row_activations);
      EXPECT_EQ(result.activity.col_reads, analytic.col_reads);
      EXPECT_EQ(result.activity.cell_macs, analytic.cell_macs);
    }
  }
}

TEST(Executor, ProgrammedCellsReported) {
  const MappingPlan plan = sample_plan();
  const auto [ifm, weights] = sample_tensors(plan.shape, 4);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  EXPECT_EQ(result.programmed_cells, plan.programmed_cells());
  EXPECT_EQ(result.arrays_used, static_cast<Count>(plan.tiles.size()));
  EXPECT_GT(result.min_tile_utilization, 0.0);
  EXPECT_GE(result.mean_tile_utilization, result.min_tile_utilization);
  EXPECT_LE(result.mean_tile_utilization, 1.0);
}

TEST(Executor, RejectsMismatchedTensors) {
  const MappingPlan plan = sample_plan();
  const auto [ifm, weights] = sample_tensors(plan.shape, 5);
  const Tensord wrong_ifm = Tensord::feature_map(2, 8, 8);
  EXPECT_THROW(execute_plan(plan, wrong_ifm, weights), InvalidArgument);
  const Tensord wrong_weights = Tensord::weights(40, 9, 5, 5);
  EXPECT_THROW(execute_plan(plan, ifm, wrong_weights), InvalidArgument);
}

TEST(Executor, ValidatesPlanUnlessDisabled) {
  MappingPlan plan = sample_plan();
  plan.cost.total += 1;  // corrupt: validator must object
  const auto [ifm, weights] = sample_tensors(plan.shape, 6);
  EXPECT_THROW(execute_plan(plan, ifm, weights), InternalError);
  // With validation off the executor itself notices the cycle mismatch at
  // the end (still InternalError, different path).
  ExecutionOptions options;
  options.validate_plan = false;
  EXPECT_THROW(execute_plan(plan, ifm, weights, options), InternalError);
}

TEST(Executor, QuantizedAdcDegradesGracefully) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan = build_plan_for_window(shape, kSmall, {4, 4});
  const auto [ifm, weights] = sample_tensors(shape, 7);
  const Tensord reference = conv2d_direct(ifm, weights);

  ExecutionOptions coarse;
  coarse.adc = ConverterModel(4, -256.0, 256.0);
  const ExecutionResult coarse_result =
      execute_plan(plan, ifm, weights, coarse);
  const double coarse_err = max_abs_diff(coarse_result.ofm, reference);
  EXPECT_GT(coarse_err, 0.0);  // 4 bits over +-256: step 32, real error

  ExecutionOptions fine;
  fine.adc = ConverterModel(16, -256.0, 256.0);
  const ExecutionResult fine_result = execute_plan(plan, ifm, weights, fine);
  const double fine_err = max_abs_diff(fine_result.ofm, reference);
  EXPECT_LT(fine_err, coarse_err);
}

TEST(Executor, NoiseGrowsWithSigma) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan = build_plan_for_window(shape, kSmall, {4, 4});
  const auto [ifm, weights] = sample_tensors(shape, 8);
  const Tensord reference = conv2d_direct(ifm, weights);

  double last_err = 0.0;
  for (const double sigma : {0.0, 0.01, 0.1}) {
    ExecutionOptions options;
    options.noise.multiplicative_sigma = sigma;
    options.noise_seed = 99;
    const ExecutionResult result = execute_plan(plan, ifm, weights, options);
    const double err = max_abs_diff(result.ofm, reference);
    if (sigma == 0.0) {
      EXPECT_EQ(err, 0.0);
    } else {
      EXPECT_GT(err, last_err);
    }
    last_err = err;
  }
}

TEST(Executor, NoiseIsDeterministicPerSeed) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan = build_plan_for_window(shape, kSmall, {4, 4});
  const auto [ifm, weights] = sample_tensors(shape, 9);
  ExecutionOptions options;
  options.noise.additive_sigma = 0.05;
  options.noise_seed = 123;
  const ExecutionResult a = execute_plan(plan, ifm, weights, options);
  const ExecutionResult b = execute_plan(plan, ifm, weights, options);
  EXPECT_TRUE(exactly_equal(a.ofm, b.ofm));
  ThreadPool pool(4);
  options.pool = &pool;
  const ExecutionResult pooled = execute_plan(plan, ifm, weights, options);
  EXPECT_TRUE(exactly_equal(a.ofm, pooled.ofm));
}

/// FNV-1a over the bit patterns of a tensor's values.
std::uint64_t bits_hash(const Tensord& tensor) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double value : tensor.data()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((bits >> (8 * byte)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

TEST(Executor, NoiseStreamIsPinnedPerPlanKind) {
  // Tiles draw noise cell by cell as they are programmed, so these
  // hashes pin the order plans are programmed in.  None of the plans
  // clamps a base, so each output is computed once.
  const ConvShape split_shape = ConvShape::square(10, 3, 8, 4);
  const ArrayGeometry split_geometry{64, 16};
  const ConvShape windowed_shape = ConvShape::square(8, 3, 9, 40);
  const ConvShape dense_shape = ConvShape::square(6, 3, 8, 10);
  const ConvShape smd_shape = ConvShape::square(6, 3, 1, 2);
  const CycleCost split_cost = sdk_cost(split_shape, split_geometry, {4, 4});
  const CycleCost smd = smd_cost(smd_shape, kSmall);
  // The SDK window's 128 rows are cut mid-window across two arrays, and
  // the SMD plan holds more than one duplicate.
  ASSERT_GT(split_cost.window.area() * split_cost.ic_t, split_geometry.rows);
  ASSERT_EQ(split_cost.ar_cycles, 2);
  ASSERT_GT(smd.smd_duplicates, 1);
  const struct {
    const char* name;
    MappingPlan plan;
    std::uint64_t expected;
  } cases[] = {
      {"windowed",
       build_plan_for_cost(windowed_shape, kSmall,
                           vw_cost(windowed_shape, kSmall, {4, 3})),
       10310049120845973338ULL},
      {"element-split",
       build_plan_for_cost(split_shape, split_geometry, split_cost),
       10840661043485441511ULL},
      {"im2col",
       build_plan_for_cost(dense_shape, kSmall,
                           im2col_cost(dense_shape, kSmall)),
       15314041013317028916ULL},
      {"smd", build_plan_for_cost(smd_shape, kSmall, smd),
       12840957270812053274ULL},
  };
  // The same bits with and without a pool: noise is drawn on the
  // calling thread either way.
  ThreadPool pool(4);
  for (const auto& c : cases) {
    const auto [ifm, weights] = sample_tensors(c.plan.shape, 11);
    ExecutionOptions options;
    options.noise.multiplicative_sigma = 0.03;
    options.noise.additive_sigma = 0.02;
    options.noise_seed = 2024;
    for (ThreadPool* fan_out : {static_cast<ThreadPool*>(nullptr), &pool}) {
      options.pool = fan_out;
      const ExecutionResult result =
          execute_plan(c.plan, ifm, weights, options);
      EXPECT_EQ(bits_hash(result.ofm), c.expected)
          << c.name << " plan, "
          << (fan_out == nullptr ? "no pool" : "4-worker pool");
    }
  }
}

TEST(Executor, NoisyRunWithClampedWindowsCompletes) {
  // The 7x7 {4,3} plan clamps its last base (PlanBuilder.
  // WindowedPlanClampedLastBaseOverlaps), so some outputs are computed by
  // two columns holding independently noised copies of each weight.
  const ConvShape shape = ConvShape::square(7, 3, 2, 2);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
  ASSERT_EQ(plan.base_x.back(), 3);
  const auto [ifm, weights] = sample_tensors(shape, 12);
  ExecutionOptions options;
  options.noise.multiplicative_sigma = 0.02;
  const ExecutionResult result = execute_plan(plan, ifm, weights, options);
  EXPECT_EQ(result.cycles, plan.cost.total);
  EXPECT_GT(max_abs_diff(result.ofm, conv2d_direct(ifm, weights)), 0.0);
}

// --- One tile's crossbar behaviour, through execute_plan. -------------

/// A 1x1-kernel layer on a 1x1 image: im2col puts input channel c on row
/// c and output channel o on column o, so the layer is one crossbar
/// matrix-vector product per AR tile.
MappingPlan pointwise_plan(Dim in_channels, Dim out_channels,
                           ArrayGeometry geometry) {
  const ConvShape shape = ConvShape::square(1, 1, in_channels, out_channels);
  return build_plan_for_cost(shape, geometry, im2col_cost(shape, geometry));
}

TEST(Executor, ComputesTheTileMatrixVectorProduct) {
  const MappingPlan plan = pointwise_plan(2, 3, {4, 4});
  Tensord ifm = Tensord::feature_map(2, 1, 1);
  ifm.at(0, 0, 0) = 2.0;
  ifm.at(1, 0, 0) = 3.0;
  Tensord weights = Tensord::weights(3, 2, 1, 1);
  weights.at(0, 0, 0, 0) = 1.0;
  weights.at(1, 0, 0, 0) = 2.0;
  weights.at(1, 1, 0, 0) = -1.0;
  weights.at(2, 1, 0, 0) = 4.0;
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  EXPECT_EQ(result.ofm.at(0, 0, 0), 2.0);   // 2*1
  EXPECT_EQ(result.ofm.at(1, 0, 0), 1.0);   // 2*2 + 3*(-1)
  EXPECT_EQ(result.ofm.at(2, 0, 0), 12.0);  // 3*4
  EXPECT_EQ(result.cycles, 1);
}

TEST(Executor, ProgrammedCellsAndUtilizationCountEveryBoundCell) {
  // 2 x 3 cells on a 4 x 4 array, zero-valued weights included.
  const MappingPlan plan = pointwise_plan(2, 3, {4, 4});
  const Tensord ifm = Tensord::feature_map(2, 1, 1);
  const Tensord weights = Tensord::weights(3, 2, 1, 1);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  EXPECT_EQ(result.arrays_used, 1);
  EXPECT_EQ(result.programmed_cells, 6);
  EXPECT_EQ(result.activity.cell_macs, 6);
  EXPECT_DOUBLE_EQ(result.min_tile_utilization, 6.0 / 16.0);
  EXPECT_DOUBLE_EQ(result.mean_tile_utilization, 6.0 / 16.0);
}

TEST(Executor, RepeatedRowOrColumnIndexIsACollision) {
  ExecutionOptions options;
  options.validate_plan = false;  // the executor must object by itself
  const auto [ifm, weights] = sample_tensors(sample_plan().shape, 13);

  MappingPlan rows = sample_plan();
  rows.tiles[1].rows[1].row = rows.tiles[1].rows[0].row;
  EXPECT_THROW(execute_plan(rows, ifm, weights, options), InvalidArgument);

  MappingPlan cols = sample_plan();
  cols.tiles[2].cols.back().col = cols.tiles[2].cols.front().col;
  EXPECT_THROW(execute_plan(cols, ifm, weights, options), InvalidArgument);
}

TEST(Executor, BindingOutsideTheArrayIsRejected) {
  ExecutionOptions options;
  options.validate_plan = false;
  const auto [ifm, weights] = sample_tensors(sample_plan().shape, 14);
  for (const Dim row : {Dim{-1}, kSmall.rows}) {
    MappingPlan plan = sample_plan();
    plan.tiles[0].rows[0].row = row;
    EXPECT_THROW(execute_plan(plan, ifm, weights, options), InvalidArgument)
        << "row " << row;
  }
  for (const Dim col : {Dim{-1}, kSmall.cols}) {
    MappingPlan plan = sample_plan();
    plan.tiles[0].cols[0].col = col;
    EXPECT_THROW(execute_plan(plan, ifm, weights, options), InvalidArgument)
        << "col " << col;
  }
}

TEST(Executor, ColumnsThatDifferAcrossOneAcBandAreRejected) {
  // tile(0,0) and tile(1,0) would sum different outputs in one array
  // column; the commit reads the band's outputs off tile(1,0) alone.
  MappingPlan plan = sample_plan();
  std::swap(plan.tiles[0].cols[0].col, plan.tiles[0].cols[1].col);
  const auto [ifm, weights] = sample_tensors(plan.shape, 16);
  EXPECT_THROW(execute_plan(plan, ifm, weights), InternalError);
  ExecutionOptions options;
  options.validate_plan = false;
  EXPECT_THROW(execute_plan(plan, ifm, weights, options), InvalidArgument);
}

TEST(Executor, AdcAppliedPerColumnBeforeArAccumulation) {
  // One array row: each input channel is its own AR tile, and each tile's
  // column read-out is quantized before the AR partial sums are added.
  const MappingPlan plan = pointwise_plan(2, 2, {1, 4});
  ASSERT_EQ(plan.cost.ar_cycles, 2);
  Tensord ifm = Tensord::feature_map(2, 1, 1);
  ifm.fill(2.7);
  Tensord weights = Tensord::weights(2, 2, 1, 1);
  weights.fill(1.0);
  ExecutionOptions options;
  options.adc = ConverterModel(3, 0.0, 8.0);  // step 1: 2.7 -> 2.0
  const ExecutionResult result = execute_plan(plan, ifm, weights, options);
  // 2 + 2 per column, not ADC(2.7 + 2.7) = 5.
  EXPECT_EQ(result.ofm.at(0, 0, 0), 4.0);
  EXPECT_EQ(result.ofm.at(1, 0, 0), 4.0);
}

TEST(Executor, IdleRowsContributeNothing) {
  // 5x5 k3 gives 9 windows; the SMD plan holds D = 2 duplicates, so the
  // final chunk drives only duplicate 0 and duplicate 1's rows sit idle.
  // Every row driven 0 or left idle must leave the read-outs exact.
  const ConvShape shape = ConvShape::square(5, 3, 1, 2);
  const ArrayGeometry geometry{20, 4};
  const MappingPlan plan =
      build_plan_for_cost(shape, geometry, smd_cost(shape, geometry));
  ASSERT_EQ(plan.cost.smd_duplicates, 2);
  Rng rng(15);
  Tensord ifm = Tensord::feature_map(1, 5, 5);
  fill_random_int(ifm, rng, 1000);
  Tensord weights = Tensord::weights(2, 1, 3, 3);
  fill_random_int(weights, rng, 4);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  EXPECT_TRUE(exactly_equal(result.ofm, conv2d_direct(ifm, weights)));
}

TEST(Executor, GroupWithoutIm2colRangeIsProgrammedAndExact) {
  // With noise off the executor reads a tile's weights in place only when
  // every column group has its im2col range (ColumnGroup::im2col_first).
  // Two valid plans whose first tile has a group without one -- its rows
  // out of im2col order, or its columns out of channel order -- run
  // through programming, and still match the scalar reference exactly,
  // with and without a pool (the tiles are above the fan-out cutoff).
  const ConvShape shape = ConvShape::square(16, 3, 9, 40);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
  MappingPlan rows_swapped = plan;
  std::swap(rows_swapped.tiles[0].rows[0].row,
            rows_swapped.tiles[0].rows[1].row);
  MappingPlan channels_swapped = plan;
  // Columns 0 and n_wp bind output channels 0 and 1 at window (0, 0);
  // every tile of the first AC band binds the same columns.
  const auto n_wp =
      static_cast<std::size_t>(windows_in_pw(shape, plan.cost.window));
  for (std::size_t t = 0; t < plan.tiles.size();
       t += static_cast<std::size_t>(plan.cost.ac_cycles)) {
    std::swap(channels_swapped.tiles[t].cols[0].oc,
              channels_swapped.tiles[t].cols[n_wp].oc);
  }
  const auto [ifm, weights] = sample_tensors(shape, 21);
  const Tensord oracle = conv2d_direct(ifm, weights);
  ThreadPool pool(4);
  for (const MappingPlan* mutated : {&rows_swapped, &channels_swapped}) {
    const PlanLayout layout = derive_layout(*mutated);
    ASSERT_TRUE(layout.issues.empty());
    ASSERT_TRUE(std::ranges::any_of(
        layout.tiles[0].groups,
        [](const ColumnGroup& g) { return !g.im2col_first.has_value(); }));
    for (ThreadPool* fan_out : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ExecutionOptions options;
      options.pool = fan_out;
      const ExecutionResult result =
          execute_plan(*mutated, ifm, weights, options);
      EXPECT_TRUE(exactly_equal(result.ofm, oracle));
      EXPECT_EQ(result.programmed_cells, plan.programmed_cells());
      EXPECT_EQ(result.cycles, plan.cost.total);
    }
  }
}

TEST(Executor, ZeroInputYieldsZeroOutput) {
  const MappingPlan plan = sample_plan();
  const Tensord ifm = Tensord::feature_map(plan.shape.in_channels,
                                           plan.shape.ifm_h,
                                           plan.shape.ifm_w);
  auto [unused_ifm, weights] = sample_tensors(plan.shape, 10);
  const ExecutionResult result = execute_plan(plan, ifm, weights);
  for (const double v : result.ofm.data()) {
    EXPECT_EQ(v, 0.0);
  }
}

}  // namespace
}  // namespace vwsdk
