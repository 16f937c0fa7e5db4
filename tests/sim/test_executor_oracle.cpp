/// Differential test of the tile-major executor against the per-cycle one
/// it replaced.  `legacy::execute_plan` is a test-only copy of that
/// executor and its dense Crossbar: every tile programmed into a full
/// rows x cols array up front, then one dense matrix-vector product per
/// computing cycle.  The two must agree bit for bit on the output and on
/// every count, with and without device noise and ADC quantization.  The
/// executor must also agree with itself bit for bit with no pool and on
/// pools of 1, 2 and 4 workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/grouped_conv.h"
#include "core/mapping_decision.h"
#include "mapping/plan_builder.h"
#include "nn/model_zoo.h"
#include "sim/executor.h"
#include "tensor/gemm_kernel.h"
#include "tensor/tensor_ops.h"
#include "../integration/random_draw.h"

namespace vwsdk {
namespace {
namespace legacy {

/// The dense crossbar: one weight per cell, zero where nothing is
/// programmed; a cycle sums every driven row, ascending, down every
/// column and applies the ADC per column.
class Crossbar {
 public:
  explicit Crossbar(ArrayGeometry geometry)
      : geometry_(geometry),
        cells_(static_cast<std::size_t>(geometry.cell_count()), 0.0),
        programmed_(cells_.size(), 0) {}

  void program(Dim row, Dim col, double value, NoiseModel* noise) {
    VWSDK_REQUIRE(row >= 0 && row < geometry_.rows && col >= 0 &&
                      col < geometry_.cols,
                  "cell outside array");
    const std::size_t i = index(row, col);
    VWSDK_REQUIRE(programmed_[i] == 0, "cell programmed twice");
    cells_[i] = (noise != nullptr) ? noise->apply(value) : value;
    programmed_[i] = 1;
    ++programmed_count_;
  }

  std::vector<double> compute(const std::vector<double>& input,
                              const ConverterModel& adc) const {
    std::vector<double> output(static_cast<std::size_t>(geometry_.cols),
                               0.0);
    for (Dim row = 0; row < geometry_.rows; ++row) {
      const double drive = input[static_cast<std::size_t>(row)];
      if (drive == 0.0) {
        continue;
      }
      for (Dim col = 0; col < geometry_.cols; ++col) {
        output[static_cast<std::size_t>(col)] +=
            drive * cells_[index(row, col)];
      }
    }
    if (adc.mode() != ConverterMode::kIdeal) {
      for (double& value : output) {
        value = adc.convert(value);
      }
    }
    return output;
  }

  Count programmed_cell_count() const { return programmed_count_; }

  double utilization() const {
    return static_cast<double>(programmed_count_) /
           static_cast<double>(geometry_.cell_count());
  }

 private:
  std::size_t index(Dim row, Dim col) const {
    return static_cast<std::size_t>(row) *
               static_cast<std::size_t>(geometry_.cols) +
           static_cast<std::size_t>(col);
  }

  ArrayGeometry geometry_;
  std::vector<double> cells_;
  std::vector<char> programmed_;
  Count programmed_count_ = 0;
};

double fetch_input(const Tensord& ifm, const ConvShape& shape, Dim ic, Dim y,
                   Dim x) {
  const Dim real_y = y - shape.pad_h;
  const Dim real_x = x - shape.pad_w;
  if (real_y < 0 || real_y >= shape.ifm_h || real_x < 0 ||
      real_x >= shape.ifm_w) {
    return 0.0;
  }
  return ifm.at(ic, real_y, real_x);
}

void commit_output(Tensord& ofm, std::vector<char>& written,
                   const ConvShape& shape, Dim oc, Count oy, Count ox,
                   double value, bool check_consistency) {
  const Count ow = shape.windows_w();
  const std::size_t flat = static_cast<std::size_t>(
      (static_cast<Count>(oc) * shape.windows_h() + oy) * ow + ox);
  if (written[flat] != 0 && check_consistency) {
    VWSDK_ASSERT(ofm.at(oc, static_cast<Dim>(oy), static_cast<Dim>(ox)) ==
                     value,
                 "overlapping windows disagree");
  }
  ofm.at(oc, static_cast<Dim>(oy), static_cast<Dim>(ox)) = value;
  written[flat] = 1;
}

ExecutionResult execute_plan(const MappingPlan& plan, const Tensord& ifm,
                             const Tensord& weights,
                             const ExecutionOptions& options) {
  const ConvShape& shape = plan.shape;
  std::optional<NoiseModel> noise;
  if (options.noise.enabled()) {
    noise.emplace(options.noise, options.noise_seed);
  }
  std::vector<Crossbar> arrays;
  for (const ArrayTile& tile : plan.tiles) {
    Crossbar array(plan.geometry);
    for_each_cell(shape, tile,
                  [&](const RowBinding& rb, const ColBinding& cb, Dim ky,
                      Dim kx) {
                    array.program(rb.row, cb.col,
                                  weights.at(cb.oc, rb.ic, ky, kx),
                                  noise.has_value() ? &*noise : nullptr);
                  });
    arrays.push_back(std::move(array));
  }

  ExecutionResult result;
  result.ofm = Tensord::feature_map(shape.out_channels,
                                    static_cast<Dim>(shape.windows_h()),
                                    static_cast<Dim>(shape.windows_w()));
  result.arrays_used = static_cast<Count>(arrays.size());
  double min_util = 1.0;
  double sum_util = 0.0;
  for (const Crossbar& array : arrays) {
    result.programmed_cells += array.programmed_cell_count();
    min_util = std::min(min_util, array.utilization());
    sum_util += array.utilization();
  }
  result.min_tile_utilization = arrays.empty() ? 0.0 : min_util;
  result.mean_tile_utilization =
      arrays.empty() ? 0.0 : sum_util / static_cast<double>(arrays.size());

  std::vector<char> written(static_cast<std::size_t>(result.ofm.size()), 0);
  const bool check_overlaps = !options.noise.enabled();
  const auto run_cycle = [&](const ArrayTile& tile, Count tile_index,
                             const std::vector<double>& input) {
    ++result.cycles;
    result.activity.cycles += 1;
    result.activity.row_activations += static_cast<Count>(tile.rows.size());
    result.activity.col_reads += static_cast<Count>(tile.cols.size());
    const Crossbar& array = arrays[static_cast<std::size_t>(tile_index)];
    result.activity.cell_macs += array.programmed_cell_count();
    return array.compute(input, options.adc);
  };

  std::vector<double> input(static_cast<std::size_t>(plan.geometry.rows));
  if (plan.is_smd()) {
    const ArrayTile& tile = plan.tiles.front();
    const Count n_windows = shape.num_windows();
    const Dim dup_count = plan.cost.smd_duplicates;
    const Count ow = shape.windows_w();
    for (Count first = 0; first < n_windows; first += dup_count) {
      const Count live = std::min<Count>(dup_count, n_windows - first);
      std::fill(input.begin(), input.end(), 0.0);
      for (const RowBinding& rb : tile.rows) {
        if (rb.dup >= live) {
          continue;
        }
        const Count window = first + rb.dup;
        input[static_cast<std::size_t>(rb.row)] = fetch_input(
            ifm, shape, rb.ic,
            static_cast<Dim>((window / ow) * shape.stride_h) + rb.dy,
            static_cast<Dim>((window % ow) * shape.stride_w) + rb.dx);
      }
      const std::vector<double> out = run_cycle(tile, 0, input);
      for (const ColBinding& cb : tile.cols) {
        if (cb.dup >= live) {
          continue;
        }
        const Count window = first + cb.dup;
        commit_output(result.ofm, written, shape, cb.oc, window / ow,
                      window % ow, out[static_cast<std::size_t>(cb.col)],
                      check_overlaps);
      }
    }
  } else {
    std::vector<double> acc(static_cast<std::size_t>(plan.geometry.cols));
    for (const Dim by : plan.base_y) {
      for (const Dim bx : plan.base_x) {
        for (Dim ac = 0; ac < plan.cost.ac_cycles; ++ac) {
          std::fill(acc.begin(), acc.end(), 0.0);
          const ArrayTile* last_tile = nullptr;
          for (Dim ar = 0; ar < plan.cost.ar_cycles; ++ar) {
            const Count tile_index =
                static_cast<Count>(ar) * plan.cost.ac_cycles + ac;
            const ArrayTile& tile =
                plan.tiles[static_cast<std::size_t>(tile_index)];
            last_tile = &tile;
            std::fill(input.begin(), input.end(), 0.0);
            for (const RowBinding& rb : tile.rows) {
              input[static_cast<std::size_t>(rb.row)] =
                  fetch_input(ifm, shape, rb.ic, by + rb.dy, bx + rb.dx);
            }
            const std::vector<double> out =
                run_cycle(tile, tile_index, input);
            for (std::size_t col = 0; col < out.size(); ++col) {
              acc[col] += out[col];
            }
          }
          for (const ColBinding& cb : last_tile->cols) {
            commit_output(result.ofm, written, shape, cb.oc,
                          by / shape.stride_h + cb.win_py,
                          bx / shape.stride_w + cb.win_px,
                          acc[static_cast<std::size_t>(cb.col)],
                          check_overlaps);
          }
        }
      }
    }
  }
  VWSDK_ASSERT(std::all_of(written.begin(), written.end(),
                           [](char flag) { return flag != 0; }),
               "execution left output elements unwritten");
  return result;
}

}  // namespace legacy

/// Noise off/on x ideal/quantizing ADC.
std::vector<ExecutionOptions> option_grid() {
  std::vector<ExecutionOptions> grid;
  for (const bool noisy : {false, true}) {
    for (const bool quantize : {false, true}) {
      ExecutionOptions options;
      if (noisy) {
        options.noise.multiplicative_sigma = 0.03;
        options.noise.additive_sigma = 0.02;
        options.noise_seed = 77;
      }
      if (quantize) {
        options.adc = ConverterModel(5, -64.0, 64.0);
      }
      grid.push_back(options);
    }
  }
  return grid;
}

std::string describe(const ExecutionOptions& options) {
  return cat("noise ", options.noise.enabled() ? "on" : "off", ", adc ",
             options.adc.mode() == ConverterMode::kIdeal ? "ideal"
                                                         : "quantizing");
}

/// Integer-valued (ifm, weights) for `plan`'s layer, drawn from `seed`.
std::pair<Tensord, Tensord> random_operands(const MappingPlan& plan,
                                            std::uint64_t seed) {
  Rng rng(seed);
  Tensord ifm = Tensord::feature_map(plan.shape.in_channels,
                                     plan.shape.ifm_h, plan.shape.ifm_w);
  Tensord weights =
      Tensord::weights(plan.shape.out_channels, plan.shape.in_channels,
                       plan.shape.kernel_h, plan.shape.kernel_w);
  fill_random_int(ifm, rng, 4);
  fill_random_int(weights, rng, 4);
  return {std::move(ifm), std::move(weights)};
}

/// "" when `got` and `want` agree bit for bit on the output and on every
/// count.
std::string differences(const ExecutionResult& got,
                        const ExecutionResult& want,
                        const ExecutionOptions& options) {
  const auto& a = got.ofm.data();
  const auto& b = want.ofm.data();
  if (got.ofm.shape() != want.ofm.shape() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return cat(describe(options), ": OFM bits differ (max_abs_diff ",
               max_abs_diff(got.ofm, want.ofm), ")");
  }
  const bool counts_match =
      got.cycles == want.cycles &&
      got.activity.cycles == want.activity.cycles &&
      got.activity.row_activations == want.activity.row_activations &&
      got.activity.col_reads == want.activity.col_reads &&
      got.activity.cell_macs == want.activity.cell_macs &&
      got.arrays_used == want.arrays_used &&
      got.programmed_cells == want.programmed_cells &&
      got.min_tile_utilization == want.min_tile_utilization &&
      got.mean_tile_utilization == want.mean_tile_utilization;
  if (!counts_match) {
    return cat(describe(options), ": counts differ (cycles ", got.cycles,
               " vs ", want.cycles, ", cell_macs ", got.activity.cell_macs,
               " vs ", want.activity.cell_macs, ", programmed_cells ",
               got.programmed_cells, " vs ", want.programmed_cells, ")");
  }
  return "";
}

/// "" when the tile-major executor reproduces the per-cycle one exactly.
std::string compare_executors(const MappingPlan& plan, std::uint64_t seed,
                              const ExecutionOptions& options) {
  const auto [ifm, weights] = random_operands(plan, seed);
  return differences(execute_plan(plan, ifm, weights, options),
                     legacy::execute_plan(plan, ifm, weights, options),
                     options);
}

/// "" when execute_plan gives the same bits and counts on pools of 1, 2
/// and 4 workers as with no pool.
std::string compare_pools(const MappingPlan& plan, std::uint64_t seed,
                          const ExecutionOptions& options) {
  static ThreadPool one(1);
  static ThreadPool two(2);
  static ThreadPool four(4);
  const auto [ifm, weights] = random_operands(plan, seed);
  const ExecutionResult want = execute_plan(plan, ifm, weights, options);
  for (ThreadPool* pool : {&one, &two, &four}) {
    ExecutionOptions pooled = options;
    pooled.pool = pool;
    const std::string diff =
        differences(execute_plan(plan, ifm, weights, pooled), want, options);
    if (!diff.empty()) {
      return cat(pool->size(), "-worker pool: ", diff);
    }
  }
  return "";
}

/// Whether some tile of `plan` has enough multiply-adds to fan out over
/// a pool, rather than run on the calling thread.
bool fans_out(const MappingPlan& plan) {
  const Count bases =
      static_cast<Count>(plan.cost.total) /
      static_cast<Count>(plan.tiles.size());
  for (const TileLayout& tile : derive_layout(plan).tiles) {
    Count cells = 0;
    for (const ColumnGroup& group : tile.groups) {
      cells += group.cells();
    }
    if (cells * bases >= kParallelCutoffMacs) {
      return true;
    }
  }
  return false;
}

class RandomExecutorOracle : public ::testing::TestWithParam<std::string> {};

/// 100 executable draws (random_draw.h's small sizes), every option mix.
TEST_P(RandomExecutorOracle, MatchesPerCycleExecutorOn100RandomDraws) {
  Rng rng(0xBEEF);
  const auto mapper = make_mapper(GetParam());
  for (int i = 0; i < 100; ++i) {
    const RandomDraw d = draw(rng, /*small=*/true);
    const MappingPlan plan = build_plan_for_cost(
        d.shape, d.geometry, mapper->map(d.shape, d.geometry).cost);
    for (const ExecutionOptions& options : option_grid()) {
      EXPECT_EQ(compare_executors(plan, 0x3000u + static_cast<unsigned>(i),
                                  options),
                "")
          << "draw " << i << ": " << d.context;
    }
  }
}

/// The same 100 draws, every option mix: no pool and pools of 1, 2 and
/// 4 workers give the same bits.
TEST_P(RandomExecutorOracle, PoolSizesAgreeOn100RandomDraws) {
  Rng rng(0xBEEF);
  const auto mapper = make_mapper(GetParam());
  int fanned_out = 0;
  for (int i = 0; i < 100; ++i) {
    const RandomDraw d = draw(rng, /*small=*/true);
    const MappingPlan plan = build_plan_for_cost(
        d.shape, d.geometry, mapper->map(d.shape, d.geometry).cost);
    fanned_out += fans_out(plan) ? 1 : 0;
    for (const ExecutionOptions& options : option_grid()) {
      EXPECT_EQ(compare_pools(plan, 0x3000u + static_cast<unsigned>(i),
                              options),
                "")
          << "draw " << i << ": " << d.context;
    }
  }
  // Below the cutoff a tile never reaches the pool.
  EXPECT_GT(fanned_out, 0);
}

INSTANTIATE_TEST_SUITE_P(Randomized, RandomExecutorOracle,
                         ::testing::Values("im2col", "smd", "sdk", "vw-sdk"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(ExecutorOracle, MatchesPerCycleExecutorOnClampedWindows) {
  // The plan of PlanBuilder.WindowedPlanClampedLastBaseOverlaps: its last
  // base is clamped, so some outputs are computed and committed twice.
  const ConvShape shape = ConvShape::square(7, 3, 2, 2);
  const ArrayGeometry geometry{64, 32};
  const MappingPlan plan = build_plan_for_cost(
      shape, geometry, vw_cost(shape, geometry, {4, 3}));
  ASSERT_EQ(plan.base_x.back(), 3);
  for (const ExecutionOptions& options : option_grid()) {
    EXPECT_EQ(compare_executors(plan, 5, options), "");
  }
}

// Fixed shapes at the edges of the executor's GEMM kernel calls, which
// the small random draws (at most 96 rows, 48 columns and 14 x 14
// images, stride 1, pad 0) rarely or never reach.  Each asserts the
// count that proves it reaches its edge.  The kernel's register blocks
// are 4 or 6 columns of C by 6, 12 or 24 bases, its depth blocks 256
// rows; the executor gathers up to 96 bases per call and slices a group
// into calls of up to 48 columns.

/// The plan `mapper` chooses for `shape` on `geometry`.
MappingPlan plan_of(const std::string& mapper, const ConvShape& shape,
                    const ArrayGeometry& geometry) {
  return build_plan_for_cost(shape, geometry,
                             make_mapper(mapper)->map(shape, geometry).cost);
}

/// Cells column `cb` of `tile` holds: the rows of its group.
Count column_cells(const ConvShape& shape, const ArrayTile& tile,
                   const ColBinding& cb) {
  Count cells = 0;
  for_each_cell(shape, tile,
                [&](const RowBinding&, const ColBinding& col, Dim, Dim) {
                  cells += &col == &cb ? 1 : 0;
                });
  return cells;
}

/// Every option mix agrees with the per-cycle executor on `plan`, and
/// with itself on any pool.
void expect_oracle_on_every_option_mix(const MappingPlan& plan) {
  for (const ExecutionOptions& options : option_grid()) {
    EXPECT_EQ(compare_executors(plan, 11, options), "");
    EXPECT_EQ(compare_pools(plan, 11, options), "");
  }
}

TEST(ExecutorOracle, GroupDeeperThanOneKernelDepthBlock) {
  // im2col: one group, its rows the 33 x 3 x 3 = 297 kernel elements,
  // so each read-out runs over a second depth block of 41 rows.
  const MappingPlan plan =
      plan_of("im2col", ConvShape::square(6, 3, 33, 8), {512, 64});
  ASSERT_EQ(plan.tiles.size(), 1u);
  const Count rows = column_cells(plan.shape, plan.tiles[0],
                                  plan.tiles[0].cols.front());
  EXPECT_EQ(rows, 297);
  EXPECT_GT(rows, 256);
  EXPECT_NE(rows % 256, 0);
  expect_oracle_on_every_option_mix(plan);
}

TEST(ExecutorOracle, BaseCountSpansSeveralBaseBlocks) {
  // A 3 x 195 input gives a 1 x 193 output grid: 193 bases, a prime, so
  // no register block or base block divides it, and 193 > 2 x 96.
  ConvShape shape = ConvShape::square(3, 3, 2, 5);
  shape.ifm_w = 195;
  const MappingPlan plan = plan_of("im2col", shape, {32, 16});
  const std::size_t bases = plan.base_y.size() * plan.base_x.size();
  EXPECT_EQ(bases, 193u);
  for (const std::size_t block : {4u, 6u, 12u, 24u, 96u}) {
    EXPECT_NE(bases % block, 0u) << block;
  }
  EXPECT_GT(bases, 2u * 96u);
  expect_oracle_on_every_option_mix(plan);
}

TEST(ExecutorOracle, GroupColumnsOffTheRegisterBlock) {
  // im2col: one group of all 37 output channels, so the last register
  // block of read-outs holds 1 column at 4 or 6 per block.
  const MappingPlan plan =
      plan_of("im2col", ConvShape::square(5, 3, 4, 37), {64, 48});
  ASSERT_EQ(plan.tiles.size(), 1u);
  const std::size_t cols = plan.tiles[0].cols.size();
  EXPECT_EQ(cols, 37u);
  for (const std::size_t block : {4u, 6u, 12u, 24u}) {
    EXPECT_NE(cols % block, 0u) << block;
  }
  expect_oracle_on_every_option_mix(plan);
}

TEST(ExecutorOracle, SmdFinalChunkWithIdleDuplicates) {
  // 16 windows in chunks of 3 duplicates: the sixth chunk runs one
  // window, and its other two duplicates are driven with zeros.
  const MappingPlan plan =
      plan_of("smd", ConvShape::square(6, 3, 2, 4), {64, 32});
  ASSERT_TRUE(plan.is_smd());
  EXPECT_EQ(plan.cost.smd_duplicates, 3);
  EXPECT_EQ(plan.shape.num_windows() % plan.cost.smd_duplicates, 1);
  expect_oracle_on_every_option_mix(plan);
}

TEST(ExecutorOracle, PaddedStride2Windows) {
  // A 9 x 9 input, stride 2, pad 1, on a vw-sdk plan: the first base's
  // window starts in the zero padding, so the gather must drive zeros.
  ConvShape shape = ConvShape::square(9, 3, 4, 6);
  shape.stride_h = shape.stride_w = 2;
  shape.pad_h = shape.pad_w = 1;
  const MappingPlan plan = plan_of("vw-sdk", shape, {64, 32});
  ASSERT_EQ(plan.cost, vw_cost(shape, {64, 32}, plan.cost.window));
  EXPECT_EQ(plan.base_y.front(), 0);
  EXPECT_EQ(plan.base_x.front(), 0);
  EXPECT_LT(plan.base_y.front(), shape.pad_h);
  EXPECT_EQ(plan.base_y.size() * plan.base_x.size(), 15u);
  expect_oracle_on_every_option_mix(plan);
}

TEST(ExecutorOracle, OneBaseBlockGroupWiderThanTwoSlices) {
  // im2col over two AR tiles, each one group of all 100 output channels
  // at 36 bases: like ResNet-18 conv5, a pool can split such a tile only
  // by column slices (48, 48 and 4 columns).
  const MappingPlan plan =
      plan_of("im2col", ConvShape::square(8, 3, 8, 100), {64, 128});
  ASSERT_EQ(plan.tiles.size(), 2u);
  const PlanLayout layout = derive_layout(plan);
  ASSERT_EQ(layout.tiles[0].groups.size(), 1u);
  EXPECT_GT(layout.tiles[0].groups[0].cols.size(), 2u * 48u);
  EXPECT_LE(plan.base_y.size() * plan.base_x.size(), 96u);
  EXPECT_TRUE(fans_out(plan));
  expect_oracle_on_every_option_mix(plan);
}

TEST(ExecutorOracle, GroupsNarrowerThanOneSlice) {
  // vw-sdk: every group of a tile is one window position's 12 output
  // channels, narrower than one 48-column slice, at two base blocks.
  const MappingPlan plan =
      plan_of("vw-sdk", ConvShape::square(24, 3, 8, 12), {128, 64});
  ASSERT_EQ(plan.cost,
            vw_cost(plan.shape, plan.geometry, plan.cost.window));
  const PlanLayout layout = derive_layout(plan);
  EXPECT_GT(layout.tiles[0].groups.size(), 1u);
  for (const TileLayout& tile : layout.tiles) {
    for (const ColumnGroup& group : tile.groups) {
      EXPECT_LT(group.cols.size(), 48u);
    }
  }
  EXPECT_GT(plan.base_y.size() * plan.base_x.size(), 96u);
  EXPECT_TRUE(fans_out(plan));
  expect_oracle_on_every_option_mix(plan);
}

TEST(ExecutorOracle, MatchesPerCycleExecutorOnResNet18At512x512) {
  const Network network = model_by_name("resnet18");
  const ArrayGeometry geometry{512, 512};
  const auto mapper = make_mapper("vw-sdk");
  // Noise makes the weights real-valued, so any change in the order a
  // column sums its rows shows in the bits; an ideal ADC hides nothing.
  ExecutionOptions options;
  options.noise.multiplicative_sigma = 0.03;
  options.noise.additive_sigma = 0.02;
  std::uint64_t seed = 1;
  for (const ConvLayerDesc& layer : network.layers()) {
    GroupedConvShape grouped;
    grouped.base = ConvShape::from_layer(layer);
    grouped.groups = layer.groups;
    const ConvShape shape = grouped.group_shape();
    const MappingPlan plan = build_plan_for_cost(
        shape, geometry, mapper->map(shape, geometry).cost);
    EXPECT_EQ(compare_executors(plan, seed++, options), "")
        << shape.to_string();
  }
}

}  // namespace
}  // namespace vwsdk
