#include "sim/executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "mapping/plan_validate.h"

namespace vwsdk {

namespace {

/// Bases gathered from the input and run through a tile block per pass.
constexpr std::size_t kBaseBlock = 16;
/// Register tile of the block multiply: kTileBases bases x kTileCols
/// columns of partial sums stay in registers across the row loop.
constexpr std::size_t kTileBases = 4;
constexpr std::size_t kTileCols = 4;

/// `bindings` ordered by array index; throws if an index lies outside
/// [0, limit) or repeats (two bindings would collide in a cell).
template <typename Binding, typename Index>
std::vector<const Binding*> sorted_bindings(
    const std::vector<Binding>& bindings, Index index, Dim limit,
    const char* what) {
  std::vector<const Binding*> sorted;
  for (const Binding& binding : bindings) {
    VWSDK_REQUIRE(index(binding) >= 0 && index(binding) < limit,
                  cat(what, " ", index(binding), " lies outside the array"));
    sorted.push_back(&binding);
  }
  std::sort(sorted.begin(), sorted.end(),
            [&](const Binding* a, const Binding* b) {
              return index(*a) < index(*b);
            });
  const auto twice = std::adjacent_find(
      sorted.begin(), sorted.end(), [&](const Binding* a, const Binding* b) {
        return index(*a) == index(*b);
      });
  VWSDK_REQUIRE(twice == sorted.end(),
                cat(what, " ", index(**twice),
                    " bound twice in one tile: mapping plans must not "
                    "collide"));
  return sorted;
}

/// Columns of one SMD duplicate and window position hold cells in the
/// same rows (for_each_cell's rule).  A group packs such columns of one
/// tile with only the rows, ascending, where one holds a nonzero weight:
/// a skipped row adds x * 0 = +-0 to a sum never -0, for finite x exact.
struct ColumnGroup {
  std::vector<std::size_t> rows;  ///< slots in the tile's sorted rows
  std::vector<std::size_t> cols;  ///< array columns, whole strips
  std::vector<double> weights;    ///< per kTileCols-column strip, row-major
};

/// One computing cycle per base for `live` <= kBaseBlock bases over one
/// strip: acc[i * stride + col[j]] += ADC(sum over rows q, ascending, of
/// x[q * kBaseBlock + i] * w[q * kTileCols + j]).
void run_strip(const double* x, const double* w, std::size_t rows,
               const std::size_t* col, std::size_t stride, std::size_t live,
               const ConverterModel& adc, double* acc) {
  for (std::size_t i0 = 0; i0 < live; i0 += kTileBases) {
    double sum[kTileBases][kTileCols] = {};
    for (std::size_t q = 0; q < rows; ++q) {
      for (std::size_t i = 0; i < kTileBases; ++i) {
        for (std::size_t j = 0; j < kTileCols; ++j) {
          sum[i][j] += x[q * kBaseBlock + i0 + i] * w[q * kTileCols + j];
        }
      }
    }
    for (std::size_t i = 0; i < std::min(kTileBases, live - i0); ++i) {
      for (std::size_t j = 0; j < kTileCols; ++j) {
        acc[(i0 + i) * stride + col[j]] += adc.convert(sum[i][j]);
      }
    }
  }
}

}  // namespace

ExecutionResult execute_plan(const MappingPlan& plan, const Tensord& ifm,
                             const Tensord& weights,
                             const ExecutionOptions& options) {
  const ConvShape& shape = plan.shape;
  shape.validate();
  const Shape4 expected_ifm{1, shape.in_channels, shape.ifm_h, shape.ifm_w};
  VWSDK_REQUIRE(ifm.shape() == expected_ifm,
                cat("IFM shape ", ifm.shape().to_string(),
                    " does not match layer ", shape.to_string()));
  const Shape4 expected_weights{shape.out_channels, shape.in_channels,
                                shape.kernel_h, shape.kernel_w};
  VWSDK_REQUIRE(weights.shape() == expected_weights,
                cat("weight shape ", weights.shape().to_string(),
                    " does not match layer ", shape.to_string()));
  if (options.validate_plan) {
    expect_valid(plan);
  }

  // A base is a parallel-window position; for SMD it is a chunk of D
  // consecutive kernel windows, row-major over the output grid, with
  // duplicate d on window chunk * D + d.
  const bool smd = plan.kind == PlanKind::kSmd;
  const Count n_windows = shape.num_windows();
  const Count ow = shape.windows_w();
  const Dim dup_count = plan.cost.smd_duplicates;
  const std::size_t nbx = plan.base_x.size();
  const std::size_t n_base = static_cast<std::size_t>(
      smd ? ceil_div(n_windows, dup_count)
          : static_cast<Count>(plan.base_y.size() * nbx));
  const std::size_t bands =
      smd ? 1 : static_cast<std::size_t>(plan.cost.ac_cycles);
  VWSDK_ASSERT(plan.tiles.size() ==
                   (smd ? 1 : static_cast<std::size_t>(plan.cost.ar_cycles) *
                                  bands),
               "the plan's tiles do not match its AR x AC");
  // Output position of each base's first window (SMD: of every window),
  // and of the window duplicate `dup` computes at `base`; none for an
  // idle SMD duplicate in the final chunk.
  std::vector<std::pair<Dim, Dim>> windows;
  for (Count w = 0; smd && w < n_windows; ++w) {
    windows.emplace_back(static_cast<Dim>(w / ow), static_cast<Dim>(w % ow));
  }
  for (std::size_t b = 0; !smd && b < n_base; ++b) {
    const Dim by = plan.base_y[b / nbx];
    const Dim bx = plan.base_x[b % nbx];
    VWSDK_REQUIRE(by % shape.stride_h == 0 && bx % shape.stride_w == 0,
                  cat("base (", by, ", ", bx, ") is not stride-aligned"));
    windows.emplace_back(by / shape.stride_h, bx / shape.stride_w);
  }
  const auto window = [&](std::size_t base,
                          Dim dup) -> const std::pair<Dim, Dim>* {
    const std::size_t w = smd ? base * static_cast<std::size_t>(dup_count) +
                                    static_cast<std::size_t>(dup)
                              : base;
    return (!smd || dup < dup_count) && w < windows.size() ? &windows[w]
                                                           : nullptr;
  };
  // The value row `rb` is driven with at `base`: zero for an idle
  // duplicate and for the zero padding around the input.
  const auto input = [&](std::size_t base, const RowBinding& rb) {
    const auto* at = window(base, rb.dup);
    const Dim y = at ? at->first * shape.stride_h + rb.dy - shape.pad_h : -1;
    const Dim x = at ? at->second * shape.stride_w + rb.dx - shape.pad_w : -1;
    return y < 0 || y >= shape.ifm_h || x < 0 || x >= shape.ifm_w
               ? 0.0
               : ifm.at(rb.ic, y, x);
  };

  // Each AC band accumulates its AR partial sums per base and array
  // column, for columns 0 .. the highest its tiles bind, plus one spare
  // column that pads strips and is never committed.  Windowed sums start
  // at 0.0, as a crossbar read-out sum does; an SMD read-out is committed
  // as is, and -0.0 is the exact identity of +.
  std::vector<std::size_t> band_cols(bands, 0);
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    const auto cols = sorted_bindings(
        plan.tiles[t].cols, [](const ColBinding& cb) { return cb.col; },
        plan.geometry.cols, "column");
    std::size_t& width = band_cols[t % bands];
    if (!cols.empty()) {
      width = std::max(width, static_cast<std::size_t>(cols.back()->col) + 1);
    }
  }
  std::vector<std::vector<double>> band_acc(bands);
  for (std::size_t band = 0; band < bands; ++band) {
    band_acc[band].assign(n_base * (band_cols[band] + 1), smd ? -0.0 : 0.0);
  }

  // Program each tile once, in plan order, into a block of its bound rows
  // (ascending) x its band's columns, then run every base through it.
  std::optional<NoiseModel> noise;
  if (options.noise.enabled()) {
    noise.emplace(options.noise, options.noise_seed);
  }
  ExecutionResult result;
  result.arrays_used = static_cast<Count>(plan.tiles.size());
  double min_util = 1.0;
  double sum_util = 0.0;
  std::vector<std::size_t> row_slot(
      static_cast<std::size_t>(plan.geometry.rows));
  std::vector<double> dense;
  std::vector<ColumnGroup> groups;
  std::vector<double> x;
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    const ArrayTile& tile = plan.tiles[t];
    const auto rows = sorted_bindings(
        tile.rows, [](const RowBinding& rb) { return rb.row; },
        plan.geometry.rows, "row");
    for (std::size_t p = 0; p < rows.size(); ++p) {
      row_slot[static_cast<std::size_t>(rows[p]->row)] = p;
    }
    const std::size_t stride = band_cols[t % bands] + 1;
    dense.assign(rows.size() * stride, 0.0);
    Count cells = 0;
    for_each_cell(shape, tile,
                  [&](const RowBinding& rb, const ColBinding& cb, Dim ky,
                      Dim kx) {
                    const double value = weights.at(cb.oc, rb.ic, ky, kx);
                    dense[row_slot[static_cast<std::size_t>(rb.row)] * stride +
                          static_cast<std::size_t>(cb.col)] =
                        noise.has_value() ? noise->apply(value) : value;
                    ++cells;
                  });
    result.programmed_cells = checked_add(result.programmed_cells, cells);
    const double util = static_cast<double>(cells) /
                        static_cast<double>(plan.geometry.cell_count());
    min_util = std::min(min_util, util);
    sum_util += util;

    // Group the columns by (dup, win_py, win_px), in binding order.
    // Groups keep their storage across tiles (freed pages fault back in).
    for (ColumnGroup& group : groups) {
      group.cols.clear();
    }
    std::map<std::tuple<Dim, Dim, Dim>, std::size_t> group_of;
    for (const ColBinding& cb : tile.cols) {
      const auto it = group_of.try_emplace(
          std::tuple{cb.dup, cb.win_py, cb.win_px}, group_of.size()).first;
      groups.resize(std::max(groups.size(), group_of.size()));
      groups[it->second].cols.push_back(static_cast<std::size_t>(cb.col));
    }
    for (ColumnGroup& group : groups) {
      group.rows.clear();
      group.weights.clear();
      while (group.cols.size() % kTileCols != 0) {
        group.cols.push_back(stride - 1);  // the spare column
      }
      for (std::size_t p = 0; p < rows.size(); ++p) {
        const double* row = dense.data() + p * stride;
        if (std::any_of(group.cols.begin(), group.cols.end(),
                        [&](std::size_t col) { return row[col] != 0.0; })) {
          group.rows.push_back(p);
        }
      }
      for (std::size_t j0 = 0; j0 < group.cols.size(); j0 += kTileCols) {
        for (const std::size_t p : group.rows) {
          for (std::size_t j = j0; j < j0 + kTileCols; ++j) {
            group.weights.push_back(dense[p * stride + group.cols[j]]);
          }
        }
      }
    }

    // Execute: gather each group's rows for a block of bases, then run
    // the block through the group's strips.
    double* acc = band_acc[t % bands].data();
    for (std::size_t b0 = 0; b0 < n_base; b0 += kBaseBlock) {
      const std::size_t live = std::min(kBaseBlock, n_base - b0);
      for (const ColumnGroup& group : groups) {
        const std::size_t n = group.rows.size();
        x.resize(n * kBaseBlock);
        for (std::size_t q = 0; q < n; ++q) {
          for (std::size_t i = 0; i < live; ++i) {
            x[q * kBaseBlock + i] = input(b0 + i, *rows[group.rows[q]]);
          }
        }
        for (std::size_t j0 = 0; j0 < group.cols.size(); j0 += kTileCols) {
          run_strip(x.data(), group.weights.data() + j0 * n, n,
                    group.cols.data() + j0, stride, live, options.adc,
                    acc + b0 * stride);
        }
      }
      result.cycles += static_cast<Cycles>(live);
    }
    const Count cycles = static_cast<Count>(n_base);
    result.activity.accumulate(
        {cycles, cycles * static_cast<Count>(tile.rows.size()),
         cycles * static_cast<Count>(tile.cols.size()), cycles * cells});
  }
  if (!plan.tiles.empty()) {
    result.min_tile_utilization = min_util;
    result.mean_tile_utilization =
        sum_util / static_cast<double>(plan.tiles.size());
  }

  // Commit base -> AC band -> column binding.  Column bindings are
  // identical across the AR tiles of one AC band; commit with the last
  // tile's.  A recomputed output (an overlapping clamped window) must
  // reproduce the committed value exactly, except in noisy runs, where
  // each copy of a weight carries its own independently drawn noise.
  result.ofm = Tensord::feature_map(shape.out_channels,
                                    static_cast<Dim>(shape.windows_h()),
                                    static_cast<Dim>(shape.windows_w()));
  std::vector<char> written(static_cast<std::size_t>(result.ofm.size()), 0);
  for (std::size_t base = 0; base < n_base; ++base) {
    for (std::size_t band = 0; band < bands; ++band) {
      for (const ColBinding& cb :
           plan.tiles[plan.tiles.size() - bands + band].cols) {
        const auto* at = window(base, cb.dup);
        if (at == nullptr) {
          continue;
        }
        const Dim oy = at->first + cb.win_py;
        const Dim ox = at->second + cb.win_px;
        const double value = band_acc[band][base * (band_cols[band] + 1) +
                                            static_cast<std::size_t>(cb.col)];
        double& out = result.ofm.at(cb.oc, oy, ox);
        char& done = written[static_cast<std::size_t>(
            (static_cast<Count>(cb.oc) * shape.windows_h() + oy) * ow + ox)];
        VWSDK_ASSERT(done == 0 || options.noise.enabled() || out == value,
                     cat("overlapping windows disagree at oc=", cb.oc,
                         " oy=", oy, " ox=", ox, ": ", out, " vs ", value));
        out = value;
        done = 1;
      }
    }
  }

  // Every output element must have been produced.
  VWSDK_ASSERT(std::ranges::find(written, 0) == written.end(),
               "execution left output elements unwritten");
  VWSDK_ASSERT(result.cycles == plan.cost.total,
               cat("executed ", result.cycles, " cycles, analytic model says ",
                   plan.cost.total));
  return result;
}

}  // namespace vwsdk
