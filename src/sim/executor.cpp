#include "sim/executor.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "mapping/plan_validate.h"
#include "pim/crossbar.h"

namespace vwsdk {

namespace {

/// Padded-coordinate input fetch: (y, x) are relative to the padded
/// feature map; outside the real extent the value is the zero padding.
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

/// Write one output value, optionally checking that a recomputation (an
/// overlapping clamped window) reproduces the committed value exactly.
/// Noisy runs skip the check: each copy of a weight carries its own
/// independently drawn noise, so recomputed outputs legitimately differ.
void commit_output(Tensord& ofm, std::vector<char>& written,
                   const ConvShape& shape, Dim oc, Count oy, Count ox,
                   double value, bool check_consistency) {
  const Count ow = shape.windows_w();
  const std::size_t flat = static_cast<std::size_t>(
      (static_cast<Count>(oc) * shape.windows_h() + oy) * ow + ox);
  if (written[flat] != 0 && check_consistency) {
    const double prior = ofm.at(oc, static_cast<Dim>(oy),
                                static_cast<Dim>(ox));
    VWSDK_ASSERT(prior == value,
                 cat("overlapping windows disagree at oc=", oc, " oy=", oy,
                     " ox=", ox, ": ", prior, " vs ", value));
  }
  ofm.at(oc, static_cast<Dim>(oy), static_cast<Dim>(ox)) = value;
  written[flat] = 1;
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

  // --- Program one crossbar per tile. ---------------------------------
  std::optional<NoiseModel> noise;
  if (options.noise.enabled()) {
    noise.emplace(options.noise, options.noise_seed);
  }
  std::vector<Crossbar> arrays;
  arrays.reserve(plan.tiles.size());
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
    result.programmed_cells =
        checked_add(result.programmed_cells, array.programmed_cell_count());
    min_util = std::min(min_util, array.utilization());
    sum_util += array.utilization();
  }
  result.min_tile_utilization = arrays.empty() ? 0.0 : min_util;
  result.mean_tile_utilization =
      arrays.empty() ? 0.0 : sum_util / static_cast<double>(arrays.size());

  std::vector<char> written(
      static_cast<std::size_t>(result.ofm.size()), 0);
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

  if (plan.kind == PlanKind::kSmd) {
    // D block-diagonal duplicates; each cycle covers up to D consecutive
    // kernel windows, row-major over the output grid.
    VWSDK_ASSERT(plan.tiles.size() == 1, "SMD plans have one tile");
    const ArrayTile& tile = plan.tiles.front();
    const Count n_windows = shape.num_windows();
    const Dim dup_count = plan.cost.smd_duplicates;
    const Count ow = shape.windows_w();
    std::vector<double> input(static_cast<std::size_t>(plan.geometry.rows));

    for (Count first = 0; first < n_windows; first += dup_count) {
      const Count live = std::min<Count>(dup_count, n_windows - first);
      std::fill(input.begin(), input.end(), 0.0);
      for (const RowBinding& rb : tile.rows) {
        if (rb.dup >= live) {
          continue;  // idle duplicate in the final chunk
        }
        const Count window = first + rb.dup;
        const Dim base_y =
            static_cast<Dim>((window / ow) * shape.stride_h);
        const Dim base_x =
            static_cast<Dim>((window % ow) * shape.stride_w);
        input[static_cast<std::size_t>(rb.row)] =
            fetch_input(ifm, shape, rb.ic, base_y + rb.dy, base_x + rb.dx);
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
    // Windowed / im2col: for each parallel-window base, accumulate the
    // AR partial sums per AC tile, then commit the outputs.
    std::vector<double> input(static_cast<std::size_t>(plan.geometry.rows));
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
              input[static_cast<std::size_t>(rb.row)] = fetch_input(
                  ifm, shape, rb.ic, by + rb.dy, bx + rb.dx);
            }
            const std::vector<double> out =
                run_cycle(tile, tile_index, input);
            for (std::size_t col = 0; col < out.size(); ++col) {
              acc[col] += out[col];
            }
          }
          // Column bindings are identical across the AR tiles of one AC
          // band; commit once per base using the last tile's bindings.
          VWSDK_ASSERT(last_tile != nullptr, "no AR tiles executed");
          for (const ColBinding& cb : last_tile->cols) {
            const Count oy = by / shape.stride_h + cb.win_py;
            const Count ox = bx / shape.stride_w + cb.win_px;
            commit_output(result.ofm, written, shape, cb.oc, oy, ox,
                          acc[static_cast<std::size_t>(cb.col)],
                          check_overlaps);
          }
        }
      }
    }
  }

  // Every output element must have been produced.
  const bool all_written =
      std::all_of(written.begin(), written.end(),
                  [](char flag) { return flag != 0; });
  VWSDK_ASSERT(all_written, "execution left output elements unwritten");
  VWSDK_ASSERT(result.cycles == plan.cost.total,
               cat("executed ", result.cycles, " cycles, analytic model says ",
                   plan.cost.total));
  return result;
}

}  // namespace vwsdk
