#include "sim/executor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "mapping/plan_validate.h"
#include "tensor/gemm_kernel.h"

namespace vwsdk {

namespace {

/// Bases gathered from the input per kernel call: one fixed-size block
/// of inputs, rows x kBaseBlock, is all the scratch a work item needs
/// besides the tile itself.
constexpr std::size_t kBaseBlock = 96;

/// An input origin no row offset brings back inside the image: the
/// window of an idle SMD duplicate, driven with zeros.
constexpr Dim kIdle = std::numeric_limits<Dim>::min() / 2;

/// Columns of a group per kernel call: a multiple of every kernel
/// variant's register block height (4 or 6), so a slice of a wide group
/// ends on a full block.
constexpr std::size_t kColumnSlice = 48;

/// One read-out work item of a tile: the columns [j0, j0 + kColumnSlice)
/// of a group, clipped to the group, at the bases [b0, b0 + kBaseBlock),
/// clipped to the base grid.
struct WorkItem {
  std::size_t group = 0;  ///< into TileLayout::groups
  std::size_t b0 = 0;     ///< first base
  std::size_t j0 = 0;     ///< first column, into ColumnGroup::cols
};

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
  // Every check of the bindings runs once, in the derivation; with the
  // validator off, a binding that breaks the layout still stops the run.
  const PlanLayout layout = derive_layout(plan);
  if (options.validate_plan) {
    expect_valid(plan, layout);
  }
  VWSDK_REQUIRE(layout.issues.empty(),
                cat("invalid tile bindings (",
                    layout.issues.size(), " issues): ",
                    join(layout.issues, "; ")));

  // A base is a parallel-window position; for SMD it is a chunk of D
  // consecutive kernel windows, row-major over the output grid, with
  // duplicate d on window chunk * D + d.
  const bool smd = plan.is_smd();
  const Count n_windows = shape.num_windows();
  const Count ow = shape.windows_w();
  const Dim dup_count = plan.cost.smd_duplicates;
  const std::size_t nbx = plan.base_x.size();
  const std::size_t n_base = static_cast<std::size_t>(
      smd ? ceil_div(n_windows, dup_count)
          : static_cast<Count>(plan.base_y.size() * nbx));
  const std::size_t bands =
      smd ? 1 : static_cast<std::size_t>(plan.cost.ac_cycles);
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
  // Each AC band accumulates its AR partial sums per array column and
  // base, column-major, for columns 0 .. the highest its tiles bind.
  // Windowed sums start at 0.0, as a crossbar read-out sum does; an SMD
  // read-out is committed as is, and -0.0 is the exact identity of +.
  std::vector<std::size_t> band_cols(bands, 0);
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    for (const ColBinding& cb : plan.tiles[t].cols) {
      band_cols[t % bands] = std::max(band_cols[t % bands],
                                      static_cast<std::size_t>(cb.col) + 1);
    }
  }
  std::vector<std::vector<double>> band_acc(bands);
  for (std::size_t band = 0; band < bands; ++band) {
    band_acc[band].assign(band_cols[band] * n_base, smd ? -0.0 : 0.0);
  }

  // A column group's weights, column by column over its rows, are a
  // block of the weight tensor when derive_layout finds the group's
  // im2col range.  With noise off, a tile whose groups all have one is
  // read in place, through the tensor's row stride.  Otherwise (a noisy
  // run, whose draws follow for_each_cell order, or a group with no
  // range) each tile is programmed once, in plan order, into a block of
  // its column groups, each column's weights contiguous over its group's
  // rows; the kernel sees the same weights in the same order either way.
  // Then every base runs through each group: gather the inputs of a
  // block of bases, multiply a slice of the group's weights by them with
  // the GEMM kernel (one read-out per column and base, its rows summed
  // in ascending order), and add each read-out, ADC-converted, into the
  // band.  Both steps fan out over the pool, programming by column
  // ranges and the read-outs by work items; each writes only its own
  // columns' cells and its own (column, base) sums, so the bits do not
  // depend on how the work is split.
  std::optional<NoiseModel> noise;
  if (options.noise.enabled()) {
    noise.emplace(options.noise, options.noise_seed);
  }
  const GemmKernel& kernel = gemm_kernel();
  const double* in = ifm.data().data();
  const double* kernels = weights.data().data();
  const Count plane = static_cast<Count>(shape.ifm_h) * shape.ifm_w;
  const Count kernel_area =
      static_cast<Count>(shape.kernel_h) * shape.kernel_w;
  // The weight tensor's row stride: one output channel's im2col rows.
  const Count volume = kernel_area * shape.in_channels;
  ExecutionResult result;
  result.arrays_used = static_cast<Count>(plan.tiles.size());
  double min_util = 1.0;
  double sum_util = 0.0;
  // Per group and array row, the row's place among the group's rows;
  // per array column, where its weights start in the block and where its
  // group's places start.
  const std::size_t array_rows = static_cast<std::size_t>(plan.geometry.rows);
  std::vector<std::size_t> place;
  std::vector<std::size_t> column_start(
      static_cast<std::size_t>(plan.geometry.cols));
  std::vector<std::size_t> column_places(column_start.size());
  std::vector<double> block;
  std::vector<WorkItem> items;
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    const ArrayTile& tile = plan.tiles[t];
    const TileLayout& tile_layout = layout.tiles[t];
    const std::vector<const RowBinding*>& rows = tile_layout.rows;
    const bool in_place =
        !noise.has_value() &&
        std::ranges::all_of(tile_layout.groups, [](const ColumnGroup& g) {
          return g.im2col_first.has_value();
        });
    const std::size_t n_groups = tile_layout.groups.size();
    std::size_t cells = 0;
    for (const ColumnGroup& group : tile_layout.groups) {
      cells += static_cast<std::size_t>(group.cells());
    }
    // A tile below the cutoff runs on the calling thread, and so does the
    // programming of a noisy run, which draws its noise in for_each_cell
    // order.
    ThreadPool* const pool =
        static_cast<Count>(cells) * static_cast<Count>(n_base) <
                kParallelCutoffMacs
            ? nullptr
            : options.pool;

    // A programmed group's weights sit side by side, n_cols x rows
    // row-major, over only the rows it holds cells in: any other row
    // holds a structural zero, and skipping it skips x * 0 = +-0, which
    // leaves a sum that is never -0 exact for finite x.  Every weight of
    // the block is one programmed cell.  The callback captures raw
    // pointers by value: for_each_cell is not inlined here, and captures
    // by reference cost a load through the closure per use.
    if (!in_place) {
      place.resize(n_groups * array_rows);
      std::size_t offset = 0;
      for (std::size_t g = 0; g < n_groups; ++g) {
        const auto& group = tile_layout.groups[g];
        for (std::size_t q = 0; q < group.rows.size(); ++q) {
          place[g * array_rows +
                static_cast<std::size_t>(rows[group.rows[q]]->row)] = q;
        }
        for (std::size_t j = 0; j < group.cols.size(); ++j) {
          const auto col = static_cast<std::size_t>(group.cols[j]->col);
          column_start[col] = offset + j * group.rows.size();
          column_places[col] = g * array_rows;
        }
        offset += static_cast<std::size_t>(group.cells());
      }
      block.resize(cells);
      parallel_chunks(
          noise.has_value() ? nullptr : pool,
          static_cast<Count>(tile.cols.size()), [&](Count begin, Count end) {
            for_each_cell(
                shape, tile, static_cast<std::size_t>(begin),
                static_cast<std::size_t>(end),
                [out = block.data(), start = column_start.data(),
                 group_places = column_places.data(),
                 row_place = place.data(), kernels,
                 ic_count = static_cast<Count>(shape.in_channels),
                 kernel_area, kernel_w = shape.kernel_w,
                 model = noise.has_value() ? &*noise : nullptr](
                    const RowBinding& rb, const ColBinding& cb, Dim ky,
                    Dim kx) {
                  const std::size_t col = static_cast<std::size_t>(cb.col);
                  const std::size_t row = static_cast<std::size_t>(rb.row);
                  const double value =
                      kernels[(cb.oc * ic_count + rb.ic) * kernel_area +
                              static_cast<Count>(ky) * kernel_w + kx];
                  out[start[col] + row_place[group_places[col] + row]] =
                      model != nullptr ? model->apply(value) : value;
                });
          });
    }
    result.programmed_cells =
        checked_add(result.programmed_cells, static_cast<Count>(cells));
    const double util = static_cast<double>(cells) /
                        static_cast<double>(plan.geometry.cell_count());
    min_util = std::min(min_util, util);
    sum_util += util;

    items.clear();
    for (std::size_t g = 0; g < n_groups; ++g) {
      for (std::size_t b0 = 0; b0 < n_base; b0 += kBaseBlock) {
        for (std::size_t j0 = 0; j0 < tile_layout.groups[g].cols.size();
             j0 += kColumnSlice) {
          items.push_back({g, b0, j0});
        }
      }
    }
    // A chunk of work items owns its scratch: the window origins and
    // driven inputs of the (group, base block) it gathered last, and the
    // read-outs of one item.
    double* acc = band_acc[t % bands].data();
    const auto read_out = [&](Count begin, Count end) {
      std::vector<Dim> origin_y(kBaseBlock);
      std::vector<Dim> origin_x(kBaseBlock);
      std::vector<Count> origin(kBaseBlock);  // origin_y * ifm_w + origin_x
      std::vector<double> drive;
      std::vector<double> readout;
      const WorkItem* gathered = nullptr;  // whose inputs `drive` holds
      for (Count it = begin; it < end; ++it) {
        const WorkItem& item = items[static_cast<std::size_t>(it)];
        const auto& group = tile_layout.groups[item.group];
        const ColBinding& first = *group.cols.front();
        const std::size_t k = group.rows.size();
        const std::size_t live = std::min(kBaseBlock, n_base - item.b0);
        if (gathered == nullptr || gathered->group != item.group ||
            gathered->b0 != item.b0) {
          gathered = &item;
          // Where each base's window starts in the input, unpadded, and
          // whether the group's kernel window lies inside the input at
          // every base of the block.
          bool inside = true;
          for (std::size_t i = 0; i < live; ++i) {
            const auto* at = window(item.b0 + i, first.dup);
            origin_y[i] = kIdle;
            origin_x[i] = kIdle;
            if (at != nullptr) {
              origin_y[i] = at->first * shape.stride_h - shape.pad_h;
              origin_x[i] = at->second * shape.stride_w - shape.pad_w;
            }
            origin[i] =
                static_cast<Count>(origin_y[i]) * shape.ifm_w + origin_x[i];
            const Dim y = origin_y[i] + first.win_py * shape.stride_h;
            const Dim x = origin_x[i] + first.win_px * shape.stride_w;
            inside = inside && y >= 0 && y + shape.kernel_h <= shape.ifm_h &&
                     x >= 0 && x + shape.kernel_w <= shape.ifm_w;
          }
          // The value each row is driven with at each base: zero for an
          // idle duplicate and for the zero padding around the input.
          drive.resize(k * live);
          for (std::size_t q = 0; q < k; ++q) {
            const RowBinding& rb = *rows[group.rows[q]];
            double* to = drive.data() + q * live;
            if (inside) {
              // The row's (ic, dy, dx) as an input offset.
              const Count offset = rb.ic * plane +
                                   static_cast<Count>(rb.dy) * shape.ifm_w +
                                   rb.dx;
              for (std::size_t i = 0; i < live; ++i) {
                to[i] = in[offset + origin[i]];
              }
              continue;
            }
            const double* channel = in + rb.ic * plane;
            for (std::size_t i = 0; i < live; ++i) {
              const Dim y = origin_y[i] + rb.dy;
              const Dim x = origin_x[i] + rb.dx;
              to[i] = y >= 0 && y < shape.ifm_h && x >= 0 && x < shape.ifm_w
                          ? channel[static_cast<Count>(y) * shape.ifm_w + x]
                          : 0.0;
            }
          }
        }
        const std::size_t j_end =
            std::min(item.j0 + kColumnSlice, group.cols.size());
        const std::size_t n_cols = j_end - item.j0;
        readout.resize(n_cols * live);
        // The slice's weights: rows oc_first + j0 on of the weight tensor
        // from the group's first im2col row, or its programmed columns.
        const Count lda = in_place ? volume : static_cast<Count>(k);
        const double* weights_at =
            in_place
                ? kernels +
                      (first.oc + static_cast<Count>(item.j0)) * lda +
                      *group.im2col_first
                : block.data() +
                      column_start[static_cast<std::size_t>(first.col)] +
                      item.j0 * k;
        const GemmOperands operands{weights_at,
                                    drive.data(),
                                    readout.data(),
                                    static_cast<Count>(n_cols),
                                    static_cast<Count>(k),
                                    static_cast<Count>(live),
                                    lda};
        kernel.multiply(operands, 0, kernel.units(operands));
        for (std::size_t j = item.j0; j < j_end; ++j) {
          double* sum = acc +
                        static_cast<std::size_t>(group.cols[j]->col) * n_base +
                        item.b0;
          const double* out = readout.data() + (j - item.j0) * live;
          for (std::size_t i = 0; i < live; ++i) {
            sum[i] += options.adc.convert(out[i]);
          }
        }
      }
    };
    parallel_chunks(pool, static_cast<Count>(items.size()), read_out);
    const Count cycles = static_cast<Count>(n_base);
    result.cycles += static_cast<Cycles>(cycles);
    result.activity.accumulate(
        {cycles, cycles * static_cast<Count>(tile.rows.size()),
         cycles * static_cast<Count>(tile.cols.size()),
         cycles * static_cast<Count>(cells)});
  }
  if (!plan.tiles.empty()) {
    result.min_tile_utilization = min_util;
    result.mean_tile_utilization =
        sum_util / static_cast<double>(plan.tiles.size());
  }

  // Commit AC band -> column binding -> base, along the accumulators.
  // Column bindings are identical across the AR tiles of one AC band
  // (derive_layout checks it); commit with the last tile's.  An output
  // computed more than once (an overlapping clamped window) keeps the
  // copy of its latest base, and within one base of its latest band and
  // binding.  Each copy must reproduce the others exactly, except in
  // noisy runs, where each copy of a weight carries its own
  // independently drawn noise.
  result.ofm = Tensord::feature_map(shape.out_channels,
                                    static_cast<Dim>(shape.windows_h()),
                                    static_cast<Dim>(shape.windows_w()));
  VWSDK_ASSERT(n_base <= static_cast<std::size_t>(
                             std::numeric_limits<std::int32_t>::max()),
               cat(n_base, " bases do not fit the commit's base index"));
  // The base each output was last committed from; -1 before the first.
  std::vector<std::int32_t> written(
      static_cast<std::size_t>(result.ofm.size()), -1);
  double* outputs = result.ofm.data().data();
  const Count oh = shape.windows_h();
  const bool noisy = options.noise.enabled();
  for (std::size_t band = 0; band < bands; ++band) {
    for (const ColBinding& cb :
         plan.tiles[plan.tiles.size() - bands + band].cols) {
      const double* sums =
          band_acc[band].data() + static_cast<std::size_t>(cb.col) * n_base;
      for (std::size_t base = 0; base < n_base; ++base) {
        const auto* at = window(base, cb.dup);
        if (at == nullptr) {
          continue;
        }
        const Dim oy = at->first + cb.win_py;
        const Dim ox = at->second + cb.win_px;
        VWSDK_REQUIRE(oy >= 0 && oy < oh && ox >= 0 && ox < ow,
                      cat("column ", cb.col, " produces output (", oy, ", ",
                          ox, ") outside the ", oh, " x ", ow, " output"));
        const std::size_t flat = static_cast<std::size_t>(
            (static_cast<Count>(cb.oc) * oh + oy) * ow + ox);
        double& out = outputs[flat];
        std::int32_t& from = written[flat];
        VWSDK_ASSERT(from < 0 || noisy || out == sums[base],
                     cat("overlapping windows disagree at oc=", cb.oc,
                         " oy=", oy, " ox=", ox, ": ", out, " vs ",
                         sums[base]));
        if (from <= static_cast<std::int32_t>(base)) {
          out = sums[base];
          from = static_cast<std::int32_t>(base);
        }
      }
    }
  }

  // Every output element must have been produced.
  VWSDK_ASSERT(std::ranges::find(written, -1) == written.end(),
               "execution left output elements unwritten");
  VWSDK_ASSERT(result.cycles == plan.cost.total,
               cat("executed ", result.cycles, " cycles, analytic model says ",
                   plan.cost.total));
  return result;
}

}  // namespace vwsdk
