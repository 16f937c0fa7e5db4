#pragma once

/// @file mapping_plan.h
/// Physical placement of a convolution onto crossbar arrays.
///
/// A MappingPlan makes the analytic cost model *executable*: it spells out,
/// for every AR x AC array programming ("tile"), what each array row means
/// (which input element relative to the parallel-window base) and what
/// each array column produces (which output channel at which window
/// position).  Cells are not stored: which weight sits in which cell
/// follows from the row and column bindings, by the one rule written down
/// in holds_cell, and the rest of a tile's structure is derived once, by
/// derive_layout.  The functional executor (src/sim/executor.h) runs
/// plans on real tensors; the validator (plan_validate.h) checks their
/// structural invariants.
///
/// Coordinate conventions:
///  * window offsets (dy, dx) are in *padded* input pixels relative to the
///    parallel-window base;
///  * window positions (win_py, win_px) are in kernel-window units inside
///    the parallel window (column `win` computes output at base_window +
///    win);
///  * `dup` identifies the SMD duplicate block (always 0 for im2col / SDK /
///    VW-SDK plans).

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "mapping/cost_model.h"
#include "pim/array_geometry.h"

namespace vwsdk {

/// What one array row carries on its wordline.
struct RowBinding {
  Dim row = 0;     ///< array row index
  Dim ic = 0;      ///< absolute input channel
  Dim dy = 0;      ///< vertical offset inside the parallel window
  Dim dx = 0;      ///< horizontal offset inside the parallel window
  Dim dup = 0;     ///< SMD duplicate block (0 otherwise)
};

/// What one array column produces on its bitline.
struct ColBinding {
  Dim col = 0;     ///< array column index
  Dim oc = 0;      ///< absolute output channel
  Dim win_px = 0;  ///< kernel-window x-index inside the parallel window
  Dim win_py = 0;  ///< kernel-window y-index inside the parallel window
  Dim dup = 0;     ///< SMD duplicate block (0 otherwise)

  bool operator==(const ColBinding&) const = default;
};

/// One array programming: the (ar_index, ac_index) tile of the mapping.
struct ArrayTile {
  Dim ar_index = 0;
  Dim ac_index = 0;
  std::vector<RowBinding> rows;
  std::vector<ColBinding> cols;
};

/// "tile(ar,ac)": how plan issues name a tile.
std::string tile_name(const ArrayTile& tile);

/// Whether row `rb` and column `cb` hold a weight.  Row (ic, dy, dx) and
/// column (oc, win_py, win_px) hold W[oc][ic][ky][kx] exactly when both
/// sit in the same SMD duplicate block and
///     dy = win_py * stride_h + ky,   dx = win_px * stride_w + kx
/// with (ky, kx) inside the kernel (the paper's Fig. 2(c)/(d) placement;
/// im2col and SMD columns sit at window (0, 0), so their rows name the
/// kernel element directly).  Row offsets that match no kernel element
/// are the structural zeros.  `ky` and `kx` receive the kernel element
/// either way.
inline bool holds_cell(const ConvShape& shape, const RowBinding& rb,
                       const ColBinding& cb, Dim& ky, Dim& kx) {
  ky = rb.dy - cb.win_py * shape.stride_h;
  kx = rb.dx - cb.win_px * shape.stride_w;
  return rb.dup == cb.dup && ky >= 0 && ky < shape.kernel_h && kx >= 0 &&
         kx < shape.kernel_w;
}

/// Visit the programmed cells of the column bindings [col_begin,
/// col_end) of `tile` (see holds_cell), column binding by column
/// binding, each column's rows in binding order.
/// `fn(row_binding, col_binding, ky, kx)` is called once per cell.  Two
/// disjoint column ranges visit disjoint cells, so they may run on
/// different threads.
template <typename Fn>
void for_each_cell(const ConvShape& shape, const ArrayTile& tile,
                   std::size_t col_begin, std::size_t col_end, Fn&& fn) {
  for (std::size_t c = col_begin; c < col_end; ++c) {
    const ColBinding& cb = tile.cols[c];
    for (const RowBinding& rb : tile.rows) {
      Dim ky = 0;
      Dim kx = 0;
      if (holds_cell(shape, rb, cb, ky, kx)) {
        fn(rb, cb, ky, kx);
      }
    }
  }
}

/// Visit every programmed cell of `tile`: the column range above over
/// all of its columns.  The visit order is the order crossbars are
/// programmed in, and with it the order device noise is drawn in.
template <typename Fn>
void for_each_cell(const ConvShape& shape, const ArrayTile& tile, Fn&& fn) {
  for_each_cell(shape, tile, 0, tile.cols.size(), fn);
}

/// A complete physical mapping of one conv layer onto one array geometry.
struct MappingPlan {
  ConvShape shape{};
  ArrayGeometry geometry{};
  CycleCost cost{};         ///< the analytic cost this plan realizes

  /// Parallel-window base positions in padded input pixels, per axis.
  /// The full base grid is the cross product base_y x base_x.  For SMD the
  /// grid is replaced by chunks of `cost.smd_duplicates` windows.
  std::vector<Dim> base_x;
  std::vector<Dim> base_y;

  /// All AR x AC tiles, ar-major: tile (ar, ac) is tiles[ar * AC + ac].
  std::vector<ArrayTile> tiles;

  /// Whether this is a sub-matrix-duplication plan (Fig. 2(b)): D >= 2
  /// block-diagonal im2col copies, run on chunks of D windows instead of
  /// a base grid.
  bool is_smd() const { return cost.smd_duplicates > 1; }

  /// Total computing cycles this plan executes:
  /// base-grid positions (or SMD chunks) x tiles.
  Cycles total_cycles() const;

  /// Total programmed cells across all tiles: the cells for_each_cell
  /// visits, counted from the derived layout.
  Count programmed_cells() const;
};

/// The columns of one tile that share an SMD duplicate and a window
/// position, and so hold cells in the same rows (holds_cell).
struct ColumnGroup {
  std::vector<const ColBinding*> cols;  ///< binding order
  std::vector<std::size_t> rows;  ///< into TileLayout::rows, ascending
  /// The im2col row, (ic * kernel_h + ky) * kernel_w + kx, of the
  /// group's first row, when its rows hold consecutive im2col rows in
  /// ascending order and its columns bind consecutive output channels;
  /// none otherwise.  Then column j's weights, over the group's rows,
  /// are the weight tensor's row cols[0]->oc + j from this element on.
  std::optional<Count> im2col_first;

  /// Its cells: cols x rows.
  Count cells() const {
    return static_cast<Count>(cols.size()) * static_cast<Count>(rows.size());
  }
};

/// One tile's structure, derived from its bindings.
struct TileLayout {
  std::vector<const RowBinding*> rows;  ///< sorted by array row
  std::vector<ColumnGroup> groups;      ///< in order of their first column
};

/// Every tile's layout, tiles[i] for plan.tiles[i], and one message per
/// binding that breaks it (see plan_validate.h); a binding outside the
/// layer is left out of the layout.
struct PlanLayout {
  std::vector<TileLayout> tiles;
  std::vector<std::string> issues;
};

/// Derives `plan`'s layout, once for the validator, the executor and
/// programmed_cells().  The result points into `plan`.
PlanLayout derive_layout(const MappingPlan& plan);

}  // namespace vwsdk
