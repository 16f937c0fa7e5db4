#pragma once

/// @file plan_builder.h
/// Construction of executable MappingPlans from analytic mapping choices.
///
/// Every mapping places the same unrolled matrix (Fig. 2 of the paper);
/// im2col, SDK and VW-SDK differ only in where it is cut into arrays.
/// One tiling rule therefore builds every plan from its CycleCost, with
/// PW = cost.window (the kernel for im2col and SMD), N_WP its kernel
/// windows (WIP_w x WIP_h) and the channel tiles IC_t, OC_t:
///  * **rows** flatten (ic, dy, dx) over the window, channel-major,
///        flat = ic * PW_w*PW_h + dy * PW_w + dx,
///    and are cut every min(rows, PW_w*PW_h * IC_t): a cut inside a
///    channel is Eq. (1)'s element-granular split, a cut between
///    channels Eq. (4)'s channel tile;
///  * **columns** flatten (oc, wy, wx),
///        flat = oc * N_WP + wy * WIP_w + wx,
///    and are cut every min(cols, N_WP * OC_t), so all windows of one
///    output channel sit on adjacent bitlines (the "shifted and
///    duplicated kernel" group) unless Eq. (1) splits them;
///  * a tile's row and column indices are its flat offsets from the
///    start of its cut, so each tile holds one contiguous range of the
///    flattened rows and one of the flattened columns;
///  * tiles are numbered AR-major: tiles[ar * AC + ac];
///  * **SMD** (Fig. 2(b)): a cost with D = cost.smd_duplicates >= 2 has
///    one im2col tile, built D times block-diagonally: duplicate d
///    occupies rows [d*K^2*IC, ...) and columns [d*OC, ...) with
///    dup = d, and each cycle runs up to D consecutive kernel windows
///    (row-major over the output grid) instead of a base grid.
/// Which cells hold weights follows from the bindings alone; the rule,
/// structural zeros included, lives on holds_cell (mapping_plan.h).

#include "mapping/mapping_plan.h"

namespace vwsdk {

/// Build the plan realizing `cost`, produced by any of the cost
/// functions (im2col_cost, smd_cost, sdk_cost, vw_cost) for `shape` on
/// `geometry`; the plan stores `cost`.  Throws InvalidArgument unless
/// the cost is feasible, its window admissible, its channel tiles
/// non-empty, its tile counts those of the cut above and, for SMD, its
/// duplicates fit the array.
MappingPlan build_plan_for_cost(const ConvShape& shape,
                                const ArrayGeometry& geometry,
                                const CycleCost& cost);

}  // namespace vwsdk
