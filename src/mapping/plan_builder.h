#pragma once

/// @file plan_builder.h
/// Construction of executable MappingPlans from analytic mapping choices.
///
/// Builders emit row and column bindings only.  Layout conventions
/// (documented here once, asserted by plan_validate, relied on by the
/// executor):
///
/// **Windowed plans** (SDK and VW-SDK; Fig. 2(c)/(d) of the paper).
/// For AR tile `i` (channels [i*IC_t, ...)) and AC tile `j` (output
/// channels [j*OC_t, ...)):
///  * row for (local channel c, window offset dy, dx):
///        row = c * PW_w*PW_h + dy * PW_w + dx
///  * column for (local output channel o, window index wy, wx):
///        col = o * N_WP + wy * WIP_w + wx
///    (all windows of one output channel sit on adjacent bitlines, the
///    "shifted and duplicated kernel" group);
///  * which cells hold weights follows from these bindings alone; the
///    rule, structural zeros included, lives on holds_cell
///    (mapping_plan.h), which for_each_cell applies.
///
/// **im2col plans** (Fig. 2(a)).  The kernel column is flattened in
/// im2col_row_index order (ic-major, then ky, kx) and split across AR
/// tiles at *element* granularity: AR tile i holds flat indices
/// [i*rows, (i+1)*rows).  Column j*cols + o computes output channel
/// j*cols + o.  PW = kernel, one window per cycle.
///
/// **SMD plans** (Fig. 2(b)).  D = cost.smd_duplicates block-diagonal
/// copies of the im2col matrix; duplicate d occupies rows
/// [d*K^2*IC, ...) and columns [d*OC, ...).  Each cycle processes up to D
/// consecutive kernel windows (row-major over the output grid).
/// Requires D*K^2*IC <= rows (guaranteed by smd_cost for D >= 2;
/// for D == 1 the im2col plan is returned instead).

#include "mapping/mapping_plan.h"

namespace vwsdk {

/// Build a windowed (SDK / VW-SDK style) plan realizing `cost`, which must
/// be feasible, channel-granular, and produced by vw_cost (or equivalent
/// tiling).  Throws InvalidArgument otherwise.
MappingPlan build_windowed_plan(const ConvShape& shape,
                                const ArrayGeometry& geometry,
                                const CycleCost& cost);

/// Build an element-split windowed plan realizing an SDK-style cost from
/// sdk_cost(): the window's (channel, dy, dx) input rows are flattened
/// channel-major and cut every `rows` elements (a slice may start
/// mid-channel); the (oc, window) columns are flattened oc-major and cut
/// every `cols`.  This is how Eq. (1)'s AR = ceil(PW²·IC/rows) and
/// AC = ceil(OC·N_WP/cols) are physically realizable.
MappingPlan build_element_split_plan(const ConvShape& shape,
                                     const ArrayGeometry& geometry,
                                     const CycleCost& cost);

/// Build the dense im2col plan for `shape` on `geometry`.
MappingPlan build_im2col_plan(const ConvShape& shape,
                              const ArrayGeometry& geometry);

/// Build the sub-matrix-duplication plan (falls back to the im2col plan
/// when only one duplicate fits).
MappingPlan build_smd_plan(const ConvShape& shape,
                           const ArrayGeometry& geometry);

/// Dispatch on a CycleCost produced by any of the cost functions:
/// SMD costs build SMD plans, element-granular costs build im2col plans,
/// channel-granular costs build windowed plans.  The rebuilt plan's cost
/// must equal `cost` (asserted).
MappingPlan build_plan_for_cost(const ConvShape& shape,
                                const ArrayGeometry& geometry,
                                const CycleCost& cost);

}  // namespace vwsdk
