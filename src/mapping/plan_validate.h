#pragma once

/// @file plan_validate.h
/// Structural invariant checking for MappingPlans.
///
/// Plans store bindings, not cells (see for_each_cell), so every check is
/// on the bindings.  A valid plan satisfies, per tile:
///  * all rows/columns lie inside the array geometry;
///  * row / column binding indices are unique (no two weights share a
///    device: a cell collision needs a repeated row or column index);
///  * every row binds an input entity (ic, dy, dx) with (dy, dx) inside
///    the plan's window (the kernel window for im2col and SMD plans), and
///    every column an output entity (oc, win_py, win_px) with the window
///    position inside the parallel window; SMD duplicate indices lie in
///    [0, D);
///  * every AR tile binds the same columns, in the same order, as the
///    first tile of its AC band (the executor sums a band's tiles per
///    array column);
///  * no entity is bound twice within one SMD duplicate block;
/// and globally:
///  * each input entity is bound in every tile of exactly one AR band,
///    once per SMD duplicate, and each output entity likewise in exactly
///    one AC band;
///  * the parallel-window base grid covers every kernel window of the
///    layer at least once;
///  * the realized cycle count equals the analytic cost.
/// The first four are checked by derive_layout (mapping_plan.h), whose
/// issues the validator reports; the rest on the layout it derives.
/// Which cell holds which weight, the kernel range and the channel match
/// are holds_cell's own definition, so they hold by construction.

#include <string>
#include <vector>

#include "mapping/mapping_plan.h"

namespace vwsdk {

/// Run all checks; returns a list of human-readable violations (empty if
/// the plan is valid).
std::vector<std::string> validate_plan(const MappingPlan& plan);

/// Throws InternalError listing all violations if the plan is invalid.
void expect_valid(const MappingPlan& plan);

/// expect_valid on `layout`, already derived from `plan` by derive_layout.
void expect_valid(const MappingPlan& plan, const PlanLayout& layout);

}  // namespace vwsdk
