#pragma once

/// @file activity.h
/// Analytic conversion/MAC activity of a mapping -- the bridge from a
/// CycleCost (the paper's metric) to the EnergyReport the pim/ energy
/// model prices, without running the functional simulator.
///
/// Lives in mapping/ (not sim/) so that search objectives can score
/// candidate windows by energy during the scan.  A layer's latency is
/// its cycles times the cycle time (EnergyReport::latency_ns).

#include "mapping/conv_shape.h"
#include "mapping/cost_model.h"
#include "pim/array_geometry.h"
#include "pim/energy_model.h"

namespace vwsdk {

/// Analytic per-execution activity of a mapping: for every scheduled cycle
/// it accumulates the bound rows, bound columns, and programmed cells of
/// the tile being computed.  Matches ExecutionResult::activity exactly
/// (tested), but costs O(tiles) instead of O(MACs).
EnergyReport analytic_activity(const ConvShape& shape,
                               const ArrayGeometry& geometry,
                               const CycleCost& cost);

}  // namespace vwsdk
