#pragma once

/// @file cost_model.h
/// The paper's computing-cycle cost model, Eqs. (1)-(8).
///
/// Three mapping families are costed:
///
///  * **im2col** (Eq. (1) with N_WP = 1): one kernel-sized window per
///    cycle.  The flattened kernel column may be split across arrays at
///    arbitrary *element* granularity, so
///        AR = ceil(K_w*K_h*IC / rows),  AC = ceil(OC / cols),
///        cycles = N_windows * AR * AC.
///    (Element granularity is load-bearing: ResNet-18 conv5 has AR = 9,
///    not 10, and only then does the published total 7240/20041 follow.)
///
///  * **SDK** (Eq. (1), entire channels): a square parallel window whose
///    *whole-channel* unrolled input may again be row-split:
///        AR = ceil(PW_w*PW_h*IC / rows),  AC = ceil(OC*N_WP / cols).
///
///  * **VW-SDK** (Eqs. (4)-(8), partial channels): the window is mapped
///    with a *channel tile* IC_t = floor(rows / PW-area) so that one array
///    holds whole channels of the window (input reuse requires them
///    together), and OC_t = floor(cols / N_WP):
///        AR = ceil(IC / IC_t),  AC = ceil(OC / OC_t),
///        cycles = N_PW * AR * AC.
///
///  * **SMD** (sub-matrix duplication, ref [6], Fig. 2(b)): D copies of
///    the im2col matrix placed block-diagonally compute D independent
///    windows per cycle: D = min(floor(rows/K²IC), floor(cols/OC)),
///    cycles = ceil(N_windows / D) * AR * AC (AR/AC as im2col; D >= 2
///    implies AR = AC = 1 by construction).

#include <string>

#include "common/types.h"
#include "mapping/conv_shape.h"
#include "mapping/parallel_window.h"
#include "pim/array_geometry.h"

namespace vwsdk {

/// How a mapping splits kernel rows across AR cycles.
enum class RowSplit {
  kElementGranular,  ///< im2col/SMD: flattened column cut anywhere
  kChannelGranular   ///< SDK/VW-SDK tiles: whole channels per array
};

/// Full breakdown of one mapping's cycle cost.
struct CycleCost {
  bool feasible = false;          ///< false if the window cannot be mapped
  ParallelWindow window{};        ///< the parallel window (kernel for im2col)
  RowSplit split = RowSplit::kChannelGranular;
  Dim ic_t = 0;                   ///< tiled input channels (clamped to IC)
  Dim oc_t = 0;                   ///< tiled output channels (clamped to OC)
  Count n_parallel_windows = 0;   ///< N_PW (or window chunks for SMD)
  Cycles ar_cycles = 0;           ///< array-row cycles
  Cycles ac_cycles = 0;           ///< array-column cycles
  Cycles total = 0;               ///< N_PW * AR * AC
  Dim smd_duplicates = 1;         ///< D (SMD only; 1 otherwise)

  /// "pw=4x3 ict=42 oct=256 npw=72 ar=7 ac=1 cycles=504"
  std::string to_string() const;

  bool operator==(const CycleCost&) const = default;
};

/// Tiled input channels for a window (Eq. (4)), clamped to IC.
/// Returns 0 if even one channel of the window exceeds the rows
/// (infeasible window).
Dim tiled_ic(const ConvShape& shape, const ArrayGeometry& geometry,
             const ParallelWindow& pw);

/// Tiled output channels (Eq. (6)), clamped to OC.  Returns 0 if even one
/// output channel's duplicated kernels exceed the columns.
Dim tiled_oc(const ConvShape& shape, const ArrayGeometry& geometry,
             const ParallelWindow& pw);

/// im2col cost (Eq. (1), N_WP = 1, element-granular rows).
CycleCost im2col_cost(const ConvShape& shape, const ArrayGeometry& geometry);

/// SDK cost for a given square-or-not window with entire channels
/// (Eq. (1)).  The window must be admissible.
CycleCost sdk_cost(const ConvShape& shape, const ArrayGeometry& geometry,
                   const ParallelWindow& pw);

/// VW-SDK cost for a given window with channel tiling (Eq. (8)).
/// Infeasible windows (IC_t or OC_t = 0, or inadmissible) yield
/// feasible = false and total = max.
CycleCost vw_cost(const ConvShape& shape, const ArrayGeometry& geometry,
                  const ParallelWindow& pw);

/// Sub-matrix duplication cost (ref [6]).
CycleCost smd_cost(const ConvShape& shape, const ArrayGeometry& geometry);

}  // namespace vwsdk
