#include "mapping/mapping_plan.h"

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

const ArrayTile& MappingPlan::tile(Dim ar, Dim ac) const {
  VWSDK_REQUIRE(ar >= 0 && ar < cost.ar_cycles && ac >= 0 &&
                    ac < cost.ac_cycles,
                cat("tile (", ar, ", ", ac, ") out of range ",
                    cost.ar_cycles, "x", cost.ac_cycles));
  const std::size_t index = static_cast<std::size_t>(ar) *
                                static_cast<std::size_t>(cost.ac_cycles) +
                            static_cast<std::size_t>(ac);
  VWSDK_ASSERT(index < tiles.size(), "tile list inconsistent with cost");
  return tiles[index];
}

Cycles MappingPlan::total_cycles() const {
  const Count grid = (kind == PlanKind::kSmd)
                         ? ceil_div(shape.num_windows(), cost.smd_duplicates)
                         : checked_mul(static_cast<Count>(base_x.size()),
                                       static_cast<Count>(base_y.size()));
  return checked_mul(grid, static_cast<Count>(tiles.size()));
}

Count MappingPlan::programmed_cells() const {
  Count total = 0;
  for (const ArrayTile& t : tiles) {
    for_each_cell(shape, t, [&total](const RowBinding&, const ColBinding&,
                                     Dim, Dim) { ++total; });
  }
  return total;
}

}  // namespace vwsdk
