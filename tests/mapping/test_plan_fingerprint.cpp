/// Differential fingerprint of build_plan_for_cost.  An FNV-1a 64-bit hash
/// is folded over every plan the builder returns for a fixed input set:
/// the stored CycleCost (every field), the base grid, and each tile's
/// indices and every field of every row and column binding, in order.
/// The constants below pin the plans bit for bit, so any change to what
/// the builder emits -- a binding moved, a tile renumbered, a base
/// shifted, a cost field rewritten -- fails here even when the executed
/// results still agree.

#include <gtest/gtest.h>

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/grouped_conv.h"
#include "core/mapper_registry.h"
#include "mapping/plan_builder.h"
#include "nn/model_zoo.h"

namespace vwsdk {
namespace {

class Fingerprint {
 public:
  /// Folds the value's bytes, least significant first.
  void add(std::integral auto value) {
    const auto bits = static_cast<std::uint64_t>(value);
    for (std::size_t byte = 0; byte < sizeof(value); ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }

  void add(const CycleCost& cost) {
    add(cost.feasible);
    add(cost.window.w);
    add(cost.window.h);
    add(static_cast<int>(cost.split));
    add(cost.ic_t);
    add(cost.oc_t);
    add(cost.n_parallel_windows);
    add(cost.ar_cycles);
    add(cost.ac_cycles);
    add(cost.total);
    add(cost.smd_duplicates);
  }

  void add(const std::vector<Dim>& values) {
    add(values.size());
    for (const Dim value : values) {
      add(value);
    }
  }

  void add(const MappingPlan& plan) {
    add(plan.cost);
    add(plan.base_x);
    add(plan.base_y);
    add(plan.tiles.size());
    for (const ArrayTile& tile : plan.tiles) {
      add(tile.ar_index);
      add(tile.ac_index);
      add(tile.rows.size());
      for (const RowBinding& rb : tile.rows) {
        add(rb.row);
        add(rb.ic);
        add(rb.dy);
        add(rb.dx);
        add(rb.dup);
      }
      add(tile.cols.size());
      for (const ColBinding& cb : tile.cols) {
        add(cb.col);
        add(cb.oc);
        add(cb.win_px);
        add(cb.win_py);
        add(cb.dup);
      }
    }
    ++plans_;
  }

  std::uint64_t hash() const { return hash_; }
  int plans() const { return plans_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
  int plans_ = 0;
};

struct ZooCase {
  ArrayGeometry geometry;
  int plans;
  std::uint64_t hash;
};

/// Every zoo layer's group shape x every mapper, one hash per geometry.
TEST(PlanFingerprint, ZooLayersTimesMappers) {
  const ZooCase cases[] = {
      {{512, 512}, 280, 5657217109801446239ULL},
      {{256, 256}, 280, 4023457699861012330ULL},
      {{128, 128}, 280, 4178022530497278073ULL},
      {{64, 64}, 280, 14693555934101750497ULL},
  };
  const MapperRegistry& registry = MapperRegistry::instance();
  ASSERT_EQ(registry.names().size(), 7u);
  for (const ZooCase& c : cases) {
    Fingerprint fp;
    for (const std::string& net : model_names()) {
      const Network network = model_by_name(net);
      for (const ConvLayerDesc& layer : network.layers()) {
        GroupedConvShape grouped;
        grouped.base = ConvShape::from_layer(layer);
        grouped.groups = layer.groups;
        const ConvShape shape = grouped.group_shape();
        for (const std::string& name : registry.names()) {
          const CycleCost cost =
              registry.create(name)->map(shape, c.geometry).cost;
          fp.add(build_plan_for_cost(shape, c.geometry, cost));
        }
      }
    }
    EXPECT_EQ(fp.plans(), c.plans) << c.geometry.to_string();
    EXPECT_EQ(fp.hash(), c.hash) << c.geometry.to_string();
  }
}

/// Seeded small shapes (strides and padding included) on small arrays,
/// under every cost function: im2col, SMD, and the VW-SDK and SDK costs
/// of every window Algorithm 1 visits.  One hash per cost family.
TEST(PlanFingerprint, SmallShapesTimesCostFunctions) {
  Fingerprint im2col;
  Fingerprint smd;
  Fingerprint vw;
  Fingerprint sdk;
  Rng rng(0x9E3779B9ULL);
  for (int i = 0; i < 120; ++i) {
    ConvShape shape;
    shape.kernel_w = static_cast<Dim>(rng.uniform_int(1, 4));
    shape.kernel_h = static_cast<Dim>(rng.uniform_int(1, 4));
    shape.stride_w = static_cast<Dim>(rng.uniform_int(1, 2));
    shape.stride_h = static_cast<Dim>(rng.uniform_int(1, 2));
    shape.pad_w = static_cast<Dim>(rng.uniform_int(0, 1));
    shape.pad_h = static_cast<Dim>(rng.uniform_int(0, 1));
    shape.ifm_w = static_cast<Dim>(rng.uniform_int(shape.kernel_w, 10));
    shape.ifm_h = static_cast<Dim>(rng.uniform_int(shape.kernel_h, 10));
    shape.in_channels = static_cast<Dim>(rng.uniform_int(1, 9));
    shape.out_channels = static_cast<Dim>(rng.uniform_int(1, 12));
    const ArrayGeometry geometry{static_cast<Dim>(rng.uniform_int(16, 96)),
                                 static_cast<Dim>(rng.uniform_int(8, 48))};
    shape.validate();
    im2col.add(build_plan_for_cost(shape, geometry,
                                   im2col_cost(shape, geometry)));
    smd.add(build_plan_for_cost(shape, geometry, smd_cost(shape, geometry)));
    for (const ParallelWindow& pw : enumerate_windows(shape, true)) {
      const CycleCost vw_c = vw_cost(shape, geometry, pw);
      if (vw_c.feasible) {
        vw.add(build_plan_for_cost(shape, geometry, vw_c));
      }
      sdk.add(build_plan_for_cost(shape, geometry,
                                  sdk_cost(shape, geometry, pw)));
    }
  }
  EXPECT_EQ(im2col.plans(), 120);
  EXPECT_EQ(im2col.hash(), 4896647120662539916ULL);
  EXPECT_EQ(smd.plans(), 120);
  EXPECT_EQ(smd.hash(), 3596736507621465970ULL);
  EXPECT_EQ(vw.plans(), 1915);
  EXPECT_EQ(vw.hash(), 8251884050359387849ULL);
  EXPECT_EQ(sdk.plans(), 2364);
  EXPECT_EQ(sdk.hash(), 10349255126221802542ULL);
}

}  // namespace
}  // namespace vwsdk
