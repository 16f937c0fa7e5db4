/// End-to-end flows across the whole stack: model zoo -> mapper -> plan ->
/// functional crossbar execution -> verification -> energy accounting.

#include <gtest/gtest.h>

#include "core/network_optimizer.h"
#include "mapping/activity.h"
#include "mapping/plan_builder.h"
#include "mapping/plan_validate.h"
#include "mapping/utilization.h"
#include "nn/model_zoo.h"
#include "sim/verifier.h"

namespace vwsdk {
namespace {

TEST(EndToEnd, LenetOnSmallArrayFullyVerified) {
  // LeNet-5 is small enough to execute functionally layer by layer.
  const Network net = lenet5();
  const ArrayGeometry geometry{160, 64};
  const auto mapper = make_mapper("vw-sdk");
  for (const ConvLayerDesc& layer : net.layers()) {
    const ConvShape shape = ConvShape::from_layer(layer);
    const MappingDecision decision = mapper->map(shape, geometry);
    const MappingPlan plan =
        build_plan_for_cost(shape, geometry, decision.cost);
    expect_valid(plan);
    const VerificationReport report = verify_mapping_random(plan, 2024);
    EXPECT_TRUE(report.exact_match) << layer.name << ": " << report.summary;
    EXPECT_TRUE(report.cycles_match) << layer.name;
  }
}

TEST(EndToEnd, MeasuredUtilizationMatchesAnalyticWeightCells) {
  // The crossbars' programmed-cell fraction, averaged over tiles, must
  // equal Eq. (9) under the cycle-average weight-cell convention.
  const ConvShape shape = ConvShape::square(10, 3, 20, 24);
  const ArrayGeometry geometry{96, 48};
  const MappingDecision decision = make_mapper("vw-sdk")->map(shape, geometry);
  const MappingPlan plan =
      build_plan_for_cost(shape, geometry, decision.cost);
  const double analytic =
      utilization(shape, geometry, decision.cost,
                  UtilizationConvention::kCycleAverageWeightCells);
  const double measured =
      static_cast<double>(plan.programmed_cells()) /
      (static_cast<double>(plan.tiles.size()) *
       static_cast<double>(geometry.cell_count()));
  EXPECT_NEAR(measured, analytic, 1e-12);
}

TEST(EndToEnd, AnalyticEnergyTracksCycleReduction) {
  // Network-level: VW-SDK's energy advantage over im2col approximates its
  // cycle advantage under full-array conversion accounting (conversions
  // dominate and every cycle converts the whole periphery).
  const Network net = resnet18_paper();
  const ArrayGeometry geometry{512, 512};
  const EnergyParams params;
  double im2col_energy = 0.0;
  double vw_energy = 0.0;
  const auto full_array_pj = [&](const char* mapper,
                                  const ConvShape& shape) {
    return analytic_activity(shape, geometry,
                             make_mapper(mapper)->map(shape, geometry).cost)
        .full_array_energy_pj(params, geometry.rows, geometry.cols);
  };
  for (const ConvLayerDesc& layer : net.layers()) {
    const ConvShape shape = ConvShape::from_layer(layer);
    im2col_energy += full_array_pj("im2col", shape);
    vw_energy += full_array_pj("vw-sdk", shape);
  }
  // Cycle ratio is 20041/4294 = 4.67; the cell term dilutes it slightly.
  EXPECT_GT(im2col_energy / vw_energy, 3.0);
}

TEST(EndToEnd, StressMixAllMappersProduceValidPlans) {
  const Network net = stress_mix();
  for (const ArrayGeometry& geometry :
       {ArrayGeometry{128, 128}, ArrayGeometry{512, 256}}) {
    for (const char* mapper_name : {"im2col", "smd", "sdk", "vw-sdk"}) {
      const auto mapper = make_mapper(mapper_name);
      for (const ConvLayerDesc& layer : net.layers()) {
        const ConvShape shape = ConvShape::from_layer(layer);
        const MappingDecision decision = mapper->map(shape, geometry);
        EXPECT_TRUE(decision.cost.feasible)
            << mapper_name << " " << layer.name;
        // Plans stay buildable and valid even for the stress shapes.
        const MappingPlan plan =
            build_plan_for_cost(shape, geometry, decision.cost);
        const auto issues = validate_plan(plan);
        EXPECT_TRUE(issues.empty())
            << mapper_name << " " << layer.name << ": " << issues.front();
      }
    }
  }
}

}  // namespace
}  // namespace vwsdk
