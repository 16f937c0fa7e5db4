#include "mapping/activity.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/im2col_mapper.h"
#include "core/vwsdk_mapper.h"

namespace vwsdk {
namespace {

const ArrayGeometry k512x512{512, 512};

EnergyReport activity_of(const MappingDecision& decision) {
  return analytic_activity(decision.shape, decision.geometry, decision.cost);
}

TEST(Activity, FewerCyclesMeansLessEnergyAndLatency) {
  // The paper's core energy argument: VW-SDK's cycle reduction shows up
  // directly in conversion energy (full-array accounting: all converters
  // fire every cycle) and in latency.
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const EnergyParams params;
  const EnergyReport im2col = activity_of(Im2colMapper().map(conv5, k512x512));
  const EnergyReport vw = activity_of(VwSdkMapper().map(conv5, k512x512));
  const auto full_array_pj = [&](const EnergyReport& report) {
    return report.full_array_energy_pj(params, k512x512.rows, k512x512.cols);
  };
  EXPECT_LT(vw.cycles, im2col.cycles);
  EXPECT_LT(vw.latency_ns(params), im2col.latency_ns(params));
  EXPECT_LT(full_array_pj(vw), full_array_pj(im2col));
  // Full-array energy is proportional to cycles up to the (small) cell
  // term, so the ratios track each other.
  EXPECT_NEAR(full_array_pj(im2col) / full_array_pj(vw),
              static_cast<double>(im2col.cycles) /
                  static_cast<double>(vw.cycles),
              0.15);
}

TEST(Activity, ActiveAccountingNuancePinned) {
  // Under per-active-column accounting the picture is subtler: VW-SDK's
  // channel-granular AR on conv5 is 4 vs im2col's element-granular 3, so
  // each output needs more partial-sum conversions and VW-SDK's *active*
  // conversion energy exceeds im2col's despite 1.5x fewer cycles.  This
  // is a genuine finding of the detailed model (see bench_energy), pinned
  // here so it does not silently change.
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const EnergyParams params;
  const EnergyReport im2col = activity_of(Im2colMapper().map(conv5, k512x512));
  const EnergyReport vw = activity_of(VwSdkMapper().map(conv5, k512x512));
  EXPECT_GT(vw.energy_pj(params), im2col.energy_pj(params));
}

TEST(Activity, ConversionsDominateWithDefaults) {
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const EnergyReport vw = activity_of(VwSdkMapper().map(conv5, k512x512));
  EXPECT_GT(vw.conversion_fraction(EnergyParams{}), 0.80);
}

TEST(Activity, RequiresFeasibleCost) {
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const CycleCost bad = vw_cost(conv5, k512x512, {30, 30});
  EXPECT_THROW(analytic_activity(conv5, k512x512, bad), InvalidArgument);
}

// Input reuse (the paper's §I motivation for SDK-style mappings): every
// computing cycle drives each bound row with one fetched input element,
// so the analytic row activations are the layer's input-fetch traffic.
Count input_fetches(const MappingDecision& decision) {
  return activity_of(decision).row_activations;
}

TEST(Reuse, Im2colFetchesEachInteriorElementKernelAreaTimes) {
  // Large IFM, small kernel, everything fits: each of the ~I^2 elements is
  // covered by ~K^2 windows, and each window fetch drives its rows once.
  const ConvShape shape = ConvShape::square(64, 3, 4, 8);
  const MappingDecision decision = Im2colMapper().map(shape, k512x512);
  // 62^2 windows x 9*4 rows / (4 * 64^2 elements) = ~8.4.
  EXPECT_NEAR(static_cast<double>(input_fetches(decision)) / (4.0 * 64 * 64),
              8.4, 0.1);
}

TEST(Reuse, ParallelWindowsReduceFetches) {
  // The §I claim: SDK-style mappings reuse inputs across the duplicated
  // kernels.  VW-SDK must fetch less than im2col on every paper layer
  // where it forms a window.
  const VwSdkMapper vw;
  const Im2colMapper im2col;
  for (const ConvShape& shape :
       {ConvShape::square(224, 3, 3, 64), ConvShape::square(56, 3, 128, 256),
        ConvShape::square(14, 3, 256, 256)}) {
    const MappingDecision base = im2col.map(shape, k512x512);
    const MappingDecision cand = vw.map(shape, k512x512);
    ASSERT_FALSE(cand.is_im2col_fallback()) << shape.to_string();
    EXPECT_LT(input_fetches(cand), input_fetches(base)) << shape.to_string();
  }
}

TEST(Reuse, FallbackLayersFetchEqually) {
  const ConvShape conv5 = ConvShape::square(7, 3, 512, 512);
  const MappingDecision base = Im2colMapper().map(conv5, k512x512);
  const MappingDecision cand = VwSdkMapper().map(conv5, k512x512);
  EXPECT_GT(input_fetches(cand), 0);
  EXPECT_EQ(input_fetches(cand), input_fetches(base));
}

}  // namespace
}  // namespace vwsdk
