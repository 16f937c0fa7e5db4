#include "sim/latency_model.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/im2col_mapper.h"
#include "core/vwsdk_mapper.h"

namespace vwsdk {
namespace {

const ArrayGeometry k512x512{512, 512};

TEST(LatencyModel, FewerCyclesMeansLessEnergyAndLatency) {
  // The paper's core energy argument: VW-SDK's cycle reduction shows up
  // directly in conversion energy (full-array accounting: all converters
  // fire every cycle) and in latency.
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const EnergyParams params;
  const LatencyEstimate im2col =
      estimate_layer(Im2colMapper().map(conv5, k512x512), params);
  const LatencyEstimate vw =
      estimate_layer(VwSdkMapper().map(conv5, k512x512), params);
  EXPECT_LT(vw.cycles, im2col.cycles);
  EXPECT_LT(vw.latency_ns, im2col.latency_ns);
  EXPECT_LT(vw.energy_full_array_pj, im2col.energy_full_array_pj);
  // Full-array energy is proportional to cycles up to the (small) cell
  // term, so the ratios track each other.
  EXPECT_NEAR(im2col.energy_full_array_pj / vw.energy_full_array_pj,
              static_cast<double>(im2col.cycles) /
                  static_cast<double>(vw.cycles),
              0.15);
}

TEST(LatencyModel, ActiveAccountingNuancePinned) {
  // Under per-active-column accounting the picture is subtler: VW-SDK's
  // channel-granular AR on conv5 is 4 vs im2col's element-granular 3, so
  // each output needs more partial-sum conversions and VW-SDK's *active*
  // conversion energy exceeds im2col's despite 1.5x fewer cycles.  This
  // is a genuine finding of the detailed model (see bench_energy), pinned
  // here so it does not silently change.
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const EnergyParams params;
  const LatencyEstimate im2col =
      estimate_layer(Im2colMapper().map(conv5, k512x512), params);
  const LatencyEstimate vw =
      estimate_layer(VwSdkMapper().map(conv5, k512x512), params);
  EXPECT_GT(vw.energy_pj, im2col.energy_pj);
}

TEST(LatencyModel, ConversionsDominateWithDefaults) {
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const LatencyEstimate estimate =
      estimate_layer(VwSdkMapper().map(conv5, k512x512), EnergyParams{});
  EXPECT_GT(estimate.conversion_fraction, 0.80);
}

TEST(LatencyModel, ParallelArraysShortenLatencyNotEnergy) {
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const EnergyParams params;
  const MappingDecision decision = VwSdkMapper().map(conv5, k512x512);
  const LatencyEstimate serial = estimate_layer(decision, params, 1);
  const LatencyEstimate parallel = estimate_layer(decision, params, 4);
  EXPECT_LT(parallel.latency_ns, serial.latency_ns);
  EXPECT_DOUBLE_EQ(parallel.energy_pj, serial.energy_pj);
  // conv5's VW mapping has AR*AC = 4 tiles: latency / 4.
  EXPECT_DOUBLE_EQ(parallel.latency_ns, serial.latency_ns / 4.0);
}

TEST(LatencyModel, ParallelismCappedByTiles) {
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const MappingDecision decision = VwSdkMapper().map(conv5, k512x512);
  const LatencyEstimate p4 = estimate_layer(decision, EnergyParams{}, 4);
  const LatencyEstimate p64 = estimate_layer(decision, EnergyParams{}, 64);
  EXPECT_DOUBLE_EQ(p4.latency_ns, p64.latency_ns);  // only 4 tiles exist
  EXPECT_THROW(estimate_layer(decision, EnergyParams{}, 0), InvalidArgument);
}

TEST(LatencyModel, AnalyticActivityRequiresFeasible) {
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const CycleCost bad = vw_cost(conv5, k512x512, {30, 30});
  EXPECT_THROW(analytic_activity(conv5, k512x512, bad), InvalidArgument);
}

TEST(LatencyModel, ToStringSummarizes) {
  const ConvShape conv5 = ConvShape::square(56, 3, 128, 256);
  const LatencyEstimate estimate =
      estimate_layer(VwSdkMapper().map(conv5, k512x512), EnergyParams{});
  const std::string text = estimate.to_string();
  EXPECT_NE(text.find("cycles=5832"), std::string::npos);
  EXPECT_NE(text.find("pJ"), std::string::npos);
}

// Input reuse (the paper's §I motivation for SDK-style mappings): every
// computing cycle drives each bound row with one fetched input element,
// so the analytic row activations are the layer's input-fetch traffic.
Count input_fetches(const MappingDecision& decision) {
  return analytic_activity(decision.shape, decision.geometry, decision.cost)
      .row_activations;
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
