#include "sim/verifier.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "mapping/plan_builder.h"
#include "tensor/tensor_ops.h"
#include "support/support.h"

namespace vwsdk {
namespace {

const ArrayGeometry kSmall{64, 32};

TEST(Verifier, ReportsExactMatchForIdealExecution) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan = build_plan_for_window(shape, kSmall, {4, 3});
  const VerificationReport report = verify_mapping_random(plan, 42);
  EXPECT_TRUE(report.exact_match);
  EXPECT_EQ(report.max_abs_error, 0.0);
  EXPECT_TRUE(report.cycles_match);
  EXPECT_GT(report.programmed_cells, 0);
  EXPECT_NE(report.summary.find("EXACT match"), std::string::npos);
}

TEST(Verifier, DeterministicForSeed) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan = build_plan_for_window(shape, kSmall, {4, 3});
  const VerificationReport a = verify_mapping_random(plan, 7);
  const VerificationReport b = verify_mapping_random(plan, 7);
  EXPECT_EQ(a.summary, b.summary);
}

TEST(Verifier, QuantizedAdcReportsBoundedError) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan = build_plan_for_window(shape, kSmall, {4, 3});
  ExecutionOptions options;
  options.adc = ConverterModel(8, -512.0, 512.0);
  const VerificationReport report = verify_mapping_random(plan, 42, 4,
                                                          options);
  // Quantization error is bounded by steps * AR accumulations.
  EXPECT_FALSE(report.exact_match);
  EXPECT_GT(report.max_abs_error, 0.0);
  EXPECT_LE(report.max_abs_error, 4 * 4.0 * plan.cost.ar_cycles);
  EXPECT_TRUE(report.cycles_match);
}

TEST(Verifier, ExplicitTensorsOverload) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, im2col_cost(shape, kSmall));
  Rng rng(5);
  Tensord ifm = Tensord::feature_map(2, 6, 6);
  Tensord weights = Tensord::weights(3, 2, 3, 3);
  fill_random_int(ifm, rng, 2);
  fill_random_int(weights, rng, 2);
  const VerificationReport report = verify_mapping(plan, ifm, weights);
  EXPECT_TRUE(report.exact_match);
  EXPECT_EQ(report.analytic_cycles, plan.cost.total);
}

// The reference backend is selectable; on integer tensors the scalar
// oracle and the gemm engine must yield identical reports.
TEST(Verifier, BackendSelectionAgreesAcrossBackends) {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  const MappingPlan plan = build_plan_for_window(shape, kSmall, {4, 3});
  ExecutionOptions scalar_opts;
  scalar_opts.ref_backend = "scalar";
  ExecutionOptions gemm_opts;
  gemm_opts.ref_backend = "gemm";
  const VerificationReport via_scalar =
      verify_mapping_random(plan, 42, 4, scalar_opts);
  const VerificationReport via_gemm =
      verify_mapping_random(plan, 42, 4, gemm_opts);
  EXPECT_TRUE(via_scalar.exact_match);
  EXPECT_TRUE(via_gemm.exact_match);
  EXPECT_EQ(via_scalar.summary, via_gemm.summary);
}

TEST(Verifier, UnknownBackendThrowsNotFound) {
  const ConvShape shape = ConvShape::square(6, 3, 2, 3);
  const MappingPlan plan =
      build_plan_for_cost(shape, kSmall, im2col_cost(shape, kSmall));
  ExecutionOptions options;
  options.ref_backend = "no-such-backend";
  EXPECT_THROW(verify_mapping_random(plan, 1, 1, options), NotFound);
}

}  // namespace
}  // namespace vwsdk
