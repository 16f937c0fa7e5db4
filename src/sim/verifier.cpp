#include "sim/verifier.h"

#include "common/string_util.h"
#include "core/grouped_conv.h"
#include "mapping/plan_builder.h"
#include "tensor/conv_ref.h"
#include "tensor/gemm_backend.h"
#include "tensor/tensor_ops.h"

namespace vwsdk {

Tensord reference_convolution(const MappingPlan& plan, const Tensord& ifm,
                              const Tensord& weights,
                              const ExecutionOptions& options) {
  ConvConfig config;
  config.stride_w = plan.shape.stride_w;
  config.stride_h = plan.shape.stride_h;
  config.pad_w = plan.shape.pad_w;
  config.pad_h = plan.shape.pad_h;
  if (resolve_ref_backend(options.ref_backend) == "scalar") {
    return conv2d_direct(ifm, weights, config);
  }
  return conv2d_gemm(ifm, weights, config, options.pool);
}

VerificationReport verify_execution(const MappingPlan& plan,
                                    const ExecutionResult& executed,
                                    const Tensord& reference) {
  VerificationReport report;
  report.executed_cycles = executed.cycles;
  report.analytic_cycles = plan.cost.total;
  report.cycles_match = report.executed_cycles == report.analytic_cycles;
  report.programmed_cells = executed.programmed_cells;
  report.max_abs_error = max_abs_diff(executed.ofm, reference);
  report.exact_match = exactly_equal(executed.ofm, reference);
  report.summary =
      cat("mapping ", plan.cost.to_string(), ": ",
          report.exact_match ? "EXACT match" : "mismatch",
          " (max_abs_err=", report.max_abs_error, "), cycles ",
          report.executed_cycles, "/", report.analytic_cycles,
          report.cycles_match ? " (match)" : " (MISMATCH)");
  return report;
}

VerificationReport verify_mapping(const MappingPlan& plan, const Tensord& ifm,
                                  const Tensord& weights,
                                  const ExecutionOptions& options) {
  const ExecutionResult executed = execute_plan(plan, ifm, weights, options);
  const Tensord reference =
      reference_convolution(plan, ifm, weights, options);
  return verify_execution(plan, executed, reference);
}

VerificationReport verify_mapping_random(const MappingPlan& plan,
                                         std::uint64_t seed, int magnitude,
                                         const ExecutionOptions& options) {
  Rng rng(seed);
  Tensord ifm = Tensord::feature_map(plan.shape.in_channels,
                                     plan.shape.ifm_h, plan.shape.ifm_w);
  Tensord weights =
      Tensord::weights(plan.shape.out_channels, plan.shape.in_channels,
                       plan.shape.kernel_h, plan.shape.kernel_w);
  fill_random_int(ifm, rng, magnitude);
  fill_random_int(weights, rng, magnitude);
  return verify_mapping(plan, ifm, weights, options);
}

bool NetworkVerifyResult::all_verified() const {
  for (const LayerVerification& layer : layers) {
    if (!layer.report.exact_match || !layer.report.cycles_match) {
      return false;
    }
  }
  return true;
}

NetworkVerifyResult verify_network(const Network& network,
                                   const Mapper& mapper,
                                   const ArrayGeometry& geometry,
                                   std::uint64_t seed,
                                   const ExecutionOptions& options) {
  NetworkVerifyResult result;
  result.network_name = network.name();
  result.algorithm = mapper.name();
  // Resolve once: an unknown backend fails before any layer runs, and
  // the report names the canonical backend whatever selected it.
  result.backend = resolve_ref_backend(options.ref_backend);
  result.geometry = geometry;
  result.seed = seed;
  ExecutionOptions resolved = options;
  resolved.ref_backend = result.backend;

  const std::vector<ConvLayerDesc>& layers = network.layers();
  result.layers.reserve(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const ConvLayerDesc& layer = layers[i];
    layer.validate();
    GroupedConvShape grouped;
    grouped.base = ConvShape::from_layer(layer);
    grouped.groups = layer.groups;
    grouped.validate();
    const ConvShape shape = grouped.group_shape();
    LayerVerification lv;
    lv.layer = layer;
    lv.decision = mapper.map(shape, geometry);
    const MappingPlan plan =
        build_plan_for_cost(shape, geometry, lv.decision.cost);
    lv.report = verify_mapping_random(plan, seed + i, 4, resolved);
    result.layers.push_back(std::move(lv));
  }
  return result;
}

}  // namespace vwsdk
