/// Functional verification: prove on the crossbar simulator that a chosen
/// mapping computes the SAME numbers as a software convolution -- cell by
/// cell, cycle by cycle -- then show what quantization and device noise do
/// to the result.
///
///   ./examples/functional_verification
///   ./examples/functional_verification --image 10 --ic 8 --oc 12 --array 96x48 --adc-bits 8 --noise 0.02

#include <iostream>

#include "vwsdk.h"

int main(int argc, char** argv) {
  using namespace vwsdk;
  return run_cli_main([&]() -> int {
    ArgParser args("functional_verification",
                   "execute a mapping on the crossbar simulator and compare "
                   "with the reference convolution");
    add_shape_options(args, 10, 3, 6, 8);
    add_array_option(args, "96x48");
    args.add_int_option("adc-bits", 0, "ADC resolution (0 = ideal)");
    args.add_option("noise", "0", "multiplicative device-variation sigma");
    args.add_int_option("seed", 7, "tensor generator seed");
    if (!args.parse(argc, argv)) {
      return kExitOk;
    }

    const ConvShape shape = shape_from_args(args);
    const ArrayGeometry geometry = array_from_args(args);
    const auto seed =
        static_cast<std::uint64_t>(int_in_range(args, "seed", 0));

    bool all_exact = true;
    for (const char* name : {"im2col", "smd", "sdk", "vw-sdk"}) {
      const MappingDecision decision =
          make_mapper(name)->map(shape, geometry);
      const MappingPlan plan =
          build_plan_for_cost(shape, geometry, decision.cost);
      const VerificationReport report = verify_mapping_random(plan, seed);
      std::cout << decision.to_string() << "\n  " << report.summary
                << "\n\n";
      all_exact = all_exact && report.exact_match && report.cycles_match;
    }

    // Non-ideal execution of the VW-SDK mapping, if requested.
    const double noise_sigma = std::stod(args.get("noise"));
    // Bounded to ConverterModel's [1, 30] (0 = ideal): an out-of-range
    // value must fail, not truncate to 0 and silently skip quantization.
    const auto adc_bits =
        static_cast<int>(int_in_range(args, "adc-bits", 0, 30));
    if (adc_bits > 0 || noise_sigma > 0.0) {
      ExecutionOptions options;
      if (adc_bits > 0) {
        options.adc = ConverterModel(adc_bits, -2048.0, 2048.0);
      }
      options.noise.multiplicative_sigma = noise_sigma;
      options.noise_seed = seed;
      const MappingDecision vw = make_mapper("vw-sdk")->map(shape, geometry);
      const MappingPlan plan = build_plan_for_cost(shape, geometry, vw.cost);
      const VerificationReport report =
          verify_mapping_random(plan, seed, 4, options);
      std::cout << "non-ideal execution (adc-bits=" << adc_bits
                << ", noise=" << noise_sigma << "):\n  " << report.summary
                << "\n";
    }

    if (!all_exact) {
      std::cerr << "VERIFICATION FAILED\n";
      return kExitError;
    }
    std::cout << "all mappings verified bit-exact against the reference "
                 "convolution\n";
    return kExitOk;
  });
}
