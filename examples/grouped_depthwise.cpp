/// Grouped / depthwise convolution analysis (extension): MobileNet-class
/// networks replace dense 3x3 convs with depthwise 3x3 + pointwise 1x1.
/// Depthwise layers are the paper's §III-A worst case for conventional
/// mappings (one channel per group -> 9 of 512 rows used by im2col), and
/// the regime where variable windows shine brightest.
///
///   ./examples/grouped_depthwise
///   ./examples/grouped_depthwise --array 256x256 --channels 64

#include <iostream>

#include "vwsdk.h"

int main(int argc, char** argv) {
  using namespace vwsdk;
  return run_cli_main([&]() -> int {
    ArgParser args("grouped_depthwise",
                   "depthwise-separable conv blocks on a PIM array");
    add_array_option(args, "512x512");
    args.add_int_option("image", 56, "IFM width/height");
    args.add_int_option("channels", 128, "channels of the block");
    if (!args.parse(argc, argv)) {
      return kExitOk;
    }

    const ArrayGeometry geometry = array_from_args(args);
    const Dim image = dim_in_range(args, "image", 3);
    const Dim channels = dim_in_range(args, "channels", 1);

    // Depthwise 3x3 (G = channels) followed by pointwise 1x1 (dense).
    const GroupedConvShape depthwise{
        ConvShape::square(image, 3, channels, channels), channels};
    const ConvShape pointwise =
        ConvShape::square(image - 2, 1, channels, channels);
    // The dense 3x3 conv the separable block replaces, for context.
    const ConvShape dense = ConvShape::square(image, 3, channels, channels);

    const auto im2col = make_mapper("im2col");
    const auto vw = make_mapper("vw-sdk");

    // Input fetches per distinct IFM element: every cycle drives each
    // bound row with one fetched input (the paper's §I reuse argument).
    const auto fetches_per_element = [&](const MappingDecision& d) {
      const Count input_elements =
          checked_mul(static_cast<Count>(d.shape.in_channels),
                      checked_mul(d.shape.ifm_h, d.shape.ifm_w));
      return format_fixed(
          static_cast<double>(
              analytic_activity(d.shape, geometry, d.cost).row_activations) /
              static_cast<double>(input_elements),
          2);
    };

    TextTable table({"layer", "algorithm", "mapping", "cycles",
                     "speedup", "fetches/elem"});
    const auto add_grouped = [&](const char* label, const Mapper& mapper,
                                 Cycles baseline) {
      const GroupedDecision d = map_grouped(mapper, depthwise, geometry);
      table.add_row(
          {label, mapper.name(),
           cat(d.per_group.table_entry(), " x", depthwise.groups),
           std::to_string(d.total_cycles),
           baseline == 0
               ? std::string("1.00")
               : format_fixed(static_cast<double>(baseline) /
                                  static_cast<double>(d.total_cycles),
                              2),
           fetches_per_element(d.per_group)});
    };
    const auto add_plain = [&](const char* label, const Mapper& mapper,
                               const ConvShape& shape, Cycles baseline) {
      const MappingDecision d = mapper.map(shape, geometry);
      table.add_row(
          {label, mapper.name(), d.table_entry(),
           std::to_string(d.cost.total),
           baseline == 0
               ? std::string("1.00")
               : format_fixed(static_cast<double>(baseline) /
                                  static_cast<double>(d.cost.total),
                              2),
           fetches_per_element(d)});
    };

    const Cycles dw_base =
        map_grouped(*im2col, depthwise, geometry).total_cycles;
    add_grouped("depthwise 3x3", *im2col, 0);
    add_grouped("depthwise 3x3", *vw, dw_base);
    table.add_separator();
    const Cycles pw_base = im2col->map(pointwise, geometry).cost.total;
    add_plain("pointwise 1x1", *im2col, pointwise, 0);
    add_plain("pointwise 1x1", *vw, pointwise, pw_base);
    table.add_separator();
    const Cycles dense_base = im2col->map(dense, geometry).cost.total;
    add_plain("dense 3x3", *im2col, dense, 0);
    add_plain("dense 3x3", *vw, dense, dense_base);
    std::cout << table;

    const GroupedDecision vw_dw = map_grouped(*vw, depthwise, geometry);
    const Cycles separable_vw =
        vw_dw.total_cycles + vw->map(pointwise, geometry).cost.total;
    const Cycles dense_vw = vw->map(dense, geometry).cost.total;
    std::cout << "\nseparable block (depthwise + pointwise) under VW-SDK: "
              << separable_vw << " cycles vs dense 3x3: " << dense_vw
              << " cycles\n"
              << "depthwise window chosen per group: "
              << vw_dw.per_group.cost.window.to_string() << " ("
              << windows_in_pw(depthwise.group_shape(),
                               vw_dw.per_group.cost.window)
              << " outputs/cycle per group)\n";
    return kExitOk;
  });
}
