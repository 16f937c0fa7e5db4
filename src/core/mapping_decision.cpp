#include "core/mapping_decision.h"

#include "common/string_util.h"
#include "core/mapper_registry.h"

namespace vwsdk {

bool MappingDecision::is_im2col_fallback() const {
  return cost.window == kernel_window(shape);
}

std::string MappingDecision::table_entry() const {
  if (is_im2col_fallback()) {
    // The paper prints fallback rows with the layer's full channels
    // (e.g. ResNet-18 conv5: "3x3x512x512").
    return cat(shape.kernel_w, "x", shape.kernel_h, "x", shape.in_channels,
               "x", shape.out_channels);
  }
  return cat(cost.window.w, "x", cost.window.h, "x", cost.ic_t, "x",
             cost.oc_t);
}

std::string MappingDecision::to_string() const {
  std::string text = cat(algorithm, ": ", table_entry(), " -> ", cost.total,
                         " cycles (", cost.to_string(), ")");
  if (!objective.empty() && objective != cycles_objective().name()) {
    text += cat(" [", objective, " score ", format_fixed(score, 1), "]");
  }
  return text;
}

MappingDecision Mapper::map(const ConvShape& shape,
                            const ArrayGeometry& geometry) const {
  return map(MappingContext{shape, geometry});
}

std::unique_ptr<Mapper> make_mapper(const std::string& name) {
  return MapperRegistry::instance().create(name);
}

}  // namespace vwsdk
