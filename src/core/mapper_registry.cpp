#include "core/mapper_registry.h"

#include "common/error.h"
#include "common/string_util.h"
#include "core/bit_sliced_mapper.h"
#include "core/exhaustive_mapper.h"
#include "core/im2col_mapper.h"
#include "core/pruned_mapper.h"
#include "core/sdk_mapper.h"
#include "core/smd_mapper.h"
#include "core/vwsdk_mapper.h"

namespace vwsdk {

namespace {

template <class M>
std::unique_ptr<Mapper> make() {
  return std::make_unique<M>();
}

/// Every mapper, in listing order.  Names and aliases must be stored in
/// lookup form (lower case, trimmed) and be distinct across the table;
/// tests/core/test_mapper_registry.cpp pins both.
const std::vector<MapperInfo>& table() {
  static const std::vector<MapperInfo> rows{
      {"im2col",
       {},
       "one kernel window per cycle (ref [4], the paper's baseline)",
       {},
       &make<Im2colMapper>},
      {"smd",
       {},
       "sub-matrix duplication: block-diagonal im2col copies (ref [6])",
       {},
       &make<SmdMapper>},
      {"sdk",
       {},
       "square-window SDK: maximal whole-channel duplication (ref [2])",
       {},
       &make<SdkMapper>},
      {"vw-sdk",
       {"vwsdk"},
       "variable-window SDK search, Algorithm 1 (the paper's proposal)",
       {/*objective_aware=*/true, /*exhaustive=*/false},
       &make<VwSdkMapper>},
      {"vw-sdk-pruned",
       {"pruned"},
       "Algorithm 1 with exactness-preserving search-space prunes",
       {/*objective_aware=*/true, /*exhaustive=*/false},
       &make<PrunedVwSdkMapper>},
      {"exhaustive",
       {},
       "brute-force oracle over every admissible window (global optimum)",
       {/*objective_aware=*/true, /*exhaustive=*/true},
       &make<ExhaustiveMapper>},
      {"vw-sdk-bitsliced",
       {"bitsliced"},
       "Algorithm 1 with bit-slicing-aware costs (default 8-bit config)",
       {},
       &make<BitSlicedVwSdkMapper>},
  };
  return rows;
}

}  // namespace

const MapperRegistry& MapperRegistry::instance() {
  static const MapperRegistry registry;
  return registry;
}

const MapperInfo& MapperRegistry::info(const std::string& name) const {
  const std::string key = to_lower(trim(name));
  for (const MapperInfo& row : table()) {
    if (key == row.name) {
      return row;
    }
    for (const std::string& alias : row.aliases) {
      if (key == alias) {
        return row;
      }
    }
  }
  throw NotFound(cat("unknown mapper '", name, "'; known: ", known_names()));
}

std::unique_ptr<Mapper> MapperRegistry::create(const std::string& name) const {
  return info(name).factory();
}

std::vector<std::string> MapperRegistry::names() const {
  std::vector<std::string> names;
  for (const MapperInfo& row : table()) {
    names.push_back(row.name);
  }
  return names;
}

std::string MapperRegistry::known_names() const {
  return join(names(), ", ");
}

}  // namespace vwsdk
