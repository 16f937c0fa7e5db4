#include "core/mapper_registry.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/string_util.h"

namespace vwsdk {
namespace {

TEST(MapperRegistry, BuiltinsRegisteredInPaperOrder) {
  // The paper's baselines, its proposal, then this repo's extensions.
  const std::vector<std::string> builtins{
      "im2col", "smd",        "sdk",
      "vw-sdk", "vw-sdk-pruned", "exhaustive",
      "vw-sdk-bitsliced"};
  EXPECT_EQ(MapperRegistry::instance().names(), builtins);
}

TEST(MapperRegistry, CreateResolvesNamesAndAliasesCaseInsensitively) {
  const MapperRegistry& registry = MapperRegistry::instance();
  EXPECT_EQ(registry.create("vw-sdk")->name(), "vw-sdk");
  EXPECT_EQ(registry.create("vwsdk")->name(), "vw-sdk");
  EXPECT_EQ(registry.create(" VW-SDK ")->name(), "vw-sdk");
  EXPECT_EQ(registry.create("pruned")->name(), "vw-sdk-pruned");
  EXPECT_EQ(registry.create("bitsliced")->name(), "vw-sdk-bitsliced");
  EXPECT_THROW(registry.create("frobnicate"), NotFound);
}

TEST(MapperRegistry, UnknownNameErrorListsTheKnownNames) {
  try {
    (void)MapperRegistry::instance().info("frobnicate");
    FAIL() << "expected NotFound";
  } catch (const NotFound& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("im2col"), std::string::npos) << message;
    EXPECT_NE(message.find("vw-sdk"), std::string::npos) << message;
    EXPECT_NE(message.find("exhaustive"), std::string::npos) << message;
  }
}

TEST(MapperRegistry, CapabilitiesDescribeTheAlgorithms) {
  const MapperRegistry& registry = MapperRegistry::instance();
  EXPECT_FALSE(registry.info("im2col").capabilities.objective_aware);
  EXPECT_TRUE(registry.info("vw-sdk").capabilities.objective_aware);
  EXPECT_FALSE(registry.info("vw-sdk").capabilities.exhaustive);
  EXPECT_TRUE(registry.info("exhaustive").capabilities.exhaustive);
  EXPECT_TRUE(registry.info("vw-sdk-pruned").capabilities.objective_aware);
}

// The invariants the table must hold by construction: every name and
// alias is non-empty, already in lookup form (lower case, trimmed) and
// distinct across the whole table, and each row's factory builds the
// mapper the row names.
TEST(MapperRegistry, TableRowsAreDistinctAndMatchTheirMappers) {
  const MapperRegistry& registry = MapperRegistry::instance();
  std::set<std::string> keys;
  for (const std::string& name : registry.names()) {
    const MapperInfo& row = registry.info(name);
    EXPECT_EQ(row.name, name);
    std::vector<std::string> row_keys{row.name};
    row_keys.insert(row_keys.end(), row.aliases.begin(), row.aliases.end());
    for (const std::string& key : row_keys) {
      EXPECT_FALSE(key.empty()) << row.name;
      EXPECT_EQ(key, to_lower(trim(key))) << row.name;
      EXPECT_TRUE(keys.insert(key).second) << "\"" << key << "\" twice";
    }
    EXPECT_EQ(registry.create(row.name)->name(), row.name);
  }
}

TEST(MapperRegistry, MakeMapperIsARegistryShim) {
  EXPECT_EQ(make_mapper("vw-sdk")->name(), "vw-sdk");
  EXPECT_THROW(make_mapper("frobnicate"), NotFound);
}

}  // namespace
}  // namespace vwsdk
