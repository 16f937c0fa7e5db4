#include "core/mapper_registry.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/im2col_mapper.h"

namespace vwsdk {
namespace {

/// A trivial out-of-library mapper, self-registered the way a plugin or
/// experiment would do it: a static MapperRegistrar in its own
/// translation unit.
class ToyMapper final : public Mapper {
 public:
  using Mapper::map;
  std::string name() const override { return "toy"; }
  MappingDecision map(const MappingContext& context) const override {
    return Im2colMapper().map(context);
  }
};

const MapperRegistrar kToyRegistrar{MapperInfo{
    "toy",
    {"toy-alias"},
    "test-only mapper (im2col in disguise)",
    MapperCapabilities{},
    9000,
    []() { return std::make_unique<ToyMapper>(); }}};

TEST(MapperRegistry, BuiltinsRegisteredInPaperOrder) {
  const std::vector<std::string> names = MapperRegistry::instance().names();
  // The built-ins lead in the paper's order; externals (like the toy
  // above) sort after them.
  const std::vector<std::string> builtins{
      "im2col", "smd",        "sdk",
      "vw-sdk", "vw-sdk-pruned", "exhaustive",
      "vw-sdk-bitsliced"};
  ASSERT_GE(names.size(), builtins.size());
  for (std::size_t i = 0; i < builtins.size(); ++i) {
    EXPECT_EQ(names[i], builtins[i]);
  }
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

TEST(MapperRegistry, SelfRegistrationViaRegistrar) {
  const MapperRegistry& registry = MapperRegistry::instance();
  ASSERT_TRUE(registry.contains("toy"));
  EXPECT_TRUE(registry.contains("toy-alias"));
  EXPECT_EQ(registry.create("toy-alias")->name(), "toy");
  // known_names() carries it after the built-ins (sort_key 9000).
  const std::string known = registry.known_names();
  EXPECT_NE(known.find("toy"), std::string::npos);
  EXPECT_LT(known.find("im2col"), known.find("toy"));
}

TEST(MapperRegistry, LocalRegistryRejectsDuplicatesAndBadInfo) {
  MapperRegistry registry;
  const auto info = [](const std::string& name,
                       const std::vector<std::string>& aliases) {
    return MapperInfo{name, aliases, "d", MapperCapabilities{}, 0,
                      []() { return std::make_unique<ToyMapper>(); }};
  };
  registry.add(info("a", {"b"}));
  EXPECT_EQ(registry.size(), 1);
  EXPECT_THROW(registry.add(info("a", {})), InvalidArgument);   // name taken
  EXPECT_THROW(registry.add(info("B", {})), InvalidArgument);   // alias taken
  EXPECT_THROW(registry.add(info("", {})), InvalidArgument);    // no name
  EXPECT_THROW(registry.add(info("c", {"c"})), InvalidArgument);  // self-dup
  EXPECT_THROW(registry.add(info("d", {"e", "E"})),
               InvalidArgument);  // repeated alias
  EXPECT_THROW(registry.add(MapperInfo{"c", {}, "d",
                                       MapperCapabilities{}, 0, nullptr}),
               InvalidArgument);                                // no factory
  EXPECT_EQ(registry.size(), 1);
}

TEST(MapperRegistry, MakeMapperIsARegistryShim) {
  EXPECT_EQ(make_mapper("toy")->name(), "toy");
  EXPECT_EQ(make_mapper("vw-sdk")->name(), "vw-sdk");
  EXPECT_THROW(make_mapper("frobnicate"), NotFound);
}

}  // namespace
}  // namespace vwsdk
