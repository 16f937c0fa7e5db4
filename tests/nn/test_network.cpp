#include "nn/network.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/error.h"

namespace vwsdk {
namespace {

Network two_layer() {
  Network net("tiny");
  net.add_layer(make_conv_layer("conv1", 8, 3, 1, 4));
  net.add_layer(make_conv_layer("conv2", 6, 3, 4, 8));
  return net;
}

/// Whether layers() compiles on a `N`: a requires-expression outside a
/// template may not hold an ill-formed call, so the check is a template.
template <typename N>
constexpr bool kLendsLayers = requires { std::declval<N>().layers(); };

// layers() lends a reference into the Network, so only an lvalue lends
// it: on a temporary, as in `for (... : model_by_name(n).layers())`, the
// reference would dangle, and the call does not compile.
static_assert(kLendsLayers<Network&>);
static_assert(kLendsLayers<const Network&>);
static_assert(!kLendsLayers<Network>);
static_assert(!kLendsLayers<const Network>);

TEST(Network, AddAndAccess) {
  const Network net = two_layer();
  EXPECT_EQ(net.name(), "tiny");
  EXPECT_EQ(net.layer_count(), 2);
  EXPECT_FALSE(net.empty());
  EXPECT_EQ(net.layer(0).name, "conv1");
  EXPECT_EQ(net.layer(1).in_channels, 4);
}

TEST(Network, LayerByName) {
  const Network net = two_layer();
  EXPECT_EQ(net.layer_by_name("conv2").out_channels, 8);
  EXPECT_THROW(net.layer_by_name("conv9"), NotFound);
}

TEST(Network, IndexOutOfRangeThrows) {
  const Network net = two_layer();
  EXPECT_THROW(net.layer(2), InvalidArgument);
  EXPECT_THROW(net.layer(-1), InvalidArgument);
}

TEST(Network, DuplicateNameRejected) {
  Network net("dup");
  net.add_layer(make_conv_layer("conv1", 8, 3, 1, 4));
  EXPECT_THROW(net.add_layer(make_conv_layer("conv1", 8, 3, 1, 4)),
               InvalidArgument);
}

TEST(Network, InvalidLayerRejectedAtAdd) {
  Network net("bad");
  ConvLayerDesc layer = make_conv_layer("x", 8, 3, 1, 4);
  layer.out_channels = 0;
  EXPECT_THROW(net.add_layer(layer), InvalidArgument);
}

TEST(Network, TotalWeights) {
  const Network net = two_layer();
  EXPECT_EQ(net.total_weights(), 3 * 3 * 1 * 4 + 3 * 3 * 4 * 8);
}

TEST(Network, ToStringListsLayers) {
  const std::string text = two_layer().to_string();
  EXPECT_NE(text.find("tiny"), std::string::npos);
  EXPECT_NE(text.find("conv1"), std::string::npos);
  EXPECT_NE(text.find("conv2"), std::string::npos);
}

}  // namespace
}  // namespace vwsdk
