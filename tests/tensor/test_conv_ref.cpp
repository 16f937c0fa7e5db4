#include "tensor/conv_ref.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/random.h"
#include "tensor/tensor_ops.h"
#include "support/support.h"

namespace vwsdk {
namespace {

TEST(ConvOutputExtent, StandardCases) {
  EXPECT_EQ(conv_output_extent(224, 3, 1, 0), 222);
  EXPECT_EQ(conv_output_extent(224, 3, 1, 1), 224);  // "same" padding
  EXPECT_EQ(conv_output_extent(7, 3, 1, 0), 5);
  EXPECT_EQ(conv_output_extent(112, 7, 2, 3), 56);   // real ResNet conv1
  EXPECT_EQ(conv_output_extent(5, 5, 1, 0), 1);
}

TEST(ConvOutputExtent, Validation) {
  EXPECT_THROW(conv_output_extent(2, 3, 1, 0), InvalidArgument);
  EXPECT_THROW(conv_output_extent(8, 3, 0, 0), InvalidArgument);
  EXPECT_THROW(conv_output_extent(8, 3, 1, -1), InvalidArgument);
}

TEST(ConvDirect, HandComputedSingleChannel) {
  // 3x3 input, 2x2 kernel of ones: each output = sum of a 2x2 patch.
  Tensord ifm = Tensord::feature_map(1, 3, 3);
  fill_sequential(ifm);  // 0..8 row-major
  Tensord w = Tensord::weights(1, 1, 2, 2);
  w.fill(1.0);
  const Tensord ofm = conv2d_direct(ifm, w);
  ASSERT_EQ(ofm.shape(), (Shape4{1, 1, 2, 2}));
  EXPECT_EQ(ofm.at(0, 0, 0), 0.0 + 1 + 3 + 4);
  EXPECT_EQ(ofm.at(0, 0, 1), 1.0 + 2 + 4 + 5);
  EXPECT_EQ(ofm.at(0, 1, 0), 3.0 + 4 + 6 + 7);
  EXPECT_EQ(ofm.at(0, 1, 1), 4.0 + 5 + 7 + 8);
}

TEST(ConvDirect, IdentityKernelPicksCenter) {
  Tensord ifm = Tensord::feature_map(1, 5, 5);
  fill_sequential(ifm);
  Tensord w = Tensord::weights(1, 1, 3, 3);
  w.at(0, 0, 1, 1) = 1.0;  // delta at the center
  const Tensord ofm = conv2d_direct(ifm, w);
  ASSERT_EQ(ofm.shape(), (Shape4{1, 1, 3, 3}));
  for (Dim y = 0; y < 3; ++y) {
    for (Dim x = 0; x < 3; ++x) {
      EXPECT_EQ(ofm.at(0, y, x), ifm.at(0, y + 1, x + 1));
    }
  }
}

TEST(ConvDirect, MultiChannelAccumulates) {
  Tensord ifm = Tensord::feature_map(2, 2, 2);
  ifm.fill(1.0);
  Tensord w = Tensord::weights(3, 2, 2, 2);
  w.fill(2.0);
  const Tensord ofm = conv2d_direct(ifm, w);
  ASSERT_EQ(ofm.shape(), (Shape4{1, 3, 1, 1}));
  // 2 channels * 4 positions * 1 * 2 = 16 per output channel.
  for (Dim oc = 0; oc < 3; ++oc) {
    EXPECT_EQ(ofm.at(oc, 0, 0), 16.0);
  }
}

TEST(ConvDirect, StrideSkipsPositions) {
  Tensord ifm = Tensord::feature_map(1, 5, 5);
  fill_sequential(ifm);
  Tensord w = Tensord::weights(1, 1, 1, 1);
  w.at(0, 0, 0, 0) = 1.0;
  ConvConfig config;
  config.stride_w = 2;
  config.stride_h = 2;
  const Tensord ofm = conv2d_direct(ifm, w, config);
  ASSERT_EQ(ofm.shape(), (Shape4{1, 1, 3, 3}));
  EXPECT_EQ(ofm.at(0, 0, 0), ifm.at(0, 0, 0));
  EXPECT_EQ(ofm.at(0, 1, 1), ifm.at(0, 2, 2));
  EXPECT_EQ(ofm.at(0, 2, 2), ifm.at(0, 4, 4));
}

TEST(ConvDirect, ZeroPaddingContributesNothing) {
  Tensord ifm = Tensord::feature_map(1, 3, 3);
  ifm.fill(1.0);
  Tensord w = Tensord::weights(1, 1, 3, 3);
  w.fill(1.0);
  ConvConfig config;
  config.pad_w = 1;
  config.pad_h = 1;
  const Tensord ofm = conv2d_direct(ifm, w, config);
  ASSERT_EQ(ofm.shape(), (Shape4{1, 1, 3, 3}));
  EXPECT_EQ(ofm.at(0, 1, 1), 9.0);  // fully interior
  EXPECT_EQ(ofm.at(0, 0, 0), 4.0);  // corner: only 2x2 real pixels
  EXPECT_EQ(ofm.at(0, 0, 1), 6.0);  // edge: 2x3 real pixels
}

TEST(ConvDirect, ChannelMismatchRejected) {
  const Tensord ifm = Tensord::feature_map(3, 4, 4);
  const Tensord w = Tensord::weights(1, 2, 3, 3);
  EXPECT_THROW(conv2d_direct(ifm, w), InvalidArgument);
}

TEST(ConvDirect, LinearityProperty) {
  // conv(a*x, w) == a * conv(x, w) for scalar a -- catches accumulation
  // bugs without any hand-computed values.
  Rng rng(5);
  Tensord ifm = Tensord::feature_map(3, 6, 6);
  Tensord w = Tensord::weights(4, 3, 3, 3);
  fill_random_int(ifm, rng, 4);
  fill_random_int(w, rng, 4);
  const Tensord base = conv2d_direct(ifm, w);
  Tensord scaled_in = ifm;
  for (double& v : scaled_in.data()) {
    v *= 3.0;
  }
  const Tensord scaled_out = conv2d_direct(scaled_in, w);
  for (std::size_t i = 0; i < base.data().size(); ++i) {
    EXPECT_EQ(scaled_out.data()[i], 3.0 * base.data()[i]);
  }
}

}  // namespace
}  // namespace vwsdk
