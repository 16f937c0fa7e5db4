#include "tensor/im2col_ref.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/random.h"
#include "tensor/gemm_backend.h"
#include "tensor/tensor_ops.h"

namespace vwsdk {
namespace {

TEST(Im2colRowIndex, OrderingIsIcMajorThenKyKx) {
  // For a 3x3 kernel: (ic, ky, kx) -> (ic*3 + ky)*3 + kx.
  EXPECT_EQ(im2col_row_index(0, 0, 0, 3, 3), 0);
  EXPECT_EQ(im2col_row_index(0, 0, 2, 3, 3), 2);
  EXPECT_EQ(im2col_row_index(0, 1, 0, 3, 3), 3);
  EXPECT_EQ(im2col_row_index(1, 0, 0, 3, 3), 9);
  EXPECT_EQ(im2col_row_index(2, 2, 2, 3, 3), 26);
}

TEST(Im2colRowIndex, RejectsOutOfRange) {
  EXPECT_THROW(im2col_row_index(0, 3, 0, 3, 3), InvalidArgument);
  EXPECT_THROW(im2col_row_index(0, 0, -1, 3, 3), InvalidArgument);
}

struct Im2colCase {
  Dim ih, iw, k, ic, oc, stride, pad;
};

class Im2colEquivalence : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(Im2colEquivalence, AgreesWithDirect) {
  const Im2colCase& c = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(c.ih * 31 + c.k));
  Tensord ifm = Tensord::feature_map(c.ic, c.ih, c.iw);
  Tensord w = Tensord::weights(c.oc, c.ic, c.k, c.k);
  fill_random_int(ifm, rng, 3);
  fill_random_int(w, rng, 3);
  ConvConfig config;
  config.stride_w = c.stride;
  config.stride_h = c.stride;
  config.pad_w = c.pad;
  config.pad_h = c.pad;
  const Tensord direct = conv2d_direct(ifm, w, config);
  // The gemm backend must agree bitwise with the direct oracle on the
  // same integer tensors -- the backend table's core contract.
  EXPECT_TRUE(exactly_equal(direct, conv2d_gemm(ifm, w, config)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2colEquivalence,
    ::testing::Values(Im2colCase{5, 5, 3, 1, 1, 1, 0},
                      Im2colCase{8, 8, 3, 4, 8, 1, 0},
                      Im2colCase{7, 9, 3, 2, 3, 1, 1},
                      Im2colCase{9, 9, 3, 2, 2, 2, 0},
                      Im2colCase{6, 6, 5, 3, 2, 1, 2},
                      Im2colCase{10, 7, 1, 3, 4, 1, 0},
                      Im2colCase{12, 12, 7, 1, 2, 2, 3}));

}  // namespace
}  // namespace vwsdk
