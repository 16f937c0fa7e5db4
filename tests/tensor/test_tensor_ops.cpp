#include "tensor/tensor_ops.h"
#include "support/support.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace vwsdk {
namespace {

TEST(TensorOps, FillRandomIntBoundsAndIntegrality) {
  Rng rng(1);
  Tensord t = Tensord::feature_map(4, 8, 8);
  fill_random_int(t, rng, 5);
  for (const double v : t.data()) {
    EXPECT_GE(v, -5.0);
    EXPECT_LE(v, 5.0);
    EXPECT_EQ(v, std::floor(v)) << "value must be integral";
  }
}

TEST(TensorOps, FillRandomIntDeterministic) {
  Tensord a = Tensord::feature_map(2, 4, 4);
  Tensord b = Tensord::feature_map(2, 4, 4);
  Rng ra(99);
  Rng rb(99);
  fill_random_int(a, ra, 3);
  fill_random_int(b, rb, 3);
  EXPECT_EQ(a, b);
}

TEST(TensorOps, FillRandomRealRange) {
  Rng rng(2);
  Tensord t = Tensord::feature_map(1, 16, 16);
  fill_random_real(t, rng, -1.0, 1.0);
  for (const double v : t.data()) {
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(TensorOps, FillSequentialIdentifiesPositions) {
  Tensord t(Shape4{1, 2, 2, 2});
  fill_sequential(t);
  EXPECT_EQ(t.at(0, 0, 0, 0), 0.0);
  EXPECT_EQ(t.at(0, 1, 1, 1), 7.0);
}

TEST(TensorOps, MaxAbsDiff) {
  Tensord a = Tensord::feature_map(1, 2, 2);
  Tensord b = Tensord::feature_map(1, 2, 2);
  b.at(0, 1, 0) = -2.5;
  EXPECT_EQ(max_abs_diff(a, b), 2.5);
  EXPECT_EQ(max_abs_diff(a, a), 0.0);
}

TEST(TensorOps, MaxAbsDiffShapeMismatchThrows) {
  Tensord a = Tensord::feature_map(1, 2, 2);
  Tensord b = Tensord::feature_map(1, 2, 3);
  EXPECT_THROW(max_abs_diff(a, b), InvalidArgument);
}

TEST(TensorOps, ExactlyEqual) {
  Tensord a = Tensord::feature_map(1, 2, 2);
  Tensord b = a;
  EXPECT_TRUE(exactly_equal(a, b));
  b.at(0, 0, 0) = 1e-300;
  EXPECT_FALSE(exactly_equal(a, b));
}

TEST(TensorOps, Sum) {
  Tensord t(Shape4{1, 1, 2, 2});
  fill_sequential(t);  // 0+1+2+3
  EXPECT_EQ(sum(t), 6.0);
}

TEST(TensorOps, NegativeMagnitudeRejected) {
  Rng rng(3);
  Tensord t = Tensord::feature_map(1, 1, 1);
  EXPECT_THROW(fill_random_int(t, rng, -1), InvalidArgument);
}

}  // namespace
}  // namespace vwsdk
