#include "pim/crossbar.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vwsdk {
namespace {

TEST(Crossbar, StartsErased) {
  const Crossbar array({4, 4});
  EXPECT_EQ(array.programmed_cell_count(), 0);
  EXPECT_EQ(array.cell(2, 3), 0.0);
  EXPECT_FALSE(array.is_programmed(2, 3));
  EXPECT_EQ(array.utilization(), 0.0);
}

TEST(Crossbar, ProgramAndRead) {
  Crossbar array({4, 4});
  array.program(1, 2, -0.5);
  EXPECT_EQ(array.cell(1, 2), -0.5);
  EXPECT_TRUE(array.is_programmed(1, 2));
  EXPECT_EQ(array.programmed_cell_count(), 1);
  EXPECT_DOUBLE_EQ(array.utilization(), 1.0 / 16.0);
}

TEST(Crossbar, DoubleProgramIsACollision) {
  Crossbar array({4, 4});
  array.program(0, 0, 1.0);
  EXPECT_THROW(array.program(0, 0, 2.0), InvalidArgument);
}

TEST(Crossbar, OutOfRangeAccessRejected) {
  Crossbar array({4, 8});
  EXPECT_THROW(array.program(4, 0, 1.0), InvalidArgument);
  EXPECT_THROW(array.program(0, 8, 1.0), InvalidArgument);
  EXPECT_THROW(array.cell(-1, 0), InvalidArgument);
}

TEST(Crossbar, ComputeIsMatrixVectorProduct) {
  // 2x3 array: cells[r][c] = weight; input = (2, 3).
  Crossbar array({2, 3});
  array.program(0, 0, 1.0);
  array.program(0, 1, 2.0);
  array.program(1, 1, -1.0);
  array.program(1, 2, 4.0);
  const std::vector<double> out = array.compute({2.0, 3.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 2.0);        // 2*1
  EXPECT_EQ(out[1], 1.0);        // 2*2 + 3*(-1)
  EXPECT_EQ(out[2], 12.0);       // 3*4
}

TEST(Crossbar, ComputeRejectsWrongInputLength) {
  const Crossbar array({2, 3});
  EXPECT_THROW(array.compute({1.0}), InvalidArgument);
  EXPECT_THROW(array.compute({1.0, 2.0, 3.0}), InvalidArgument);
}

TEST(Crossbar, IdleRowsContributeNothing) {
  Crossbar array({3, 1});
  array.program(0, 0, 5.0);
  array.program(2, 0, 7.0);
  const std::vector<double> out = array.compute({0.0, 123.0, 1.0});
  EXPECT_EQ(out[0], 7.0);  // row 1 has no cell; row 0 driven with 0
}

TEST(Crossbar, QuantizingAdcAppliedPerColumn) {
  Crossbar array({1, 2});
  array.program(0, 0, 1.0);
  array.program(0, 1, 1.0);
  // 3-bit ADC over [0, 8): step 1; value 2.7 -> 2.0.
  const ConverterModel adc(3, 0.0, 8.0);
  const std::vector<double> out = array.compute({2.7}, adc);
  EXPECT_EQ(out[0], 2.0);
  EXPECT_EQ(out[1], 2.0);
}

TEST(Crossbar, NoiseAppliedAtProgrammingIsDeterministic) {
  NoiseModel noise_a({0.1, 0.0}, 42);
  NoiseModel noise_b({0.1, 0.0}, 42);
  Crossbar a({1, 1});
  Crossbar b({1, 1});
  a.program(0, 0, 1.0, &noise_a);
  b.program(0, 0, 1.0, &noise_b);
  EXPECT_EQ(a.cell(0, 0), b.cell(0, 0));
  EXPECT_NE(a.cell(0, 0), 1.0);  // sigma 0.1 perturbs with prob ~1
}

}  // namespace
}  // namespace vwsdk
