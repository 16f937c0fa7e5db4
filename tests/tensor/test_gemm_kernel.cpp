#include "tensor/gemm_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "nn/model_zoo.h"
#include "tensor/conv_ref.h"
#include "tensor/tensor_ops.h"

namespace vwsdk {
namespace {

/// The k-block depth of every variant (tensor/gemm_microkernel.h).
constexpr Count kKc = 256;

/// A GEMM problem: C (m x n) = A (m x k) * B (k x n), row-major.
struct Gemm {
  Count m = 0;
  Count k = 0;
  Count n = 0;

  std::string label() const { return cat(m, "x", k, "x", n); }
};

/// Non-integer operands: element i is i * 0.37 shifted to mix signs, so
/// products round and the sum depends on its order.
std::vector<double> real_values(Count count, double shift) {
  std::vector<double> values(static_cast<std::size_t>(count));
  for (Count i = 0; i < count; ++i) {
    values[static_cast<std::size_t>(i)] =
        static_cast<double>(i % 997) * 0.37 - shift;
  }
  return values;
}

/// The reference order: +0.0, then each product added in ascending k.
std::vector<double> ascending_k(const Gemm& g, const std::vector<double>& a,
                                const std::vector<double>& b) {
  std::vector<double> c(static_cast<std::size_t>(g.m * g.n));
  for (Count i = 0; i < g.m; ++i) {
    for (Count j = 0; j < g.n; ++j) {
      double total = 0.0;
      for (Count kk = 0; kk < g.k; ++kk) {
        total += a[static_cast<std::size_t>(i * g.k + kk)] *
                 b[static_cast<std::size_t>(kk * g.n + j)];
      }
      c[static_cast<std::size_t>(i * g.n + j)] = total;
    }
  }
  return c;
}

/// C from `kernel` over units [0, units), split into `pieces` ranges
/// run in reverse order (any split must give the same bits).  C starts
/// as NaN: the kernel must write every element.  A's rows start `lda`
/// elements apart from `a`; 0 means k, a dense A.
std::vector<double> run(const GemmKernel& kernel, const Gemm& g,
                        const double* a, const std::vector<double>& b,
                        Count pieces = 1, Count lda = 0) {
  std::vector<double> c(static_cast<std::size_t>(g.m * g.n), std::nan(""));
  const GemmOperands operands{a,   b.data(), c.data(), g.m,
                              g.k, g.n,      lda == 0 ? g.k : lda};
  const Count units = kernel.units(operands);
  const Count step = std::max<Count>(1, ceil_div(units, pieces));
  for (Count end = units; end > 0; end -= std::min(step, end)) {
    kernel.multiply(operands, std::max<Count>(0, end - step), end);
  }
  return c;
}

std::vector<double> run(const GemmKernel& kernel, const Gemm& g,
                        const std::vector<double>& a,
                        const std::vector<double>& b, Count pieces = 1) {
  return run(kernel, g, a.data(), b, pieces);
}

bool bitwise_equal(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// Every zoo layer's per-group GEMM (OC x IC*KH*KW x OH*OW), reduced so
/// a test runs in milliseconds: each extent keeps its remainder modulo
/// every variant's block size (MR in {4, 6}, NR in {6, 12, 24}, KC) and
/// at least two blocks where it had them.
std::vector<Gemm> zoo_gemms() {
  std::set<std::tuple<Count, Count, Count>> seen;
  std::vector<Gemm> gemms;
  for (const std::string& model : model_names()) {
    const Network network = model_by_name(model);
    for (const ConvLayerDesc& layer : network.layers()) {
      const Count m = layer.group_out_channels();
      const Count k = static_cast<Count>(layer.group_in_channels()) *
                      layer.kernel_h * layer.kernel_w;
      const Count n = static_cast<Count>(layer.ofm_h()) * layer.ofm_w();
      const Gemm g{m > 36 ? 24 + m % 12 : m, k > 2 * kKc ? kKc + k % kKc : k,
                   n > 72 ? 48 + n % 24 : n};
      if (seen.insert({g.m, g.k, g.n}).second) {
        gemms.push_back(g);
      }
    }
  }
  return gemms;
}

/// Shapes off every block multiple, one-element extents, and N < NR.
std::vector<Gemm> edge_gemms() {
  return {{13, 300, 53}, {7, 513, 29}, {1, 1, 1},  {5, 1, 31},
          {9, 1, 100},   {6, 40, 5},   {1, 17, 3}, {25, 257, 23},
          {4, 256, 24},  {12, 512, 48}};
}

/// The kernel variant `name`, or why the test cannot run it here.
const GemmKernel* variant_or_skip_reason(const std::string& name,
                                         std::string& reason) {
  for (const GemmVariant& variant : gemm_variants()) {
    if (name == variant.kernel.name) {
      if (!variant.runs_here) {
        reason = cat("this CPU lacks the ", name, " instructions");
        return nullptr;
      }
      return &variant.kernel;
    }
  }
  reason = cat("the ", name, " variant is not compiled for this target");
  return nullptr;
}

class GemmKernelVariant : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    std::string reason;
    kernel_ = variant_or_skip_reason(GetParam(), reason);
    if (kernel_ == nullptr) {
      GTEST_SKIP() << reason;
    }
  }

  const GemmKernel* kernel_ = nullptr;
};

// On non-integer data every variant must reproduce the ascending-k sum
// bit for bit, however the units are split.
TEST_P(GemmKernelVariant, MatchesAscendingKOnRealData) {
  std::vector<Gemm> gemms = edge_gemms();
  const std::vector<Gemm> zoo = zoo_gemms();
  gemms.insert(gemms.end(), zoo.begin(), zoo.end());
  for (const Gemm& g : gemms) {
    const std::vector<double> a = real_values(g.m * g.k, 150.3);
    const std::vector<double> b = real_values(g.k * g.n, 9.1);
    const std::vector<double> expected = ascending_k(g, a, b);
    for (const Count pieces : {1, 3, 7}) {
      EXPECT_TRUE(bitwise_equal(expected, run(*kernel_, g, a, b, pieces)))
          << g.label() << " in " << pieces << " piece(s)";
    }
  }
}

// On integer data every variant must equal the scalar oracle: the GEMM
// is the 1x1 convolution whose IFM storage is B and whose weight
// storage is A.
TEST_P(GemmKernelVariant, MatchesScalarOnIntegerData) {
  std::vector<Gemm> gemms = edge_gemms();
  const std::vector<Gemm> zoo = zoo_gemms();
  gemms.insert(gemms.end(), zoo.begin(), zoo.end());
  Rng rng(77);
  for (const Gemm& g : gemms) {
    Tensord ifm = Tensord::feature_map(static_cast<Dim>(g.k), 1,
                                       static_cast<Dim>(g.n));
    Tensord weights = Tensord::weights(static_cast<Dim>(g.m),
                                       static_cast<Dim>(g.k), 1, 1);
    fill_random_int(ifm, rng, 3);
    fill_random_int(weights, rng, 3);
    const Tensord oracle = conv2d_direct(ifm, weights);
    EXPECT_TRUE(bitwise_equal(oracle.data(),
                              run(*kernel_, g, weights.data(), ifm.data())))
        << g.label();
  }
}

// Accumulators start at +0.0, so a sum of nothing but -0.0 products is
// +0.0 -- including after a store and reload between k blocks.
TEST_P(GemmKernelVariant, NegativeZeroProductsSumToPositiveZero) {
  for (const Gemm& g : {Gemm{7, 1, 29}, Gemm{13, 300, 53}}) {
    const std::vector<double> a(static_cast<std::size_t>(g.m * g.k), -1.0);
    const std::vector<double> b(static_cast<std::size_t>(g.k * g.n), 0.0);
    for (const double value : run(*kernel_, g, a, b)) {
      ASSERT_EQ(value, 0.0) << g.label();
      ASSERT_FALSE(std::signbit(value)) << g.label() << ": -0.0 output";
    }
  }
}

// A read in place, through a row stride wider than k, gives the bits of
// the same A packed densely.  The elements around every row -- before
// the first, between rows and after the last -- are NaN, so a kernel that
// reads one of them poisons C.  The shapes include short row blocks, and
// k past one k block.
TEST_P(GemmKernelVariant, ReadsAThroughItsRowStride) {
  std::vector<Gemm> gemms = edge_gemms();
  gemms.push_back({kKc, 2 * kKc + 3, 7});
  for (const Gemm& g : gemms) {
    const std::vector<double> a = real_values(g.m * g.k, 150.3);
    const std::vector<double> b = real_values(g.k * g.n, 9.1);
    const std::vector<double> packed = run(*kernel_, g, a, b);
    for (const Count gap : {1, 5, 31}) {
      const Count lda = g.k + gap;
      std::vector<double> wide(static_cast<std::size_t>(gap + g.m * lda),
                               std::nan(""));
      double* const view = wide.data() + gap;
      for (Count i = 0; i < g.m; ++i) {
        std::copy_n(a.begin() + i * g.k, g.k, view + i * lda);
      }
      for (const Count pieces : {1, 3, 7}) {
        EXPECT_TRUE(
            bitwise_equal(packed, run(*kernel_, g, view, b, pieces, lda)))
            << g.label() << " lda " << lda << " in " << pieces
            << " piece(s)";
      }
    }
  }
}

// A row stride below k would overlap A's rows; units() refuses it.
TEST_P(GemmKernelVariant, RefusesARowStrideBelowK) {
  const std::vector<double> a(12, 1.0);
  const std::vector<double> b(12, 1.0);
  std::vector<double> c(9);
  const GemmOperands operands{a.data(), b.data(), c.data(), 3, 4, 3, 3};
  EXPECT_THROW(kernel_->units(operands), InternalError);
}

INSTANTIATE_TEST_SUITE_P(
    Isa, GemmKernelVariant,
    ::testing::Values("avx512", "avx2", "baseline"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Widest first; the baseline is always compiled and always runs, so the
// dispatched variant exists and is the first that runs here.
TEST(GemmKernelDispatch, PicksTheWidestVariantThatRuns) {
  const std::vector<GemmVariant>& variants = gemm_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants.back().kernel.name, "baseline");
  EXPECT_TRUE(variants.back().runs_here);
  const GemmVariant* first = nullptr;
  for (const GemmVariant& variant : variants) {
    if (variant.runs_here && first == nullptr) {
      first = &variant;
    }
  }
  ASSERT_NE(first, nullptr);
  EXPECT_STREQ(gemm_kernel().name, first->kernel.name);
  EXPECT_EQ(&gemm_kernel(), &gemm_kernel());
}

}  // namespace
}  // namespace vwsdk
