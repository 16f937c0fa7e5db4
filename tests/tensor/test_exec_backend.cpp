#include "tensor/exec_backend.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "nn/model_zoo.h"
#include "tensor/gemm_backend.h"
#include "tensor/tensor_ops.h"

namespace vwsdk {
namespace {

/// RAII: restore the prior value of an environment variable.
class EnvGuard {
 public:
  explicit EnvGuard(std::string name) : name_(std::move(name)) {
    if (const char* prev = std::getenv(name_.c_str())) {
      had_value_ = true;
      saved_ = prev;
    }
  }
  ~EnvGuard() {
    if (had_value_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_value_ = false;
  std::string saved_;
};

TEST(BackendTable, BuiltinsResolveByNameAndAlias) {
  // The oracle lists first, the fast default second.
  EXPECT_EQ(ref_backend_names(), "scalar, gemm");
  EXPECT_EQ(resolve_ref_backend("scalar"), "scalar");
  EXPECT_EQ(resolve_ref_backend("gemm"), "gemm");
  // Aliases and case-insensitive, trimmed lookup reach the canonical
  // name.
  EXPECT_EQ(resolve_ref_backend("direct"), "scalar");
  EXPECT_EQ(resolve_ref_backend("im2col-gemm"), "gemm");
  EXPECT_EQ(resolve_ref_backend("  GEMM "), "gemm");
  EXPECT_EQ(resolve_ref_backend(" IM2COL-GEMM "), "gemm");
  EXPECT_EQ(resolve_ref_backend("DIRECT"), "scalar");
}

TEST(BackendTable, UnknownNameThrowsListingKnown) {
  try {
    (void)resolve_ref_backend("no-such-backend");
    FAIL() << "expected NotFound";
  } catch (const NotFound& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown execution backend 'no-such-backend'; known: "
              "scalar, gemm");
  }
}

TEST(BackendResolution, ExplicitThenEnvThenDefault) {
  EnvGuard guard("VWSDK_REF_BACKEND");
  unsetenv("VWSDK_REF_BACKEND");
  EXPECT_EQ(resolve_ref_backend(), "gemm");
  EXPECT_EQ(resolve_ref_backend("scalar"), "scalar");
  EXPECT_EQ(resolve_ref_backend(" Direct "), "scalar");  // alias, trimmed

  ASSERT_EQ(setenv("VWSDK_REF_BACKEND", "scalar", 1), 0);
  EXPECT_EQ(resolve_ref_backend(), "scalar");
  // An explicit request wins over the environment.
  EXPECT_EQ(resolve_ref_backend("gemm"), "gemm");
  // Empty environment value falls through to the default.
  ASSERT_EQ(setenv("VWSDK_REF_BACKEND", "", 1), 0);
  EXPECT_EQ(resolve_ref_backend(), "gemm");
  // Unknown names throw, explicit or from the environment.
  ASSERT_EQ(setenv("VWSDK_REF_BACKEND", "bogus", 1), 0);
  EXPECT_THROW(resolve_ref_backend(), NotFound);
  EXPECT_THROW(resolve_ref_backend("bogus"), NotFound);
}

/// One parity case: both backends on the same integer tensors must
/// produce bitwise-identical OFMs.
struct ParityCase {
  Dim ih = 0, iw = 0, kh = 0, kw = 0, ic = 0, oc = 0;
  ConvConfig config{};

  std::string label() const {
    return cat(ih, "x", iw, " k", kh, "x", kw, " ic", ic, " oc", oc, " s",
               config.stride_h, "x", config.stride_w, " p", config.pad_h,
               "x", config.pad_w);
  }
};

void expect_parity(const ParityCase& c, std::uint64_t seed) {
  Rng rng(seed);
  Tensord ifm = Tensord::feature_map(c.ic, c.ih, c.iw);
  Tensord weights = Tensord::weights(c.oc, c.ic, c.kh, c.kw);
  fill_random_int(ifm, rng, 3);
  fill_random_int(weights, rng, 3);
  const Tensord oracle = conv2d_direct(ifm, weights, c.config);
  const Tensord fast = conv2d_gemm(ifm, weights, c.config);
  EXPECT_TRUE(exactly_equal(oracle, fast)) << c.label();
}

/// Shrink a zoo layer to a Debug-friendly parity case that keeps its
/// interesting structure: the kernel, stride, and padding are preserved
/// exactly; the spatial extent is capped at kernel + 9 (still multiple
/// windows per axis, still exercises every padding row); the per-group
/// channel counts are capped at 24 (full-size zoo layers reach billions
/// of MACs -- minutes of scalar time per layer in Debug -- without
/// covering any additional backend code path).
ParityCase capped_case(const ConvLayerDesc& layer) {
  ParityCase c;
  c.kh = layer.kernel_h;
  c.kw = layer.kernel_w;
  c.ih = std::min(layer.ifm_h, static_cast<Dim>(layer.kernel_h + 9));
  c.iw = std::min(layer.ifm_w, static_cast<Dim>(layer.kernel_w + 9));
  c.ic = std::min(layer.group_in_channels(), Dim{24});
  c.oc = std::min(layer.group_out_channels(), Dim{24});
  c.config = layer.config;
  return c;
}

// gemm vs scalar on (the capped per-group sub-convolution of) every
// distinct layer shape in the model zoo -- stride, padding, grouped and
// depthwise layers included, which is exactly the shape population the
// verification paths run.
TEST(BackendParity, EveryZooLayerShape) {
  std::set<std::string> seen;
  std::uint64_t seed = 100;
  for (const std::string& model : model_names()) {
    const Network network = model_by_name(model);
    for (const ConvLayerDesc& layer : network.layers()) {
      const ParityCase c = capped_case(layer);
      if (!seen.insert(c.label()).second) {
        continue;  // networks share layer shapes; test each once
      }
      expect_parity(c, seed++);
    }
  }
  EXPECT_GE(seen.size(), 10u);
}

// The stride/pad/kernel sandwich the zoo does not cover.
TEST(BackendParity, StridePadKernelSandwich) {
  std::uint64_t seed = 500;
  for (const Dim kernel : {1, 3, 5}) {
    for (const Dim stride : {1, 2, 3}) {
      for (const Dim pad : {0, 1, 2}) {
        ParityCase c;
        c.ih = 11;
        c.iw = 13;  // non-square
        c.kh = kernel;
        c.kw = kernel;
        c.ic = 6;
        c.oc = 8;
        c.config.stride_h = stride;
        c.config.stride_w = stride;
        c.config.pad_h = pad;
        c.config.pad_w = pad;
        expect_parity(c, seed++);
      }
    }
  }
  // Asymmetric stride/padding, rectangular kernel.
  ParityCase c;
  c.ih = 14;
  c.iw = 9;
  c.kh = 3;
  c.kw = 5;
  c.ic = 5;
  c.oc = 7;
  c.config.stride_h = 2;
  c.config.stride_w = 1;
  c.config.pad_h = 0;
  c.config.pad_w = 2;
  expect_parity(c, seed);
}

/// Group `g` of a tensor whose groups are contiguous `shape`-sized
/// blocks: the channels of a (1, C, H, W) map, or the output banks of
/// (OC, IC, KH, KW) weights.
Tensord group_block(const Tensord& tensor, const Shape4& shape, Dim g) {
  Tensord block(shape);
  const auto first = tensor.data().begin() +
                     static_cast<std::ptrdiff_t>(g * shape.size());
  std::copy(first, first + static_cast<std::ptrdiff_t>(shape.size()),
            block.data().begin());
  return block;
}

/// Write `block` over group `g` of `tensor` (the inverse of group_block).
void write_group_block(Tensord& tensor, const Tensord& block, Dim g) {
  std::copy(block.data().begin(), block.data().end(),
            tensor.data().begin() +
                static_cast<std::ptrdiff_t>(g * block.shape().size()));
}

// Grouped execution one group at a time: slice each group's channels,
// convolve through both backends, scatter into the layer OFM, compare
// layer-level.
TEST(BackendParity, GroupedAndDepthwiseSlices) {
  std::uint64_t seed = 900;
  for (const Dim groups : {2, 4, 8}) {  // 8 groups of 1 ic = depthwise
    const Dim ic = 8, oc = 8, image = 9, kernel = 3;
    const Dim group_ic = ic / groups, group_oc = oc / groups;
    Rng rng(seed++);
    Tensord ifm = Tensord::feature_map(ic, image, image);
    Tensord weights = Tensord::weights(oc, group_ic, kernel, kernel);
    fill_random_int(ifm, rng, 3);
    fill_random_int(weights, rng, 3);
    Tensord via_scalar = Tensord::feature_map(oc, image - kernel + 1,
                                              image - kernel + 1);
    Tensord via_gemm = via_scalar;
    for (Dim g = 0; g < groups; ++g) {
      const Tensord group_ifm =
          group_block(ifm, Shape4{1, group_ic, image, image}, g);
      const Tensord group_weights = group_block(
          weights, Shape4{group_oc, group_ic, kernel, kernel}, g);
      write_group_block(via_scalar, conv2d_direct(group_ifm, group_weights),
                        g);
      write_group_block(via_gemm, conv2d_gemm(group_ifm, group_weights), g);
    }
    EXPECT_TRUE(exactly_equal(via_scalar, via_gemm))
        << groups << " groups";
  }
}

// Bitwise determinism across pools: each output element sums in
// ascending k on one thread, so neither the pool size nor running on
// the calling thread alone may change a single bit.  The case is sized
// past the backend's inline cutoff so the pool actually runs.
TEST(GemmBackend, DeterministicAcrossThreadCounts) {
  Rng rng(4242);
  Tensord ifm = Tensord::feature_map(8, 16, 16);
  Tensord weights = Tensord::weights(16, 8, 3, 3);
  fill_random_int(ifm, rng, 3);
  fill_random_int(weights, rng, 3);
  const ConvConfig config;

  ThreadPool one(1);
  ThreadPool four(4);
  ThreadPool sixteen(16);
  EXPECT_EQ(one.size(), 1);
  EXPECT_EQ(four.size(), 4);
  EXPECT_EQ(sixteen.size(), 16);
  const Tensord base = conv2d_gemm(ifm, weights, config, nullptr);
  for (ThreadPool* pool : {&one, &four, &sixteen}) {
    EXPECT_TRUE(exactly_equal(base, conv2d_gemm(ifm, weights, config, pool)))
        << pool->size() << " worker(s)";
  }
  // ...and identical to the oracle, threads notwithstanding.
  EXPECT_TRUE(exactly_equal(base, conv2d_direct(ifm, weights, config)));
}

/// The convolution as +0.0 plus each product in ascending im2col-row
/// order (ic, then ky, then kx; zero-padding taps included), one output
/// element at a time.
Tensord ascending_k_conv(const Tensord& ifm, const Tensord& weights,
                         const ConvConfig& config) {
  const Shape4& in = ifm.shape();
  const Shape4& w = weights.shape();
  const Dim oh = conv_output_extent(in.d2, w.d2, config.stride_h, config.pad_h);
  const Dim ow = conv_output_extent(in.d3, w.d3, config.stride_w, config.pad_w);
  Tensord ofm = Tensord::feature_map(w.d0, oh, ow);
  for (Dim oc = 0; oc < w.d0; ++oc) {
    for (Dim oy = 0; oy < oh; ++oy) {
      for (Dim ox = 0; ox < ow; ++ox) {
        double total = 0.0;
        for (Dim ic = 0; ic < w.d1; ++ic) {
          for (Dim ky = 0; ky < w.d2; ++ky) {
            for (Dim kx = 0; kx < w.d3; ++kx) {
              const Dim y = oy * config.stride_h + ky - config.pad_h;
              const Dim x = ox * config.stride_w + kx - config.pad_w;
              const bool inside = y >= 0 && y < in.d2 && x >= 0 && x < in.d3;
              total += weights.at(oc, ic, ky, kx) *
                       (inside ? ifm.at(0, ic, y, x) : 0.0);
            }
          }
        }
        ofm.at(0, oc, oy, ox) = total;
      }
    }
  }
  return ofm;
}

// The integer case above cannot see the summation order: integer sums
// are exact in any order.  On non-integer data (element i holds
// i * 0.37, shifted to mix signs) the order decides the low bits, so
// the backend must reproduce the ascending-k loop exactly with no pool
// and with pools of 1, 4 and 16.  Kernel volume 32 * 3 * 3 = 288 spans
// two k blocks; 17 output channels and 14 * 14 windows leave partial
// register blocks in both directions.
TEST(GemmBackend, NonIntegerSumsAscendInKForAnyPool) {
  Tensord ifm = Tensord::feature_map(32, 14, 14);
  Tensord weights = Tensord::weights(17, 32, 3, 3);
  for (std::size_t i = 0; i < ifm.data().size(); ++i) {
    ifm.data()[i] = static_cast<double>(i) * 0.37 - 700.0;
  }
  for (std::size_t i = 0; i < weights.data().size(); ++i) {
    weights.data()[i] = static_cast<double>(i) * 0.37 - 900.0;
  }
  ConvConfig config;
  config.pad_h = 1;
  config.pad_w = 1;
  const Tensord expected = ascending_k_conv(ifm, weights, config);

  ThreadPool one(1);
  ThreadPool four(4);
  ThreadPool sixteen(16);
  EXPECT_TRUE(
      exactly_equal(expected, conv2d_gemm(ifm, weights, config, nullptr)))
      << "no pool";
  for (ThreadPool* pool : {&one, &four, &sixteen}) {
    EXPECT_TRUE(
        exactly_equal(expected, conv2d_gemm(ifm, weights, config, pool)))
        << pool->size() << " worker(s)";
  }
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
