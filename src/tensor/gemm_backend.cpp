#include "tensor/gemm_backend.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "tensor/gemm_kernel.h"

namespace vwsdk {

namespace {

/// Lower input rows [row_begin, row_end) of the im2col matrix into
/// `columns` (kernel_volume x windows, row-major).  Row r corresponds
/// to kernel element (ic, ky, kx) with r = (ic * kh + ky) * kw + kx:
/// ic-major, then ky, then kx.  Out-of-range taps (zero padding) become
/// explicit zeros, so every element of the row range is written.  Kept
/// out of line for the reason the kernel's entry point is
/// (tensor/gemm_microkernel.h).
[[gnu::noinline]] void pack_rows(const Tensord& ifm, Dim kh, Dim kw,
                                 const ConvConfig& config, Dim oh, Dim ow,
                                 Count row_begin, Count row_end,
                                 double* columns) {
  const Shape4& in = ifm.shape();
  const Dim ih = in.d2;
  const Dim iw = in.d3;
  const double* input = ifm.data().data();
  const Count cols = static_cast<Count>(oh) * ow;
  for (Count r = row_begin; r < row_end; ++r) {
    const Dim kx = static_cast<Dim>(r % kw);
    const Dim ky = static_cast<Dim>((r / kw) % kh);
    const Dim c = static_cast<Dim>(r / (static_cast<Count>(kw) * kh));
    const double* channel =
        input + static_cast<Count>(c) * ih * iw;
    double* row = columns + r * cols;
    for (Dim oy = 0; oy < oh; ++oy) {
      const Dim y = oy * config.stride_h + ky - config.pad_h;
      double* dst = row + static_cast<Count>(oy) * ow;
      if (y < 0 || y >= ih) {
        std::fill(dst, dst + ow, 0.0);
        continue;
      }
      const double* line = channel + static_cast<Count>(y) * iw;
      for (Dim ox = 0; ox < ow; ++ox) {
        const Dim x = ox * config.stride_w + kx - config.pad_w;
        dst[ox] = (x >= 0 && x < iw) ? line[x] : 0.0;
      }
    }
  }
}

}  // namespace

Count GemmKernel::units(const GemmOperands& operands) const {
  VWSDK_ASSERT(operands.lda >= operands.k, "GEMM row stride below k");
  return ceil_div(operands.m, mr) * ceil_div(operands.n, nr);
}

const std::vector<GemmVariant>& gemm_variants() {
  static const std::vector<GemmVariant> variants = [] {
    std::vector<GemmVariant> compiled;
#if defined(VWSDK_GEMM_X86)
    __builtin_cpu_init();
    compiled.push_back(
        {gemm_kernel_avx512(), __builtin_cpu_supports("avx512f") != 0});
    compiled.push_back(
        {gemm_kernel_avx2(), __builtin_cpu_supports("avx2") != 0});
#endif
    compiled.push_back({gemm_kernel_baseline(), true});
    return compiled;
  }();
  return variants;
}

const GemmKernel& gemm_kernel() {
  // The baseline always runs, so the search cannot come up empty.
  static const GemmKernel& chosen =
      std::find_if(gemm_variants().begin(), gemm_variants().end(),
                   [](const GemmVariant& v) { return v.runs_here; })
          ->kernel;
  return chosen;
}

Tensord conv2d_gemm(const Tensord& ifm, const Tensord& weights,
                    const ConvConfig& config, ThreadPool* pool) {
  const Shape4& in = ifm.shape();
  const Shape4& w = weights.shape();
  VWSDK_REQUIRE(in.d0 == 1, "gemm backend expects batch 1");
  VWSDK_REQUIRE(in.d1 == w.d1, cat("IC mismatch: ifm has ", in.d1,
                                   " channels, weights expect ", w.d1));
  const Dim oc = w.d0;
  const Dim kh = w.d2;
  const Dim kw = w.d3;
  const Dim oh = conv_output_extent(in.d2, kh, config.stride_h, config.pad_h);
  const Dim ow = conv_output_extent(in.d3, kw, config.stride_w, config.pad_w);
  const Count rows = static_cast<Count>(in.d1) * kh * kw;  // kernel volume
  const Count cols = static_cast<Count>(oh) * ow;          // windows

  // The lowered im2col matrix, kernel_volume x windows, row-major; left
  // uninitialised, since pack_rows writes every element.
  const auto lowered = std::make_unique_for_overwrite<double[]>(
      static_cast<std::size_t>(rows * cols));
  double* columns = lowered.get();

  Tensord ofm = Tensord::feature_map(oc, oh, ow);
  // The weight tensor's raw storage (OC, IC, KH, KW row-major) is
  // already the OC x kernel_volume left-hand matrix, its columns in the
  // (ic, ky, kx) order of the lowered rows -- no packing needed.
  const double* a = weights.data().data();
  double* c = ofm.data().data();

  const Count macs = static_cast<Count>(oc) * rows * cols;
  ThreadPool* const fan_out = macs < kParallelCutoffMacs ? nullptr : pool;
  parallel_chunks(fan_out, rows, [&](Count begin, Count end) {
    pack_rows(ifm, kh, kw, config, oh, ow, begin, end, columns);
  });
  const GemmKernel& kernel = gemm_kernel();
  const GemmOperands operands{a, columns, c, oc, rows, cols, rows};
  parallel_chunks(fan_out, kernel.units(operands),
                  [&](Count begin, Count end) {
                    kernel.multiply(operands, begin, end);
                  });
  return ofm;
}

}  // namespace vwsdk
