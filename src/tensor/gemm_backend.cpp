#include "tensor/gemm_backend.h"

#include <algorithm>

#include "common/error.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace vwsdk {

namespace {

// Cache blocking: the inner product walks kKc kernel rows of a kNc-wide
// column stripe, so the working set (one A sliver, one B block, one C
// stripe) stays L1/L2-resident; the chunk of output rows handed to one
// thread by parallel_chunks plays the `mc` role.
constexpr Count kKc = 256;
constexpr Count kNc = 128;

// Below this many MACs the pool dispatch overhead dominates the
// arithmetic; run on the calling thread instead (the result is bitwise
// identical either way, see gemm_backend.h).
constexpr Count kParallelCutoffMacs = Count{1} << 15;

/// Lower input rows [row_begin, row_end) of the im2col matrix into
/// `columns` (kernel_volume x windows, row-major).  Row r corresponds
/// to kernel element (ic, ky, kx) with r = im2col_row_index(ic, ky,
/// kx); out-of-range taps (zero padding) become explicit zeros, so
/// every element of the row range is written.  Kept out of line, like
/// multiply_rows: see there.
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

/// C[m, :] += A[m, :] * B for output rows [m_begin, m_end): column
/// stripes of kNc, kernel blocks of kKc, then a contiguous axpy.  Per
/// output element the terms accumulate in ascending k -- the same order
/// for any blocking or thread chunking, which is what makes the backend
/// deterministic (see gemm_backend.h).  Kept out of line: inlined into
/// its only caller, the parallel_chunks lambda, GCC 12 spills the axpy's
/// loop bounds to the stack and the kernel runs ~1.6x slower.
[[gnu::noinline]] void multiply_rows(const double* a, const double* b,
                                     double* c, Count m_begin, Count m_end,
                                     Count k_total, Count n_total) {
  for (Count n0 = 0; n0 < n_total; n0 += kNc) {
    const Count nb = std::min(kNc, n_total - n0);
    for (Count k0 = 0; k0 < k_total; k0 += kKc) {
      const Count k_end = std::min(k0 + kKc, k_total);
      for (Count m = m_begin; m < m_end; ++m) {
        const double* a_row = a + m * k_total;
        double* c_row = c + m * n_total + n0;
        for (Count k = k0; k < k_end; ++k) {
          const double weight = a_row[k];
          const double* b_row = b + k * n_total + n0;
          for (Count n = 0; n < nb; ++n) {
            c_row[n] += weight * b_row[n];
          }
        }
      }
    }
  }
}

}  // namespace

Tensord GemmBackend::conv2d(const Tensord& ifm, const Tensord& weights,
                            const ConvConfig& config,
                            ConvWorkspace* workspace,
                            ThreadPool* pool) const {
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

  ConvWorkspace local;
  ConvWorkspace& scratch = workspace != nullptr ? *workspace : local;
  scratch.columns.resize(static_cast<std::size_t>(rows * cols));
  double* columns = scratch.columns.data();

  Tensord ofm = Tensord::feature_map(oc, oh, ow);
  // The weight tensor's raw storage (OC, IC, KH, KW row-major) is
  // already the OC x kernel_volume left-hand matrix in im2col_row_index
  // order -- no packing needed.
  const double* a = weights.data().data();
  double* c = ofm.data().data();

  const Count macs = static_cast<Count>(oc) * rows * cols;
  ThreadPool* const fan_out = macs < kParallelCutoffMacs ? nullptr : pool;
  parallel_chunks(fan_out, rows, [&](Count begin, Count end) {
    pack_rows(ifm, kh, kw, config, oh, ow, begin, end, columns);
  });
  parallel_chunks(fan_out, oc, [&](Count begin, Count end) {
    multiply_rows(a, columns, c, begin, end, rows, cols);
  });
  return ofm;
}

}  // namespace vwsdk
