#pragma once

/// @file gemm_kernel.h
/// The GEMM micro-kernel, compiled once per ISA and chosen once per
/// process.  It has two callers: the `gemm` reference backend
/// (tensor/gemm_backend.h) and the crossbar executor (sim/executor.h),
/// which runs each tile's read-outs through it.
///
/// One register-blocked kernel source (tensor/gemm_microkernel.h) is
/// compiled in three translation units, each at its own native vector
/// width: gemm_kernel_avx512.cpp (`-mavx512f`, 64-byte vectors, 6x24
/// register block), gemm_kernel_avx2.cpp (`-mavx2`, 32-byte, 4x12) and
/// gemm_kernel_baseline.cpp (the target's default flags; SSE2 on
/// x86-64, 16-byte, 4x6).  Off x86-64 GCC/Clang only the baseline unit
/// is built.  Every unit is compiled with contraction off, so no
/// multiply-add is ever fused.
///
/// `gemm_kernel()` resolves the widest variant this CPU runs on its
/// first call and keeps it for the life of the process; no flag or
/// environment variable selects a variant.  Every variant computes
/// every output element as +0.0 plus its products in ascending k, each
/// product rounded before it is added -- bitwise the same result from
/// each variant, for any unit range split across any threads.

#include <vector>

#include "common/types.h"

namespace vwsdk {

/// Below this many multiply-adds per fan-out the pool's dispatch costs
/// more than the arithmetic it spreads: the kernel's callers (the `gemm`
/// backend per convolution, the executor per tile) pass a null pool
/// instead.  The result is bitwise the same either way.
constexpr Count kParallelCutoffMacs = Count{1} << 15;

/// C = A * B on row-major operands: A is m x k with row stride `lda`
/// (row i starts at a + i * lda, and the kernel reads only its first k
/// elements), B is k x n and C is m x n, both dense.  A strided A lets a
/// caller pass a block of a larger matrix without copying it.  The
/// kernel overwrites every element of C.
struct GemmOperands {
  const double* a = nullptr;
  const double* b = nullptr;
  double* c = nullptr;
  Count m = 0;
  Count k = 0;
  Count n = 0;
  Count lda = 0;  ///< A's row stride, at least k (units() checks)
};

/// One compiled variant of the kernel.  Its work splits into units: a
/// unit is one `nr`-wide column stripe of one `mr`-row block of C,
/// numbered stripe-major, so any split of [0, units) into ranges hands
/// each output element to exactly one range.
struct GemmKernel {
  const char* name = "";  ///< "avx512", "avx2" or "baseline"
  Count mr = 1;           ///< rows of C per register block
  Count nr = 1;           ///< columns of C per register block
  /// Compute the units [unit_begin, unit_end) of `operands`.
  void (*multiply)(const GemmOperands& operands, Count unit_begin,
                   Count unit_end) = nullptr;

  /// Number of units `operands` splits into.
  Count units(const GemmOperands& operands) const;
};

/// A variant compiled into this build and whether this CPU runs it.
struct GemmVariant {
  GemmKernel kernel;       ///< the variant
  bool runs_here = false;  ///< this CPU supports its instructions
};

/// Every variant compiled into this build, widest first; the CPU is
/// probed once, on the first call.
const std::vector<GemmVariant>& gemm_variants();

/// The widest variant this CPU runs, resolved on the first call.
const GemmKernel& gemm_kernel();

/// The per-ISA translation units' entry points (see the file comment);
/// call them through gemm_variants(), which knows whether the CPU can.
GemmKernel gemm_kernel_avx512();
GemmKernel gemm_kernel_avx2();
GemmKernel gemm_kernel_baseline();

}  // namespace vwsdk
