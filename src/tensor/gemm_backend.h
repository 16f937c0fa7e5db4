#pragma once

/// @file gemm_backend.h
/// The fast reference convolution (the `gemm` backend of
/// tensor/exec_backend.h): blocked im2col + register-blocked GEMM.
///
/// This is the software analogue of the paper's im2col framing (§II-A)
/// turned into an execution engine: the input feature map is lowered
/// into a kernel_volume x windows matrix (rows ordered (ic, ky, kx),
/// ic-major, then ky, then kx -- the paper's "unroll each 3-D kernel
/// into a column" (§II-A) -- so the weight tensor's raw storage already
/// IS the left-hand matrix), and the convolution becomes one dense
/// matrix-matrix product on the register-blocked micro-kernel of
/// tensor/gemm_kernel.h, fanned out over the caller's thread pool.
/// The kernel comes in one variant per ISA (AVX-512, AVX2, baseline),
/// each compiled at its own vector width; the widest the CPU runs is
/// chosen once per process, and no flag or environment variable
/// selects it.  Each unit of work is one column stripe of one row
/// block of the output, whose slice of the im2col matrix is packed
/// into a panel of at most 48 KiB.  The im2col matrix is allocated
/// per call.
///
/// Determinism contract (what lets `gemm` replace the scalar oracle on
/// the verification paths): each output element sums in ascending k on
/// one thread -- +0.0, then every product, rounded, added in ascending
/// kernel-row order, with no fused multiply-add and no zero weight
/// skipped.  The result is therefore bitwise identical for every
/// variant and any pool (or none), on any data, and bitwise identical
/// to conv2d_direct on integer-valued tensors (integer sums are exact
/// in double regardless of association).  Pinned by
/// tests/tensor/test_exec_backend.cpp and
/// tests/tensor/test_gemm_kernel.cpp, and gated by bench_exec.

#include "tensor/conv_ref.h"
#include "tensor/tensor.h"

namespace vwsdk {

class ThreadPool;

/// The convolution conv2d_direct computes, same shapes, as blocked
/// im2col + register-blocked GEMM.
///
/// @param ifm      feature map, shape (1, IC, H, W).
/// @param weights  kernel bank, shape (OC, IC, KH, KW).
/// @param config   stride / padding.
/// @param pool     pool to fan the work out over, borrowed; nullptr
///                 runs it on the calling thread.
/// @return         feature map, shape (1, OC, OH, OW).
Tensord conv2d_gemm(const Tensord& ifm, const Tensord& weights,
                    const ConvConfig& config = ConvConfig(),
                    ThreadPool* pool = nullptr);

}  // namespace vwsdk
