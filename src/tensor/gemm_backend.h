#pragma once

/// @file gemm_backend.h
/// The fast reference-convolution backend: blocked im2col + tiled GEMM.
///
/// This is the software analogue of the paper's im2col framing (§II-A)
/// turned into an execution engine: the input feature map is lowered
/// into a kernel_volume x windows matrix (rows in exactly the
/// im2col_row_index order, so the weight tensor's raw storage already
/// IS the left-hand matrix), and the convolution becomes one dense
/// matrix-matrix product, cache-blocked and fanned out across the
/// caller's thread pool.
///
/// Determinism contract (what lets `gemm` replace the scalar oracle on
/// the verification paths): every output element accumulates its terms
/// in ascending kernel-row order, each output row is computed wholly by
/// one thread, and zero weights are not skipped -- so the result is
/// bitwise identical for any pool (or none), and bitwise identical to
/// conv2d_direct on integer-valued tensors (integer sums are exact in
/// double regardless of association).  Pinned by
/// tests/tensor/test_exec_backend.cpp and gated by bench_exec.

#include "tensor/exec_backend.h"

namespace vwsdk {

/// Blocked im2col + tiled GEMM convolution, fanned out over the pool
/// the caller passes (nullptr runs it on the calling thread).
class GemmBackend : public RefBackend {
 public:
  Tensord conv2d(const Tensord& ifm, const Tensord& weights,
                 const ConvConfig& config, ConvWorkspace* workspace,
                 ThreadPool* pool) const override;
};

}  // namespace vwsdk
