#pragma once

/// @file exec_backend.h
/// Pluggable execution backends for the reference convolution.
///
/// Every mapped execution in this repo is checked against a software
/// reference convolution, which made the scalar 7-deep loop of
/// conv_ref.cpp the slowest test path (large-network end-to-end
/// verification pays it per stage and per group).  This header makes
/// the reference pluggable: a `RefBackend` computes the same OFM, and
/// callers pick one by name through `ExecutionOptions::ref_backend`,
/// the CLI's `--ref-backend` flag, or the `VWSDK_REF_BACKEND`
/// environment variable (see `resolve_ref_backend`).
///
/// The backends form a constant two-row table in exec_backend.cpp, in
/// presentation order:
///   * `scalar` (alias `direct`) -- conv2d_direct, the obviously-correct
///     oracle;
///   * `gemm` (alias `im2col-gemm`) -- blocked im2col + register-blocked
///     GEMM on the caller's thread pool (tensor/gemm_backend.h), the
///     fast default.
///
/// Contract: on integer-valued tensors (the verification convention,
/// see tensor.h) every backend must produce an OFM bitwise identical to
/// `scalar`, for any pool (or none) -- pinned by the parity suite in
/// tests/tensor/test_exec_backend.cpp and the bench_exec gate.

#include <string>
#include <vector>

#include "tensor/conv_ref.h"
#include "tensor/tensor.h"

namespace vwsdk {

class ThreadPool;

/// Reusable scratch memory for backend convolutions.  Passing the same
/// workspace across calls lets a backend keep its im2col buffer
/// allocated instead of reallocating per convolution.  Backends that need no
/// scratch simply ignore it.
struct ConvWorkspace {
  /// The lowered im2col matrix, kernel_volume x windows, row-major.
  std::vector<double> columns;
};

/// Interface of a reference-convolution implementation.
class RefBackend {
 public:
  virtual ~RefBackend() = default;

  /// The convolution conv2d_direct computes, same shapes and validation.
  ///
  /// @param ifm       feature map, shape (1, IC, H, W).
  /// @param weights   kernel bank, shape (OC, IC, KH, KW).
  /// @param config    stride / padding.
  /// @param workspace optional scratch reused across calls; nullptr
  ///                  means the backend allocates locally.
  /// @param pool      pool to fan the work out over, borrowed; nullptr
  ///                  runs it on the calling thread.
  /// @return          feature map, shape (1, OC, OH, OW).
  virtual Tensord conv2d(const Tensord& ifm, const Tensord& weights,
                         const ConvConfig& config = ConvConfig(),
                         ConvWorkspace* workspace = nullptr,
                         ThreadPool* pool = nullptr) const = 0;
};

/// The shared instance of the backend `name` resolves to (canonical
/// name or alias, case-insensitive, surrounding whitespace ignored);
/// throws NotFound listing the known names.  Each backend is one
/// process-lifetime instance: backends hold no state; scratch and
/// threads come from the caller.
const RefBackend& ref_backend(const std::string& name);

/// The canonical backend names in presentation order, joined as
/// "scalar, gemm" -- what error messages and help embed.
std::string ref_backend_names();

/// The canonical name of the backend a verification should use:
/// `requested` when non-empty, else the `VWSDK_REF_BACKEND` environment
/// variable when set and non-empty, else "gemm" (fast, and bitwise
/// identical to the scalar oracle on the integer tensors verification
/// uses).  Throws NotFound listing the known names when the
/// requested or environment name is unknown.
std::string resolve_ref_backend(const std::string& requested = {});

}  // namespace vwsdk
