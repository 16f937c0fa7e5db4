#pragma once

/// @file exec_backend.h
/// The names of the reference-convolution backends.
///
/// Every mapped execution in this repo is checked against a software
/// reference convolution.  Callers pick its implementation by name
/// through `ExecutionOptions::ref_backend`, the CLI's `--ref-backend`
/// flag, or the `VWSDK_REF_BACKEND` environment variable (see
/// `resolve_ref_backend`); `reference_convolution` (sim/verifier.h)
/// runs the one the name resolves to.
///
/// The backends form a constant two-row table in exec_backend.cpp, in
/// presentation order:
///   * `scalar` (alias `direct`) -- conv2d_direct (tensor/conv_ref.h),
///     the obviously-correct oracle;
///   * `gemm` (alias `im2col-gemm`) -- conv2d_gemm
///     (tensor/gemm_backend.h): blocked im2col + register-blocked GEMM
///     on the caller's thread pool, the fast default.
///
/// Contract: on integer-valued tensors (the verification convention,
/// see tensor.h) `gemm` produces an OFM bitwise identical to `scalar`,
/// for any pool (or none) -- pinned by the parity suite in
/// tests/tensor/test_exec_backend.cpp and the bench_exec gate.

#include <string>

namespace vwsdk {

/// The canonical backend names in presentation order, joined as
/// "scalar, gemm" -- what error messages and help embed.
std::string ref_backend_names();

/// The canonical name of the backend a verification should use:
/// `requested` when non-empty, else the `VWSDK_REF_BACKEND` environment
/// variable when set and non-empty, else "gemm" (fast, and bitwise
/// identical to the scalar oracle on the integer tensors verification
/// uses).  Names and aliases match case-insensitively, surrounding
/// whitespace ignored.  Throws NotFound listing the known names when
/// the requested or environment name is unknown.
std::string resolve_ref_backend(const std::string& requested = {});

}  // namespace vwsdk
