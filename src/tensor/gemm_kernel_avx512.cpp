// The AVX-512 variant of the GEMM micro-kernel (tensor/gemm_kernel.h);
// CMakeLists.txt compiles this unit alone with -mavx512f.
#if !defined(__AVX512F__)
#error "gemm_kernel_avx512.cpp must be compiled with -mavx512f"
#endif

#include "tensor/gemm_microkernel.h"

namespace vwsdk {

GemmKernel gemm_kernel_avx512() { return kernel_named("avx512"); }

}  // namespace vwsdk
