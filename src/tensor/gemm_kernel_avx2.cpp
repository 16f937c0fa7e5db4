// The AVX2 variant of the GEMM micro-kernel (tensor/gemm_kernel.h);
// CMakeLists.txt compiles this unit alone with -mavx2.
#if !defined(__AVX2__)
#error "gemm_kernel_avx2.cpp must be compiled with -mavx2"
#endif

#include "tensor/gemm_microkernel.h"

namespace vwsdk {

GemmKernel gemm_kernel_avx2() { return kernel_named("avx2"); }

}  // namespace vwsdk
