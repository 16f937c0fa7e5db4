// The baseline variant of the GEMM micro-kernel (tensor/gemm_kernel.h),
// compiled with the target's default flags: SSE2 on x86-64, and the
// only variant on other targets.
#include "tensor/gemm_microkernel.h"

namespace vwsdk {

GemmKernel gemm_kernel_baseline() { return kernel_named("baseline"); }

}  // namespace vwsdk
