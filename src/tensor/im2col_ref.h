#pragma once

/// @file im2col_ref.h
/// The im2col row order.
///
/// In the paper's im2col mapping (Fig. 2(a)) each kernel-sized input
/// window becomes a column of a matrix and each kernel a row, so the
/// convolution becomes one matrix-matrix product.  The one ordering of
/// kernel elements inside such a column (ic-major, then ky, then kx) is
/// shared by the im2col mapping plan builder and the gemm backend's
/// lowering, so layout bugs surface in one place.

#include "common/types.h"

namespace vwsdk {

/// The flattened-row index of kernel element (ic, ky, kx) inside an im2col
/// column, for a K_h x K_w kernel.  Order: ic-major, then ky, then kx --
/// matching the paper's "unroll each 3-D kernel into a column" (§II-A).
Dim im2col_row_index(Dim ic_index, Dim ky, Dim kx, Dim kh, Dim kw);

}  // namespace vwsdk
