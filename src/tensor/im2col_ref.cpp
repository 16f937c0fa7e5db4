#include "tensor/im2col_ref.h"

#include "common/error.h"

namespace vwsdk {

Dim im2col_row_index(Dim ic_index, Dim ky, Dim kx, Dim kh, Dim kw) {
  VWSDK_REQUIRE(ic_index >= 0 && ky >= 0 && ky < kh && kx >= 0 && kx < kw,
                "im2col_row_index: bad kernel coordinate");
  return (ic_index * kh + ky) * kw + kx;
}

}  // namespace vwsdk
