#pragma once

/// @file gemm_microkernel.h
/// The one register-blocked GEMM micro-kernel source (tensor/gemm_kernel.h).
///
/// Include it from exactly one `gemm_kernel_<isa>.cpp` translation unit
/// and from nowhere else: everything here is TU-local, and its vector
/// width comes from the ISA the including unit is compiled for, so each
/// unit gets code at its own native width.  (A 64-byte vector type in a
/// unit without AVX-512 lowers through memory and runs several times
/// slower than the unit's native width.)
///
/// Algorithm: C is cut into `kMr` x `kNr` register blocks.  For each
/// `kNr`-wide column stripe and each `kKc`-deep block of k, the stripe's
/// rows of B are packed into one contiguous `kKc` x `kNr` panel (zero
/// padded past n), then every register block of the unit range runs
/// over it: its accumulators start at +0.0 on the first k block and are
/// reloaded from C on later ones (a store and reload is exact), and add
/// a(i, k) * b(k, j) in ascending k.  A stays as stored, read in place
/// through its row stride `lda`.

#include <algorithm>
#include <cstring>

#include "common/math_util.h"
#include "tensor/gemm_kernel.h"

namespace vwsdk {
namespace {

#if defined(__AVX512F__)
constexpr int kVectorBytes = 64;
constexpr int kMr = 6;
#elif defined(__AVX2__)
constexpr int kVectorBytes = 32;
constexpr int kMr = 4;
#else
constexpr int kVectorBytes = 16;
constexpr int kMr = 4;
#endif

constexpr int kLanes = kVectorBytes / static_cast<int>(sizeof(double));
// Three vectors per block row: with kMr rows that is 18 accumulators
// at AVX-512 (of 32 registers) and 12 below it (of 16).
constexpr int kVectorsPerRow = 3;
constexpr int kNr = kLanes * kVectorsPerRow;
// 256 deep: the AVX-512 panel is 256 x 24 doubles = 48 KiB.
constexpr Count kKc = 256;

#if defined(__GNUC__)
typedef double Vec __attribute__((vector_size(kVectorBytes)));
#else
// Compilers without GNU vector extensions get the same arithmetic on
// a plain array, lane by lane.
struct Vec {
  double lane[kLanes] = {};
  Vec& operator+=(const Vec& other) {
    for (int l = 0; l < kLanes; ++l) {
      lane[l] += other.lane[l];
    }
    return *this;
  }
};
inline Vec operator*(double scalar, const Vec& v) {
  Vec product;
  for (int l = 0; l < kLanes; ++l) {
    product.lane[l] = scalar * v.lane[l];
  }
  return product;
}
#endif

inline Vec load(const double* from) {
  Vec v;
  std::memcpy(&v, from, sizeof v);
  return v;
}

inline void store(double* to, const Vec& v) { std::memcpy(to, &v, sizeof v); }

/// Copy rows [k0, k0 + kb) x columns [n0, n0 + nb) of B into `panel`
/// (kb x kNr, row-major), zero filling columns nb..kNr-1.
void pack_panel(const GemmOperands& g, Count n0, Count nb, Count k0, Count kb,
                double* panel) {
  for (Count kk = 0; kk < kb; ++kk) {
    const double* from = g.b + (k0 + kk) * g.n + n0;
    double* to = panel + kk * kNr;
    std::copy(from, from + nb, to);
    std::fill(to + nb, to + kNr, 0.0);
  }
}

/// One register block: rows [m0, m0 + kRows) x columns [n0, n0 + nb)
/// of C over k block [k0, k0 + kb), with B's rows already in `panel`.
template <int kRows>
void block(const GemmOperands& g, const double* panel, Count m0, Count n0,
           Count nb, Count k0, Count kb) {
  double* c = g.c + m0 * g.n + n0;
  Vec acc[kRows][kVectorsPerRow] = {};
  for (int i = 0; k0 > 0 && i < kRows; ++i) {
    const double* row = c + i * g.n;
    if (nb < kNr) {
      double staged[kNr] = {};  // the tail stripe's row, zero padded
      std::copy(row, row + nb, staged);
      for (int j = 0; j < kVectorsPerRow; ++j) {
        acc[i][j] = load(staged + j * kLanes);
      }
      continue;
    }
    for (int j = 0; j < kVectorsPerRow; ++j) {
      acc[i][j] = load(row + j * kLanes);
    }
  }

  const double* a[kRows] = {};
  for (int i = 0; i < kRows; ++i) {
    a[i] = g.a + (m0 + i) * g.lda + k0;
  }
  for (Count kk = 0; kk < kb; ++kk) {
    const double* b = panel + kk * kNr;
    Vec b_row[kVectorsPerRow] = {};
    for (int j = 0; j < kVectorsPerRow; ++j) {
      b_row[j] = load(b + j * kLanes);
    }
    for (int i = 0; i < kRows; ++i) {
      const double weight = a[i][kk];
      for (int j = 0; j < kVectorsPerRow; ++j) {
        acc[i][j] += weight * b_row[j];
      }
    }
  }

  for (int i = 0; i < kRows; ++i) {
    double* row = c + i * g.n;
    if (nb < kNr) {
      double staged[kNr] = {};
      for (int j = 0; j < kVectorsPerRow; ++j) {
        store(staged + j * kLanes, acc[i][j]);
      }
      std::copy(staged, staged + nb, row);
      continue;
    }
    for (int j = 0; j < kVectorsPerRow; ++j) {
      store(row + j * kLanes, acc[i][j]);
    }
  }
}

/// `block<rows>` for a run-time `rows` in [1, kRows]: the last row block
/// of C may be short.
template <int kRows>
void block_rows(Count rows, const GemmOperands& g, const double* panel,
                Count m0, Count n0, Count nb, Count k0, Count kb) {
  if constexpr (kRows > 1) {
    if (rows < kRows) {
      block_rows<kRows - 1>(rows, g, panel, m0, n0, nb, k0, kb);
      return;
    }
  }
  block<kRows>(g, panel, m0, n0, nb, k0, kb);
}

/// GemmKernel::multiply.  Kept out of line: GCC 12 spilled the loop
/// bounds of a GEMM loop inlined into a parallel_chunks lambda to the
/// stack, and it ran ~1.6x slower.
[[gnu::noinline]] void multiply(const GemmOperands& g, Count unit_begin,
                                Count unit_end) {
  alignas(64) double panel[kKc * kNr] = {};
  const Count row_blocks = ceil_div(g.m, kMr);
  Count unit = unit_begin;
  while (unit < unit_end) {
    const Count stripe = unit / row_blocks;
    const Count first_block = unit % row_blocks;
    const Count last_block =
        std::min(row_blocks, first_block + (unit_end - unit));
    const Count n0 = stripe * kNr;
    const Count nb = std::min<Count>(kNr, g.n - n0);
    // At least one k block, so k == 0 still writes C's zeros.
    Count k0 = 0;
    do {
      const Count kb = std::min(kKc, g.k - k0);
      pack_panel(g, n0, nb, k0, kb, panel);
      for (Count rb = first_block; rb < last_block; ++rb) {
        const Count m0 = rb * kMr;
        block_rows<kMr>(std::min<Count>(kMr, g.m - m0), g, panel, m0, n0, nb,
                        k0, kb);
      }
      k0 += kKc;
    } while (k0 < g.k);
    unit += last_block - first_block;
  }
}

/// This unit's GemmKernel, named `name`.
GemmKernel kernel_named(const char* name) {
  GemmKernel kernel;
  kernel.name = name;
  kernel.mr = kMr;
  kernel.nr = kNr;
  kernel.multiply = &multiply;
  return kernel;
}

}  // namespace
}  // namespace vwsdk
