// The AVX2 (FMA, PCLMUL) backend. This is the only translation unit in the
// tree allowed to touch <immintrin.h> (lint rule det/simd-intrinsics); it
// is compiled with -mavx2 -mfma -mpclmul -ffp-contract=off and reached only
// through the runtime dispatch in simd.cc, so a host without AVX2 never
// executes a vector instruction.
//
// Bit-identity with the scalar backend (the contract in simd.h) rests on
// five facts encoded below:
//   * elementwise lanes use vmulps/vaddps — exactly rounded, never fused —
//     so each lane is the identical IEEE operation the scalar loop does;
//   * the spmm_row strips keep up to 64 floats of the output row in
//     registers but still add each element's products in ascending edge
//     order, skipping a zero coefficient by the scalar loop's own branch;
//   * the gemm tile keeps a block of C in registers but still adds each
//     element's products in ascending k, and replaces the scalar zero skip
//     by masking the product to +0, which is exact because C never holds
//     -0;
//   * the double dot uses vfmaddpd only because float*float is exact in
//     double, making fusion bit-neutral; the lane partition (i mod 4) and
//     fold order (l0 + l1) + (l2 + l3) match the scalar backend;
//   * max uses the vmaxps select `(acc > x) ? acc : x` and a fixed
//     pairwise fold, and the ReLU pair uses ordered-quiet compares so NaN
//     and signed-zero handling matches the scalar branches.
// The CRC is integer arithmetic over GF(2), so it has no rounding to match:
// the carry-less fold computes the same polynomial remainder the table
// kernel does, and hands it the pieces too short to fold.

#include "simd/kernels.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__PCLMUL__)
#include <immintrin.h>

#include "common/crc32.h"
#endif

namespace sgnn::simd::internal {

bool CpuHasAvx2FmaPclmul() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

#if defined(__AVX2__) && defined(__FMA__) && defined(__PCLMUL__)

namespace {

void AxpyAvx2(float alpha, const float* x, float* y, int64_t n) {
  // 4x unrolled for the long rows of tensor::Axpy. Every lane is
  // independent (one unfused mul + add per element), so the unroll is
  // bit-neutral.
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256 p0 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    const __m256 p1 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i + 8));
    const __m256 p2 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i + 16));
    const __m256 p3 = _mm256_mul_ps(va, _mm256_loadu_ps(x + i + 24));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), p0));
    _mm256_storeu_ps(y + i + 8,
                     _mm256_add_ps(_mm256_loadu_ps(y + i + 8), p1));
    _mm256_storeu_ps(y + i + 16,
                     _mm256_add_ps(_mm256_loadu_ps(y + i + 16), p2));
    _mm256_storeu_ps(y + i + 24,
                     _mm256_add_ps(_mm256_loadu_ps(y + i + 24), p3));
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// Lanes [0, live) of one vector, for the last, partial vector of a strip.
__m256i TailMask(int64_t live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One 8V-float strip of the SpMM output row held in registers across the
/// whole gather: loaded once, then per nonzero c[i] the same strip of x row
/// idx[i] is scaled and added unfused, in ascending i, then stored once.
/// With kTail the last vector covers only the lanes of `tail`. Returns the
/// number of nonzero c[i].
template <int V, bool kTail>
uint64_t SpmmStripAvx2(const float* x, int64_t ld, const uint32_t* idx,
                       const float* c, int64_t count, float* y,
                       __m256i tail) {
  auto load = [tail](const float* src, int v) {
    return (kTail && v == V - 1) ? _mm256_maskload_ps(src, tail)
                                 : _mm256_loadu_ps(src);
  };
  __m256 acc[V];
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) acc[v] = load(y + 8 * v, v);
  uint64_t applied = 0;
  for (int64_t i = 0; i < count; ++i) {
    if (c[i] == 0.0f) continue;
    ++applied;
    const __m256 cv = _mm256_broadcast_ss(c + i);
    const float* xr = x + static_cast<int64_t>(idx[i]) * ld;
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(cv, load(xr + 8 * v, v)));
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) {
    if (kTail && v == V - 1) {
      _mm256_maskstore_ps(y + 8 * v, tail, acc[v]);
    } else {
      _mm256_storeu_ps(y + 8 * v, acc[v]);
    }
  }
  return applied;
}

/// The last strip of a row: `rest` (1..64) floats in V = ceil(rest / 8)
/// vectors, the last one masked when it is partial.
template <int V>
uint64_t SpmmLastStripAvx2(const float* x, int64_t ld, const uint32_t* idx,
                           const float* c, int64_t count, float* y,
                           int64_t rest) {
  const int64_t live = rest - 8 * (V - 1);
  return live == 8 ? SpmmStripAvx2<V, false>(x, ld, idx, c, count, y,
                                             _mm256_set1_epi32(-1))
                   : SpmmStripAvx2<V, true>(x, ld, idx, c, count, y,
                                            TailMask(live));
}

/// SpmmLastStripAvx2<V> at index V - 1.
constexpr uint64_t (*kSpmmLastStrip[8])(const float*, int64_t,
                                        const uint32_t*, const float*,
                                        int64_t, float*, int64_t) = {
    SpmmLastStripAvx2<1>, SpmmLastStripAvx2<2>, SpmmLastStripAvx2<3>,
    SpmmLastStripAvx2<4>, SpmmLastStripAvx2<5>, SpmmLastStripAvx2<6>,
    SpmmLastStripAvx2<7>, SpmmLastStripAvx2<8>};

uint64_t SpmmRowAvx2(const float* x, int64_t ld, const uint32_t* idx,
                     const float* c, int64_t count, float* y, int64_t n) {
  // Strips of 64 floats (eight registers), then one strip of the 1..8
  // vectors left. Every strip sees the same coefficients, so the last
  // strip's count is the row's.
  if (n == 0) {
    uint64_t applied = 0;
    for (int64_t i = 0; i < count; ++i) applied += c[i] != 0.0f;
    return applied;
  }
  int64_t j = 0;
  for (; j + 64 < n; j += 64) {
    SpmmStripAvx2<8, false>(x + j, ld, idx, c, count, y + j,
                            _mm256_set1_epi32(-1));
  }
  return kSpmmLastStrip[(n - j - 1) / 8](x + j, ld, idx, c, count, y + j,
                                          n - j);
}

/// One R x 8V block of C held in registers across the whole k panel. Per
/// p, the V vectors of b row p are loaded once and reused by all R rows;
/// each product is masked to +0 where A(r,p) == 0 (either sign; NaN stays
/// live, as in the scalar `av == 0` skip) and added unfused. With kTail the
/// last vector covers only the lanes of `tail`.
template <int R, int V, bool kTail>
void GemmBlockAvx2(const float* a, int64_t a_row_stride, int64_t a_k_stride,
                   const float* b, float* c, int64_t k, int64_t n,
                   __m256i tail) {
  auto load = [tail](const float* src, int v) {
    return (kTail && v == V - 1) ? _mm256_maskload_ps(src, tail)
                                 : _mm256_loadu_ps(src);
  };
  // The unroll pragmas let the compiler keep acc in registers.
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = load(c + r * n + 8 * v, v);
  }
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const float* ap = a + p * a_k_stride;
    const float* bp = b + p * n;
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = load(bp + 8 * v, v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * a_row_stride);
      const __m256 live = _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_ps(
            acc[r][v], _mm256_and_ps(_mm256_mul_ps(av, bv[v]), live));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      float* dst = c + r * n + 8 * v;
      if (kTail && v == V - 1) {
        _mm256_maskstore_ps(dst, tail, acc[r][v]);
      } else {
        _mm256_storeu_ps(dst, acc[r][v]);
      }
    }
  }
}

/// One 8V-column strip of C, all rows: blocks of four, then the 1..3 left.
template <int V, bool kTail>
void GemmStripAvx2(const float* a, int64_t a_row_stride, int64_t a_k_stride,
                   const float* b, float* c, int64_t rows, int64_t k,
                   int64_t n, __m256i tail) {
  constexpr void (*kBlock[])(const float*, int64_t, int64_t, const float*,
                             float*, int64_t, int64_t, __m256i) = {
      nullptr, GemmBlockAvx2<1, V, kTail>, GemmBlockAvx2<2, V, kTail>,
      GemmBlockAvx2<3, V, kTail>, GemmBlockAvx2<4, V, kTail>};
  for (int64_t r = 0; r < rows; r += 4) {
    kBlock[rows - r < 4 ? rows - r : 4](a + r * a_row_stride, a_row_stride,
                                        a_k_stride, b, c + r * n, k, n, tail);
  }
}

uint64_t GemmAvx2(const float* a, int64_t a_row_stride, int64_t a_k_stride,
                  const float* b, float* c, int64_t rows, int64_t k,
                  int64_t n) {
  // Column strips of 16, then one of 8, then a masked partial vector. The
  // b strip (k x 16 floats) stays in L1 while the row blocks walk it.
  const __m256i all = _mm256_set1_epi32(-1);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    GemmStripAvx2<2, false>(a, a_row_stride, a_k_stride, b + j, c + j, rows,
                            k, n, all);
  }
  if (j + 8 <= n) {
    GemmStripAvx2<1, false>(a, a_row_stride, a_k_stride, b + j, c + j, rows,
                            k, n, all);
    j += 8;
  }
  if (j < n) {
    GemmStripAvx2<1, true>(a, a_row_stride, a_k_stride, b + j, c + j, rows,
                           k, n, TailMask(n - j));
  }
  // Count along A's unit stride when it has one (both tensor callers do),
  // so the compare loop vectorizes.
  const bool k_inner = a_k_stride == 1;
  const int64_t outer = k_inner ? rows : k, inner = k_inner ? k : rows;
  const int64_t outer_stride = k_inner ? a_row_stride : a_k_stride;
  const int64_t inner_stride = k_inner ? 1 : a_row_stride;
  uint64_t nnz = 0;
  for (int64_t o = 0; o < outer; ++o) {
    const float* x = a + o * outer_stride;
    for (int64_t i = 0; i < inner; ++i) nnz += x[i * inner_stride] != 0.0f;
  }
  return nnz;
}

void ScaleAvx2(float alpha, float* y, int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] *= alpha;
}

void MulAvx2(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void AddAvx2(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void AddScalarAvx2(float alpha, float* y, int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] += alpha;
}

void ReluAvx2(float* y, int64_t n) {
  // blendv on `v < 0`, not max(v, 0): max would rewrite -0.0f to +0.0f
  // where the scalar branch keeps it, and the ordered-quiet compare passes
  // NaN through exactly like `if (v < 0)` does.
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(y + i);
    const __m256 neg = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(y + i, _mm256_blendv_ps(v, zero, neg));
  }
  for (; i < n; ++i) {
    if (y[i] < 0.0f) y[i] = 0.0f;
  }
}

void ReluBackwardAvx2(const float* pre, float* g, int64_t n) {
  // Zero where pre <= 0 (ordered-quiet: NaN pre keeps the gradient, the
  // same verdict as the scalar `if (pre[i] <= 0.0f)` branch).
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 dead = _mm256_cmp_ps(_mm256_loadu_ps(pre + i), zero,
                                      _CMP_LE_OQ);
    _mm256_storeu_ps(g + i, _mm256_andnot_ps(dead, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    if (pre[i] <= 0.0f) g[i] = 0.0f;
  }
}

float MaxAvx2(const float* x, int64_t n) {
  if (n < 8) {
    float m = x[0];
    for (int64_t i = 1; i < n; ++i) m = (m > x[i]) ? m : x[i];
    return m;
  }
  __m256 acc = _mm256_loadu_ps(x);
  const int64_t nb = n & ~int64_t{7};
  for (int64_t i = 8; i < nb; i += 8) {
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
  }
  // Pairwise fold (l, l+4), (l, l+2), (l, l+1) — mirrored lane for lane by
  // the scalar backend.
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(acc),
                         _mm256_extractf128_ps(acc, 1));
  __m128 m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  __m128 m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 0x1));
  float m = _mm_cvtss_f32(m1);
  for (int64_t i = nb; i < n; ++i) m = (m > x[i]) ? m : x[i];
  return m;
}

double DotAvx2(const float* a, const float* b, int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  const int64_t nb = n & ~int64_t{3};
  for (int64_t i = 0; i < nb; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                          _mm256_cvtps_pd(_mm_loadu_ps(b + i)), acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (int64_t i = nb; i < n; ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

/// a * b over GF(2) for the 64-bit halves `kImm` selects (bit 0: a's,
/// bit 4: b's; 0 = low, 1 = high), then the 128-bit product xor `c`.
template <int kImm>
__m128i ClmulXor(__m128i a, __m128i b, __m128i c) {
  return _mm_xor_si128(_mm_clmulepi64_si128(a, b, kImm), c);
}

/// Folds the 128-bit remainder `x` 128 bits forward onto `next`: x's low
/// half times the low constant, its high half times the high one.
__m128i Fold(__m128i x, __m128i k, __m128i next) {
  return ClmulXor<0x11>(x, k, ClmulXor<0x00>(x, k, next));
}

/// The CRC register (the inverted CRC) after n bytes at p, n a multiple of
/// 16 and at least 64, from `state`. Intel's PCLMULQDQ folding in the
/// bit-reflected domain of the gzip polynomial ("Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", 2009): four 128-bit
/// lanes fold 64-byte blocks, fold down to one lane, which folds 16-byte
/// blocks; then 128 -> 64 -> 32 bits by one more fold and a Barrett
/// reduction.
uint32_t Crc32FoldPclmul(const unsigned char* p, size_t n, uint32_t state) {
  // [x^e mod P(x)]' << 1, 33 bits, for the fold distance e of each lane
  // half: e = 4*128 + 32 (low) and 4*128 - 32 (high) across 64 bytes,
  // 128 + 32 and 128 - 32 across 16 bytes, and 64 for the 64-bit step.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // Barrett: mu' = (x^64 / P(x))' and P'(x), 33 bits each.
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  size_t i = 64;
  for (; i + 64 <= n; i += 64) {
    x0 = Fold(x0, k1k2, load(p + i));
    x1 = Fold(x1, k1k2, load(p + i + 16));
    x2 = Fold(x2, k1k2, load(p + i + 32));
    x3 = Fold(x3, k1k2, load(p + i + 48));
  }
  x0 = Fold(Fold(Fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; i < n; i += 16) x0 = Fold(x0, k3k4, load(p + i));

  // 128 -> 64 bits: the low half times x^(128-32)'s constant onto the
  // high half; then the low 32 bits times x^64's onto the rest.
  x0 = ClmulXor<0x10>(x0, k3k4, _mm_srli_si128(x0, 8));
  x0 = ClmulXor<0x00>(_mm_and_si128(x0, low32), k5, _mm_srli_si128(x0, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

uint32_t Crc32Avx2(const void* data, size_t n, uint32_t crc) {
  // The table kernel takes inputs too short for four lanes and the tail
  // after the last whole 16-byte block.
  if (n < 64) return common::Crc32(data, n, crc);
  const auto* p = static_cast<const unsigned char*>(data);
  const size_t body = n & ~size_t{15};
  return common::Crc32(p + body, n - body, ~Crc32FoldPclmul(p, body, ~crc));
}

constexpr KernelTable kAvx2Table = {
    AxpyAvx2, SpmmRowAvx2,   GemmAvx2, ScaleAvx2,        MulAvx2,
    AddAvx2,  AddScalarAvx2, ReluAvx2, ReluBackwardAvx2, MaxAvx2,
    DotAvx2,  Crc32Avx2,     "avx2",
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

#else  // !(__AVX2__ && __FMA__ && __PCLMUL__): non-x86 build or ISA missing.

const KernelTable* Avx2Table() { return nullptr; }

#endif

}  // namespace sgnn::simd::internal
