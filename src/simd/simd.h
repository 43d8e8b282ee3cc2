#ifndef SGNN_SIMD_SIMD_H_
#define SGNN_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace sgnn::simd {

/// `sgnn::simd` — the vectorized microkernel substrate under the hot
/// kernels (`tensor::Gemm` and friends, the `graph::SpmmRows` row
/// accumulation, the row/elementwise ops, the shard-section and
/// frame-payload checksums). Two backends implement one kernel table:
///
///   * `avx2`   — 8-lane single-precision AVX2 (FMA only where fusion is
///                provably bit-neutral, see below) and a carry-less-multiply
///                CRC-32, selected at runtime when the CPU reports
///                AVX2+FMA+PCLMUL;
///   * `scalar` — a portable fallback whose loops replicate the vector
///                path's arithmetic *structure* (same lane partition, same
///                fold order), so both backends produce byte-identical
///                results.
///
/// Bit-identity contract — `scalar(x) == avx2(x)` to the last bit:
///
///  1. Elementwise lanes (axpy, scale, hadamard, add, relu) use exactly
///     rounded single-precision mul/add — never fused — so a vector lane
///     computes the identical operation the scalar loop does. The two
///     backends differ only in how many elements advance per iteration,
///     which is unobservable. `spmm_row` is elementwise in j with the same
///     per-element order: each y[j] takes its products in ascending i,
///     one unfused multiply then add each, skipping c[i] == 0 as the
///     scalar loop does, so it is bit-identical to the `axpy` chain it
///     replaces however many columns the vector backend holds in
///     registers. The `gemm` tile is elementwise in j: each
///     c[r][j] accumulates its products in ascending p with an unfused
///     multiply then add, exactly the scalar loop's order, whatever block
///     of C the vector backend holds in registers. The scalar loop skips
///     A(r,p) == 0 (either sign); the vector tile instead adds the product
///     masked to +0. That changes no bit: C starts at +0 (`tensor` GEMMs
///     `Matrix::Reset` their output, which fills +0.0f exactly as the
///     constructor does), and a round-to-nearest sum is -0 only when both
///     addends are -0, so C
///     never holds -0, and c + (+0) == c for every other c (NaN and inf
///     included). The mask also keeps 0 * inf = NaN out of C.
///  2. Reductions fix the lane-fold order: `Dot` partitions index i into
///     lane i mod 4, accumulates each lane in ascending order in double,
///     and folds `(l0 + l1) + (l2 + l3)` before adding the scalar tail in
///     ascending order. The scalar backend runs the same four running sums.
///     Products of two floats are exact in double (24+24 < 53 mantissa
///     bits), so the AVX2 path may fuse (`vfmadd...pd`) without changing a
///     bit — the only FMA the substrate uses.
///  3. `Max` uses the lane semantics of `vmaxps` (`(acc > x) ? acc : x`)
///     in both backends, eight lanes folded pairwise in a fixed order.
///  4. Nothing here consults the thread count: callers shard with
///     `par::ParallelFor` and invoke microkernels per row or range, so the
///     par bit-identity-across-worker-count contract is untouched.
///  5. `crc32` is an exact function: both backends return `common::Crc32`'s
///     value for every input, alignment, split and initial value.
///
/// Backend selection: the `SGNN_SIMD` environment variable is read once at
/// first use (`off`/`0`/`false`/`scalar` force the scalar backend; unset or
/// anything else = auto), and `SetEnabled()` overrides it at runtime so
/// tests and CI can prove SIMD output == scalar output byte for byte. Intrinsics are confined to `src/simd/` by the
/// `det/simd-intrinsics` lint rule; every other module sees only this
/// dispatch surface.

/// The microkernel table both backends implement. Hot loops hoist
/// `Active()` once per shard and call through the table, so the per-row
/// cost is one indirect call, not a dispatch lookup.
struct KernelTable {
  /// y[i] += alpha * x[i] (`tensor::Axpy`, SpMM self loops, the
  /// transposed SpMM's scatter).
  void (*axpy)(float alpha, const float* x, float* y, int64_t n);
  /// The SpMM row: y[j] += c[i] * x[idx[i] * ld + j] for i < count in
  /// ascending i, j < n — the `axpy` chain over one row's gathered input
  /// rows, with y held in registers across the chain. Products of
  /// c[i] == 0 (either sign) are skipped. y must not overlap x. Returns
  /// the number of nonzero c[i].
  uint64_t (*spmm_row)(const float* x, int64_t ld, const uint32_t* idx,
                       const float* c, int64_t count, float* y, int64_t n);
  /// The GEMM tile: c[r][j] += A(r,p) * b[p][j] for r < rows, p < k,
  /// j < n, where A(r,p) = a[r * a_row_stride + p * a_k_stride], b is a
  /// row-major k x n panel and c a row-major rows x n block that holds no
  /// -0 (contract #1). Products of A(r,p) == 0 are skipped. Returns the
  /// number of nonzero A(r,p).
  uint64_t (*gemm)(const float* a, int64_t a_row_stride, int64_t a_k_stride,
                   const float* b, float* c, int64_t rows, int64_t k,
                   int64_t n);
  /// y[i] *= alpha.
  void (*scale)(float alpha, float* y, int64_t n);
  /// y[i] *= x[i] (hadamard).
  void (*mul)(const float* x, float* y, int64_t n);
  /// y[i] += x[i] (bias rows, partial folds).
  void (*add)(const float* x, float* y, int64_t n);
  /// y[i] += alpha (log-softmax shift; x - c is computed as x + (-c),
  /// which is the identical IEEE operation).
  void (*add_scalar)(float alpha, float* y, int64_t n);
  /// y[i] = max(y[i], 0).
  void (*relu)(float* y, int64_t n);
  /// g[i] = pre[i] > 0 ? g[i] : 0 — the ReLU backward mask.
  void (*relu_backward)(const float* pre, float* g, int64_t n);
  /// Maximum of x[0..n); requires n >= 1. Lane-structured (contract #3).
  float (*max)(const float* x, int64_t n);
  /// Lane-folded double dot product (contract #2).
  double (*dot)(const float* a, const float* b, int64_t n);
  /// CRC-32 of n bytes continuing from the CRC `crc` of what came before,
  /// as `common::Crc32` defines it (contract #5).
  uint32_t (*crc32)(const void* data, size_t n, uint32_t crc);

  /// Backend name for logs/benchmarks: "avx2" or "scalar".
  const char* name;
};

/// True when the running CPU supports the AVX2 backend (AVX2, FMA and
/// PCLMUL).
bool Supported();

/// True when the AVX2 backend is currently dispatched.
bool Enabled();

/// Forces the backend: `on && Supported()` dispatches AVX2, otherwise the
/// scalar fallback. Returns the previous `Enabled()` so scopes can restore
/// it. Safe to call between kernels; not during a running parallel section.
bool SetEnabled(bool on);

/// Parses an `SGNN_SIMD`-style value: false for `off`/`0`/`false`/
/// `scalar` (case-insensitive), `fallback` for null/empty, true otherwise.
/// Exposed for tests; first use of `Active()` applies it to the real
/// environment.
bool SimdFromEnv(const char* value, bool fallback);

/// The active kernel table. First call reads `SGNN_SIMD` and probes the
/// CPU; thereafter selection only changes via `SetEnabled`.
const KernelTable& Active();

/// CRC-32 through the active table: `common::Crc32(data, n, crc)`, at the
/// active backend's speed. Every shard-section and frame-payload checksum
/// goes through it.
inline uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0) {
  return Active().crc32(data, n, crc);
}

}  // namespace sgnn::simd

#endif  // SGNN_SIMD_SIMD_H_
