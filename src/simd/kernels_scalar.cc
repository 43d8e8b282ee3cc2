// The portable backend. Every loop replicates the AVX2 path's arithmetic
// structure — same lane partition, same fold order, exactly rounded
// single-precision mul/add (never fused) — so the two backends are byte
// identical (the contract in simd.h). The CMake rule compiles this TU with
// -ffp-contract=off so no compiler, at any -march, can fuse a mul/add pair
// behind our back.

#include "simd/kernels.h"

#include "common/crc32.h"

namespace sgnn::simd::internal {

namespace {

void AxpyScalar(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

uint64_t SpmmRowScalar(const float* x, int64_t ld, const uint32_t* idx,
                       const float* c, int64_t count, float* y, int64_t n) {
  // The reference: one axpy per gathered row in ascending i, and a zero
  // coefficient issues nothing.
  uint64_t applied = 0;
  for (int64_t i = 0; i < count; ++i) {
    if (c[i] == 0.0f) continue;
    ++applied;
    AxpyScalar(c[i], x + static_cast<int64_t>(idx[i]) * ld, y, n);
  }
  return applied;
}

uint64_t GemmScalar(const float* a, int64_t a_row_stride, int64_t a_k_stride,
                    const float* b, float* c, int64_t rows, int64_t k,
                    int64_t n) {
  // The reference loop: each c[r][j] takes its products in ascending p,
  // one unfused mul and add each, and a zero A(r,p) issues nothing.
  uint64_t nnz = 0;
  for (int64_t r = 0; r < rows; ++r) {
    float* crow = c + r * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[r * a_row_stride + p * a_k_stride];
      if (av == 0.0f) continue;
      ++nnz;
      AxpyScalar(av, b + p * n, crow, n);
    }
  }
  return nnz;
}

void ScaleScalar(float alpha, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] *= alpha;
}

void MulScalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] *= x[i];
}

void AddScalar(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

void AddScalarScalar(float alpha, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha;
}

void ReluScalar(float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (y[i] < 0.0f) y[i] = 0.0f;
  }
}

void ReluBackwardScalar(const float* pre, float* g, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (pre[i] <= 0.0f) g[i] = 0.0f;
  }
}

float MaxScalar(const float* x, int64_t n) {
  // Eight running lane maxima (lane = i mod 8 over the full blocks), each
  // updated with the vmaxps select `(acc > x) ? acc : x`, folded pairwise
  // ((0,4),(1,5),(2,6),(3,7)) then ((0,2),(1,3)) then (0,1) — the exact
  // shape the AVX2 backend's extract/shuffle fold produces — and the tail
  // folded in ascending order.
  if (n < 8) {
    float m = x[0];
    for (int64_t i = 1; i < n; ++i) m = (m > x[i]) ? m : x[i];
    return m;
  }
  float lane[8];
  for (int i = 0; i < 8; ++i) lane[i] = x[i];
  const int64_t nb = n & ~int64_t{7};
  for (int64_t i = 8; i < nb; i += 8) {
    for (int l = 0; l < 8; ++l) {
      lane[l] = (lane[l] > x[i + l]) ? lane[l] : x[i + l];
    }
  }
  for (int l = 0; l < 4; ++l) {
    lane[l] = (lane[l] > lane[l + 4]) ? lane[l] : lane[l + 4];
  }
  for (int l = 0; l < 2; ++l) {
    lane[l] = (lane[l] > lane[l + 2]) ? lane[l] : lane[l + 2];
  }
  float m = (lane[0] > lane[1]) ? lane[0] : lane[1];
  for (int64_t i = nb; i < n; ++i) m = (m > x[i]) ? m : x[i];
  return m;
}

double DotScalar(const float* a, const float* b, int64_t n) {
  // Four running double sums (lane = i mod 4 over the full blocks). A
  // float*float product is exact in double, so the AVX2 backend's fused
  // vfmadd accumulates the identical values; only the fold order matters,
  // and both backends use (l0 + l1) + (l2 + l3) then the ascending tail.
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  const int64_t nb = n & ~int64_t{3};
  for (int64_t i = 0; i < nb; i += 4) {
    l0 += static_cast<double>(a[i]) * b[i];
    l1 += static_cast<double>(a[i + 1]) * b[i + 1];
    l2 += static_cast<double>(a[i + 2]) * b[i + 2];
    l3 += static_cast<double>(a[i + 3]) * b[i + 3];
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (int64_t i = nb; i < n; ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

// The table CRC is `common::Crc32` itself, the reference value.
constexpr KernelTable kScalarTable = {
    AxpyScalar,         SpmmRowScalar, GemmScalar,      ScaleScalar,
    MulScalar,          AddScalar,     AddScalarScalar, ReluScalar,
    ReluBackwardScalar, MaxScalar,     DotScalar,       common::Crc32,
    "scalar",
};

}  // namespace

const KernelTable& ScalarTable() { return kScalarTable; }

}  // namespace sgnn::simd::internal
