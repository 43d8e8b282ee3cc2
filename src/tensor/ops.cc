#include "tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/counters.h"
#include "common/rng.h"
#include "par/par.h"
#include "simd/simd.h"

namespace sgnn::tensor {

namespace {

void CountMoved(uint64_t n) {
  sgnn::common::GlobalCounters().floats_moved += n;
}

/// Bytes-moved accounting for the microkernel substrate. Each call site
/// bills the logical bytes its microkernel invocations consume/produce —
/// operand elements read (including the read half of read-modify-write
/// accumulations) and result elements written — as a pure function of the
/// workload, so the totals are identical at any thread count and on either
/// simd backend. Per-call costs, in floats of length n:
///
///   axpy / mul / add / relu_backward   read 2n   write n
///   scale / add_scalar / relu          read  n   write n
///   max                                read  n   write 0
///   dot                                read 2n   write 0
///   gemm (rows x k panel of A)         read rows*k + k*n + rows*n
///                                      write rows*n
void CountBytes(uint64_t read_floats, uint64_t written_floats) {
  sgnn::common::GlobalCounters().BillBytes(read_floats * sizeof(float),
                                           written_floats * sizeof(float));
}

/// One `gemm` tile call: A, the b panel and C each counted once, and
/// `floats_moved` the multiplies issued (nnz * n) — the zero skip does no
/// work, so sparse operands (ReLU outputs, masks) are not overbilled.
void BillGemm(uint64_t nnz, int64_t rows, int64_t k, int64_t n) {
  const uint64_t r = static_cast<uint64_t>(rows),
                 kk = static_cast<uint64_t>(k), nn = static_cast<uint64_t>(n);
  CountMoved(nnz * nn);
  CountBytes(r * kk + kk * nn + r * nn, r * nn);
}

// Shard-geometry grains (pure functions of problem size, per the par
// determinism contract): sections below the grain run as one shard, so
// small matrices never pay dispatch overhead.
constexpr int64_t kGemmGrainFlops = 256 * 1024;  ///< Fused mul-adds/shard.
constexpr int64_t kElemGrain = 64 * 1024;        ///< Scalars per shard.
constexpr int64_t kGemmPanel = 256;              ///< k-panel rows kept hot.
constexpr int64_t kTransposeTile = 32;           ///< Transpose tile edge.

/// Cap on `GemmTransposeA` reduction partials: each costs an m x n
/// accumulator, so the shard count is bounded tighter than `kMaxShards`.
constexpr int kMaxGemmPartials = 8;

std::vector<par::Range> ElemRanges(int64_t n) {
  return par::SplitUniform(n, par::ShardsFor(n, kElemGrain));
}

std::vector<par::Range> RowRangesFor(int64_t rows, int64_t flops_per_row) {
  return par::SplitUniform(
      rows, par::ShardsFor(rows * std::max<int64_t>(flops_per_row, 1),
                           kGemmGrainFlops));
}

}  // namespace

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  out->Reset(m, n);
  if (m == 0 || k == 0 || n == 0) return;
  const auto rows = RowRangesFor(m, k * n);
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.gemm", rows, [&](int, par::Range range) {
    // One gemm tile per k panel: the b panel stays cache-hot across the
    // shard's rows, and each output element still accumulates in
    // ascending k — the naive loop's order, so panelling changes no bits.
    float* c = out->data() + range.begin * n;
    for (int64_t p0 = 0; p0 < k; p0 += kGemmPanel) {
      const int64_t pk = std::min(kGemmPanel, k - p0);
      const uint64_t nnz = kt.gemm(a.data() + range.begin * k + p0, k, 1,
                                   b.data() + p0 * n, c, range.size(), pk, n);
      BillGemm(nnz, range.size(), pk, n);
    }
  });
}

void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(a.rows(), b.rows());
  const int64_t m = a.cols(), k = a.rows(), n = b.cols();
  out->Reset(m, n);
  if (m == 0 || k == 0 || n == 0) return;
  // The k rows all scatter into the same m x n output, so shards reduce
  // into private partials that fold in ascending shard order — a fixed
  // summation tree, identical for any worker count (the tree differs from
  // the historical serial order, but deterministically so).
  const int shards = std::min(
      par::ShardsFor(k * m * n, kGemmGrainFlops), kMaxGemmPartials);
  const auto panels = par::SplitUniform(k, shards);
  std::vector<Matrix> partials(panels.size());
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.gemm_ta", panels, [&](int shard, par::Range pr) {
    Matrix& part = partials[static_cast<size_t>(shard)];
    part = Matrix(m, n);
    // A^T(i, p) = a[p][i]: the tile reads A with row stride 1 and k stride
    // m, one k panel at a time.
    for (int64_t p0 = pr.begin; p0 < pr.end; p0 += kGemmPanel) {
      const int64_t pk = std::min(kGemmPanel, pr.end - p0);
      const uint64_t nnz = kt.gemm(a.data() + p0 * m, 1, m, b.data() + p0 * n,
                                   part.data(), m, pk, n);
      BillGemm(nnz, m, pk, n);
    }
  });
  // Ascending-shard fold of the partials (one add microkernel per partial:
  // read both operands, write the accumulator).
  for (Matrix& part : partials) {
    kt.add(part.data(), out->data(), out->size());
  }
  CountBytes(static_cast<uint64_t>(partials.size()) * out->size() * 2u,
             static_cast<uint64_t>(partials.size()) * out->size());
}

void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix* out) {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  out->Reset(m, n);
  if (m == 0 || k == 0 || n == 0) return;
  const auto rows = RowRangesFor(m, k * n);
  const simd::KernelTable& kt = simd::Active();
  // Both operands are walked row-major, so each (i, j) cell is a unit-
  // stride dot of two length-k rows — the lane-folded double-accumulating
  // microkernel (simd contract #2). The b row base is hoisted out of the
  // inner loop instead of re-deriving it per element.
  const float* bdata = b.data();
  par::ParallelFor("tensor.gemm_tb", rows, [&](int, par::Range range) {
    for (int64_t i = range.begin; i < range.end; ++i) {
      const float* arow = a.data() + i * k;
      float* orow = out->data() + i * n;
      for (int64_t j = 0; j < n; ++j) {
        orow[j] = static_cast<float>(kt.dot(arow, bdata + j * k, k));
      }
    }
    CountMoved(static_cast<uint64_t>(range.size()) * k * n);
    CountBytes(static_cast<uint64_t>(range.size()) * n * 2u * k,
               static_cast<uint64_t>(range.size()) * n);
  });
}

Matrix Transpose(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  const int64_t rows = m.rows(), cols = m.cols();
  // Tiled so both the row-major read and the column-major write stay inside
  // a kTransposeTile^2 block that fits in L1 — the naive double loop
  // touched a fresh cache line per element on the write side. Element
  // copies are order-independent, so tiling changes no bits.
  for (int64_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const int64_t r1 = std::min(rows, r0 + kTransposeTile);
    for (int64_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
      const int64_t c1 = std::min(cols, c0 + kTransposeTile);
      for (int64_t r = r0; r < r1; ++r) {
        const float* mrow = m.data() + r * cols;
        for (int64_t c = c0; c < c1; ++c) {
          out.data()[c * rows + r] = mrow[c];
        }
      }
    }
  }
  CountMoved(static_cast<uint64_t>(m.size()));
  CountBytes(static_cast<uint64_t>(m.size()),
             static_cast<uint64_t>(m.size()));
  return out;
}

void Axpy(float alpha, const Matrix& other, Matrix* m) {
  SGNN_CHECK(m != nullptr);
  SGNN_CHECK_EQ(m->rows(), other.rows());
  SGNN_CHECK_EQ(m->cols(), other.cols());
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.axpy", ElemRanges(m->size()),
                   [&](int, par::Range r) {
                     kt.axpy(alpha, other.data() + r.begin,
                             m->data() + r.begin, r.size());
                     CountMoved(static_cast<uint64_t>(r.size()));
                     CountBytes(2u * static_cast<uint64_t>(r.size()),
                                static_cast<uint64_t>(r.size()));
                   });
}

void Scale(float alpha, Matrix* m) {
  SGNN_CHECK(m != nullptr);
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.scale", ElemRanges(m->size()),
                   [&](int, par::Range r) {
                     kt.scale(alpha, m->data() + r.begin, r.size());
                     CountBytes(static_cast<uint64_t>(r.size()),
                                static_cast<uint64_t>(r.size()));
                   });
}

void Hadamard(const Matrix& other, Matrix* m) {
  SGNN_CHECK(m != nullptr);
  SGNN_CHECK_EQ(m->rows(), other.rows());
  SGNN_CHECK_EQ(m->cols(), other.cols());
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.hadamard", ElemRanges(m->size()),
                   [&](int, par::Range r) {
                     kt.mul(other.data() + r.begin, m->data() + r.begin,
                            r.size());
                     CountBytes(2u * static_cast<uint64_t>(r.size()),
                                static_cast<uint64_t>(r.size()));
                   });
}

void AddBiasRow(std::span<const float> bias, Matrix* m) {
  SGNN_CHECK(m != nullptr);
  SGNN_CHECK_EQ(static_cast<int64_t>(bias.size()), m->cols());
  const auto rows = par::SplitUniform(
      m->rows(), par::ShardsFor(m->size(), kElemGrain));
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.add_bias", rows, [&](int, par::Range range) {
    for (int64_t r = range.begin; r < range.end; ++r) {
      kt.add(bias.data(), m->Row(r).data(), m->cols());
    }
    CountBytes(static_cast<uint64_t>(range.size()) * m->cols() * 2u,
               static_cast<uint64_t>(range.size()) * m->cols());
  });
}

void Relu(Matrix* m) {
  SGNN_CHECK(m != nullptr);
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.relu", ElemRanges(m->size()),
                   [&](int, par::Range r) {
                     kt.relu(m->data() + r.begin, r.size());
                     CountBytes(static_cast<uint64_t>(r.size()),
                                static_cast<uint64_t>(r.size()));
                   });
}

void ReluBackward(const Matrix& pre_activation, Matrix* grad) {
  SGNN_CHECK(grad != nullptr);
  SGNN_CHECK_EQ(grad->rows(), pre_activation.rows());
  SGNN_CHECK_EQ(grad->cols(), pre_activation.cols());
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.relu_bwd", ElemRanges(grad->size()),
                   [&](int, par::Range r) {
                     kt.relu_backward(pre_activation.data() + r.begin,
                                      grad->data() + r.begin, r.size());
                     CountBytes(2u * static_cast<uint64_t>(r.size()),
                                static_cast<uint64_t>(r.size()));
                   });
}

void KeyedDropout(uint64_t key, double p, Matrix* x, Matrix* mask) {
  SGNN_CHECK(x != nullptr);
  SGNN_CHECK(mask != nullptr);
  SGNN_CHECK(p >= 0.0 && p < 1.0);
  mask->Reset(x->rows(), x->cols());
  const float scale = static_cast<float>(1.0 / (1.0 - p));
  const uint32_t scale_bits = std::bit_cast<uint32_t>(scale);
  // For an integer u, u * 2^-53 < p exactly when u < ceil(p * 2^53); the
  // scaling by a power of two is exact, so the compare is all integer.
  const uint64_t drop_below =
      static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
  const common::KeyedStream stream(key);
  float* xs = x->data();
  float* ms = mask->data();
  const auto drop = [&](int, par::Range r) {
    for (int64_t i = r.begin; i < r.end; ++i) {
      // All ones to keep, all zeros to drop: the AND selects without a
      // branch and leaves a dropped element's bits exactly +0.0f.
      const uint64_t u = stream.At(static_cast<uint64_t>(i)) >> 11;
      const uint32_t keep = 0u - static_cast<uint32_t>(u >= drop_below);
      xs[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(xs[i] * scale) &
                                   keep);
      ms[i] = std::bit_cast<float>(scale_bits & keep);
    }
  };
  par::ParallelFor("tensor.dropout", ElemRanges(x->size()), drop);
}

void SoftmaxRows(Matrix* m) {
  SGNN_CHECK(m != nullptr);
  const auto rows = par::SplitUniform(
      m->rows(), par::ShardsFor(m->size(), kElemGrain));
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.softmax", rows, [&](int, par::Range range) {
    for (int64_t r = range.begin; r < range.end; ++r) {
      auto row = m->Row(r);
      if (row.empty()) continue;
      const float mx = kt.max(row.data(), m->cols());
      double sum = 0.0;
      for (float& v : row) {
        v = std::exp(v - mx);
        sum += v;
      }
      const float inv = static_cast<float>(1.0 / sum);
      kt.scale(inv, row.data(), m->cols());
    }
    // Per row: max reads c; the exp pass reads and writes c; the scale
    // reads and writes c.
    CountBytes(static_cast<uint64_t>(range.size()) * m->cols() * 3u,
               static_cast<uint64_t>(range.size()) * m->cols() * 2u);
  });
}

void LogSoftmaxRows(Matrix* m) {
  SGNN_CHECK(m != nullptr);
  const auto rows = par::SplitUniform(
      m->rows(), par::ShardsFor(m->size(), kElemGrain));
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.log_softmax", rows, [&](int, par::Range range) {
    for (int64_t r = range.begin; r < range.end; ++r) {
      auto row = m->Row(r);
      if (row.empty()) continue;
      const float mx = kt.max(row.data(), m->cols());
      double sum = 0.0;
      for (float v : row) sum += std::exp(static_cast<double>(v - mx));
      const float lse = mx + static_cast<float>(std::log(sum));
      // v -= lse as v += (-lse): the identical IEEE operation, in the
      // add_scalar microkernel.
      kt.add_scalar(-lse, row.data(), m->cols());
    }
    CountBytes(static_cast<uint64_t>(range.size()) * m->cols() * 3u,
               static_cast<uint64_t>(range.size()) * m->cols());
  });
}

void NormalizeRows(int p, Matrix* m) {
  SGNN_CHECK(m != nullptr);
  SGNN_CHECK(p == 1 || p == 2);
  const auto rows = par::SplitUniform(
      m->rows(), par::ShardsFor(m->size(), kElemGrain));
  const simd::KernelTable& kt = simd::Active();
  par::ParallelFor("tensor.normalize", rows, [&](int, par::Range range) {
    for (int64_t r = range.begin; r < range.end; ++r) {
      auto row = m->Row(r);
      double norm = 0.0;
      if (p == 2) {
        // Sum of squares is the row's dot with itself — the lane-folded
        // double-accumulating microkernel.
        norm = std::sqrt(kt.dot(row.data(), row.data(), m->cols()));
      } else {
        for (float v : row) norm += std::fabs(v);
      }
      if (norm == 0.0) continue;
      const float inv = static_cast<float>(1.0 / norm);
      kt.scale(inv, row.data(), m->cols());
    }
    CountBytes(static_cast<uint64_t>(range.size()) * m->cols() * 3u,
               static_cast<uint64_t>(range.size()) * m->cols());
  });
}

std::vector<int64_t> ArgmaxRows(const Matrix& m) {
  std::vector<int64_t> out(static_cast<size_t>(m.rows()));
  for (int64_t r = 0; r < m.rows(); ++r) {
    auto row = m.Row(r);
    out[static_cast<size_t>(r)] =
        std::max_element(row.begin(), row.end()) - row.begin();
  }
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  SGNN_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    auto arow = a.Row(r);
    auto brow = b.Row(r);
    auto orow = out.Row(r);
    std::copy(arow.begin(), arow.end(), orow.begin());
    std::copy(brow.begin(), brow.end(), orow.begin() + a.cols());
  }
  return out;
}

double FrobeniusNorm(const Matrix& m) {
  return std::sqrt(simd::Active().dot(m.data(), m.data(), m.size()));
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  SGNN_CHECK_EQ(a.rows(), b.rows());
  SGNN_CHECK_EQ(a.cols(), b.cols());
  double mx = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]));
  }
  return mx;
}

double Dot(std::span<const float> a, std::span<const float> b) {
  SGNN_CHECK_EQ(a.size(), b.size());
  return simd::Active().dot(a.data(), b.data(),
                            static_cast<int64_t>(a.size()));
}

double Norm2(std::span<const float> v) {
  return std::sqrt(simd::Active().dot(v.data(), v.data(),
                                      static_cast<int64_t>(v.size())));
}

}  // namespace sgnn::tensor
