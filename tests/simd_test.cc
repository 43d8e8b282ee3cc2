// The simd bit-identity matrix: every kernel converted to the
// `sgnn::simd` microkernel substrate must produce byte-identical output
// with the vector backend and the portable scalar fallback, at any thread
// count, on ragged sizes (lengths that are not multiples of the lane
// width, empty rows, single-element tails). On a CPU without AVX2 the
// backend sweep degenerates to scalar-vs-scalar and every comparison still
// holds, so the suite is meaningful on every machine the CI matrix covers.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "graph/coo.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "models/sage.h"
#include "par/par.h"
#include "sampling/neighbor_sampler.h"
#include "simd/simd.h"
#include "storage/ooc.h"
#include "storage/shard_writer.h"
#include "storage/sharded_graph.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace sgnn {
namespace {

using graph::CsrGraph;
using graph::NodeId;
using graph::Normalization;
using tensor::Matrix;

/// Ragged lengths: below one 8-lane vector, exactly one vector, vector
/// plus a 1..7-element tail, around the dot kernel's 4-lane width, and a
/// couple of long sizes with tails.
const int64_t kRaggedSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17,
                                31, 33, 63, 64, 65, 100, 257, 1000, 1003};

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  common::Rng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return m;
}

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

bool BytesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

bool BytesEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Restores the backend and thread count a test toggles.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::SetEnabled(true);
    par::SetThreads(1);
  }
};

TEST_F(SimdTest, DispatchAndEnvParsing) {
  // SetEnabled round-trips and reports the previous state.
  const bool was = simd::SetEnabled(false);
  EXPECT_FALSE(simd::Enabled());
  EXPECT_STREQ(simd::Active().name, "scalar");
  EXPECT_FALSE(simd::SetEnabled(true));
  EXPECT_EQ(simd::Enabled(), simd::Supported());
  if (simd::Supported()) {
    EXPECT_STREQ(simd::Active().name, "avx2");
  }
  simd::SetEnabled(was);

  // SGNN_SIMD value parsing (case-insensitive disable spellings).
  EXPECT_FALSE(simd::SimdFromEnv("off", true));
  EXPECT_FALSE(simd::SimdFromEnv("OFF", true));
  EXPECT_FALSE(simd::SimdFromEnv("0", true));
  EXPECT_FALSE(simd::SimdFromEnv("false", true));
  EXPECT_FALSE(simd::SimdFromEnv("scalar", true));
  EXPECT_TRUE(simd::SimdFromEnv(nullptr, true));
  EXPECT_FALSE(simd::SimdFromEnv("", false));
  EXPECT_TRUE(simd::SimdFromEnv("on", false));
  EXPECT_TRUE(simd::SimdFromEnv("auto", false));
}

// Every microkernel in the table, scalar vs vector, over the ragged sweep.
TEST_F(SimdTest, MicrokernelsBitIdenticalAcrossBackends) {
  simd::SetEnabled(false);
  const simd::KernelTable scalar = simd::Active();
  simd::SetEnabled(true);
  const simd::KernelTable vec = simd::Active();
  for (const int64_t n : kRaggedSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<float> x = RandomVec(n, 100 + static_cast<uint64_t>(n));
    const std::vector<float> y0 = RandomVec(n, 200 + static_cast<uint64_t>(n));
    // Mix signed zeros and exact zeros into the relu/max operands.
    std::vector<float> edgy = y0;
    if (n > 1) edgy[static_cast<size_t>(n / 2)] = -0.0f;
    if (n > 2) edgy[static_cast<size_t>(n / 3)] = 0.0f;

    auto check = [&](auto&& apply) {
      std::vector<float> a = y0, b = y0;
      apply(scalar, a);
      apply(vec, b);
      EXPECT_TRUE(BytesEqual(a, b));
    };
    check([&](const simd::KernelTable& kt, std::vector<float>& y) {
      kt.axpy(0.75f, x.data(), y.data(), n);
    });
    check([&](const simd::KernelTable& kt, std::vector<float>& y) {
      kt.scale(1.3f, y.data(), n);
    });
    check([&](const simd::KernelTable& kt, std::vector<float>& y) {
      kt.mul(x.data(), y.data(), n);
    });
    check([&](const simd::KernelTable& kt, std::vector<float>& y) {
      kt.add(x.data(), y.data(), n);
    });
    check([&](const simd::KernelTable& kt, std::vector<float>& y) {
      kt.add_scalar(-0.4f, y.data(), n);
    });
    check([&](const simd::KernelTable& kt, std::vector<float>& y) {
      y = edgy;
      kt.relu(y.data(), n);
    });
    check([&](const simd::KernelTable& kt, std::vector<float>& y) {
      kt.relu_backward(edgy.data(), y.data(), n);
    });

    const float mx_s = scalar.max(edgy.data(), n);
    const float mx_v = vec.max(edgy.data(), n);
    EXPECT_EQ(std::memcmp(&mx_s, &mx_v, sizeof(float)), 0);

    const double dot_s = scalar.dot(x.data(), y0.data(), n);
    const double dot_v = vec.dot(x.data(), y0.data(), n);
    EXPECT_EQ(std::memcmp(&dot_s, &dot_v, sizeof(double)), 0);
  }
}

std::vector<unsigned char> CrcBytes(size_t n, uint64_t seed) {
  std::vector<unsigned char> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<unsigned char>(common::SplitMix64(seed + i));
  }
  return bytes;
}

// The CRC entry is exact (contract #5): on both backends it returns
// `common::Crc32`'s value at every length up to past 2 KiB (below the
// vector path's 64-byte entry, every 16-byte block count and every table
// tail), every alignment and three initial values.
TEST_F(SimdTest, Crc32EntryMatchesCommonCrc32AtEveryLengthAndOffset) {
  constexpr size_t kMaxLength = 2100;
  const std::vector<unsigned char> bytes = CrcBytes(kMaxLength + 16, 7);
  const uint32_t inits[] = {0u, 0xFFFFFFFFu,
                            static_cast<uint32_t>(common::SplitMix64(99))};
  for (const bool vector : {false, true}) {
    simd::SetEnabled(vector);
    SCOPED_TRACE(simd::Active().name);
    EXPECT_EQ(simd::Crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(simd::Crc32(nullptr, 0), 0u);
    const simd::KernelTable& kt = simd::Active();
    for (size_t offset = 0; offset < 16; ++offset) {
      const unsigned char* p = bytes.data() + offset;
      for (size_t n = 0; n <= kMaxLength; ++n) {
        for (const uint32_t init : inits) {
          ASSERT_EQ(kt.crc32(p, n, init), common::Crc32(p, n, init))
              << "offset " << offset << ", length " << n << ", init "
              << init;
        }
      }
    }
  }
}

TEST_F(SimdTest, Crc32EntryMatchesCommonCrc32OnALargeBuffer) {
  const std::vector<unsigned char> bytes = CrcBytes(size_t{4} << 20, 11);
  const uint32_t want = common::Crc32(bytes.data(), bytes.size());
  for (const bool vector : {false, true}) {
    simd::SetEnabled(vector);
    EXPECT_EQ(simd::Crc32(bytes.data(), bytes.size()), want)
        << simd::Active().name;
  }
}

TEST_F(SimdTest, Crc32EntryIncrementalEqualsWholeAtEverySplit) {
  const std::vector<unsigned char> bytes = CrcBytes(1024, 13);
  const uint32_t whole = common::Crc32(bytes.data(), bytes.size());
  for (const bool vector : {false, true}) {
    simd::SetEnabled(vector);
    SCOPED_TRACE(simd::Active().name);
    for (size_t split = 0; split <= bytes.size(); ++split) {
      ASSERT_EQ(simd::Crc32(bytes.data() + split, bytes.size() - split,
                            simd::Crc32(bytes.data(), split)),
                whole)
          << "split " << split;
    }
  }
}

// The converted tensor kernels: {simd on, off} x {1, 8 threads} must all
// agree byte for byte, on shapes with ragged columns.
TEST_F(SimdTest, ConvertedTensorOpsBitIdentical) {
  // 37 columns: four full 8-lane vectors plus a 5-element tail per row.
  auto run_all = [](bool simd_on, int threads) {
    simd::SetEnabled(simd_on);
    par::SetThreads(threads);
    Matrix m = RandomMatrix(113, 37, 11);
    const Matrix other = RandomMatrix(113, 37, 12);
    const std::vector<float> bias = RandomVec(37, 13);
    tensor::Axpy(0.5f, other, &m);
    tensor::Scale(1.25f, &m);
    tensor::Hadamard(other, &m);
    tensor::AddBiasRow(bias, &m);
    tensor::Relu(&m);
    tensor::ReluBackward(other, &m);
    tensor::SoftmaxRows(&m);
    tensor::LogSoftmaxRows(&m);
    tensor::NormalizeRows(2, &m);
    tensor::NormalizeRows(1, &m);
    return m;
  };
  const Matrix reference = run_all(false, 1);
  for (const bool simd_on : {false, true}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string("simd=") + (simd_on ? "on" : "off") +
                   " threads=" + std::to_string(threads));
      EXPECT_TRUE(BytesEqual(reference, run_all(simd_on, threads)));
    }
  }
}

// Single-column matrices exercise the all-tail path of every row kernel.
TEST_F(SimdTest, SingleElementRowsBitIdentical) {
  auto run = [](bool simd_on) {
    simd::SetEnabled(simd_on);
    Matrix m = RandomMatrix(64, 1, 21);
    tensor::SoftmaxRows(&m);
    tensor::LogSoftmaxRows(&m);
    tensor::NormalizeRows(2, &m);
    tensor::Relu(&m);
    return m;
  };
  EXPECT_TRUE(BytesEqual(run(false), run(true)));
}

TEST_F(SimdTest, GemmFamilyBitIdentical) {
  // Ragged inner and outer dimensions; a carries zeros so Gemm's zero-skip
  // path runs too.
  Matrix a = RandomMatrix(37, 33, 31);
  for (int64_t i = 0; i < a.size(); i += 3) a.data()[i] = 0.0f;
  const Matrix b = RandomMatrix(33, 29, 32);
  const Matrix at = tensor::Transpose(a);
  const Matrix bt = tensor::Transpose(b);
  auto run = [&](bool simd_on, int threads) {
    simd::SetEnabled(simd_on);
    par::SetThreads(threads);
    Matrix c, cta, ctb;
    tensor::Gemm(a, b, &c);
    tensor::GemmTransposeA(at, b, &cta);
    tensor::GemmTransposeB(a, bt, &ctb);
    Matrix joined = tensor::ConcatCols(tensor::ConcatCols(c, cta), ctb);
    return joined;
  };
  const Matrix reference = run(false, 1);
  for (const bool simd_on : {false, true}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string("simd=") + (simd_on ? "on" : "off") +
                   " threads=" + std::to_string(threads));
      EXPECT_TRUE(BytesEqual(reference, run(simd_on, threads)));
    }
  }
}

// Gemm and GemmTransposeA against a naive i-p-j loop that keeps the zero
// skip, byte for byte, so a tile that drifted the same way in both backends
// still fails. The shapes cross every tile edge: row blocks of four, column
// strips of 16 and 8, the masked partial vector and the 256-deep k panel
// (all stay inside one GemmTransposeA reduction shard, whose fold onto +0
// is exact). About 60% of A is zero, of both signs, and each B row whose A
// column is all zero holds inf and NaN, which only a skipped or masked
// product keeps out of C. Every GEMM, GemmTransposeB too, also writes into
// an output that already holds NaN at a larger shape: it is reset in place
// and must match a fresh output byte for byte.
TEST_F(SimdTest, GemmMatchesNaiveLoop) {
  auto naive = [](const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols());
    for (int64_t i = 0; i < a.rows(); ++i) {
      for (int64_t p = 0; p < a.cols(); ++p) {
        const float av = a.at(i, p);
        if (av == 0.0f) continue;
        for (int64_t j = 0; j < b.cols(); ++j) {
          // volatile, not just a named float: GCC fuses a named product
          // with the add under -mfma, and the reference must stay unfused.
          volatile float prod = av * b.at(p, j);
          c.at(i, j) += prod;
        }
      }
    }
    return c;
  };
  const float kSpecials[] = {std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN()};
  common::Rng rng(71);
  for (const int64_t rows : {1, 3, 4, 5, 9}) {
    for (const int64_t n : {1, 7, 8, 9, 15, 16, 17, 64, 65}) {
      for (const int64_t k : {1, 255, 256, 257}) {
        Matrix a(rows, k), b(k, n);
        for (int64_t p = 0; p < k; ++p) {
          const bool dead = p % 5 == 2;  // A column p all zero.
          for (int64_t r = 0; r < rows; ++r) {
            a.at(r, p) = (dead || rng.Bernoulli(0.6))
                             ? (rng.Bernoulli(0.5) ? 0.0f : -0.0f)
                             : static_cast<float>(rng.Uniform(-1.0, 1.0));
          }
          for (int64_t j = 0; j < n; ++j) {
            b.at(p, j) = dead ? kSpecials[j % 3]
                              : static_cast<float>(rng.Uniform(-1.0, 1.0));
          }
        }
        const Matrix want = naive(a, b);
        const Matrix at = tensor::Transpose(a);
        const Matrix bt = tensor::Transpose(b);
        const Matrix stale(rows + 3, n + 5,
                           std::numeric_limits<float>::quiet_NaN());
        for (const bool simd_on : {false, true}) {
          for (const int threads : {1, 8}) {
            SCOPED_TRACE("rows=" + std::to_string(rows) +
                         " n=" + std::to_string(n) +
                         " k=" + std::to_string(k) +
                         " simd=" + (simd_on ? "on" : "off") +
                         " threads=" + std::to_string(threads));
            simd::SetEnabled(simd_on);
            par::SetThreads(threads);
            Matrix c, cta, ctb;
            tensor::Gemm(a, b, &c);
            tensor::GemmTransposeA(at, b, &cta);
            tensor::GemmTransposeB(a, bt, &ctb);
            EXPECT_TRUE(BytesEqual(want, c));
            EXPECT_TRUE(BytesEqual(want, cta));
            Matrix reused_c = stale, reused_cta = stale, reused_ctb = stale;
            tensor::Gemm(a, b, &reused_c);
            tensor::GemmTransposeA(at, b, &reused_cta);
            tensor::GemmTransposeB(a, bt, &reused_ctb);
            EXPECT_TRUE(BytesEqual(c, reused_c));
            EXPECT_TRUE(BytesEqual(cta, reused_cta));
            EXPECT_TRUE(BytesEqual(ctb, reused_ctb));
          }
        }
      }
    }
  }
}

TEST_F(SimdTest, TiledTransposeMatchesNaive) {
  // 70x45 spans multiple 32x32 tiles with ragged edges in both dimensions.
  const Matrix m = RandomMatrix(70, 45, 41);
  const Matrix t = tensor::Transpose(m);
  ASSERT_EQ(t.rows(), 45);
  ASSERT_EQ(t.cols(), 70);
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols(); ++c) {
      const float tv = t.at(c, r), mv = m.at(r, c);
      ASSERT_EQ(std::memcmp(&tv, &mv, sizeof(float)), 0);
    }
  }
  EXPECT_TRUE(BytesEqual(m, tensor::Transpose(t)));
}

// SpMM: a skewed graph at a width of several 64-float register strips
// (160 is 2.5 strips) and at a narrow width, across backends and thread
// counts.
TEST_F(SimdTest, PropagatorApplyBitIdentical) {
  const CsrGraph g = graph::BarabasiAlbert(500, 6, 42);
  for (const int64_t cols : {17L, 160L}) {
    const Matrix x = RandomMatrix(g.num_nodes(), cols, 50 + cols);
    auto run = [&](bool simd_on, int threads) {
      simd::SetEnabled(simd_on);
      par::SetThreads(threads);
      graph::Propagator prop(g, Normalization::kSymmetric,
                             /*add_self_loops=*/true);
      Matrix out;
      prop.Apply(x, &out);
      Matrix out_t;
      prop.ApplyTranspose(x, &out_t);
      return tensor::ConcatCols(out, out_t);
    };
    const Matrix reference = run(false, 1);
    for (const bool simd_on : {false, true}) {
      for (const int threads : {1, 8}) {
        SCOPED_TRACE("cols=" + std::to_string(cols) + " simd=" +
                     (simd_on ? std::string("on") : std::string("off")) +
                     " threads=" + std::to_string(threads));
        EXPECT_TRUE(BytesEqual(reference, run(simd_on, threads)));
      }
    }
  }
}

// GraphSAGE's sampled step runs both shared kernels over the block views:
// the forward aggregation through `SpmmRows` (layer 0 over the global-id
// view, 160 input columns wide) and the backward through
// `SpmmTransposeRows`. The loss and every parameter gradient must not
// depend on backend or thread count.
TEST_F(SimdTest, SageTrainStepBitIdentical) {
  const CsrGraph g = graph::BarabasiAlbert(600, 6, 43);
  const Matrix x = RandomMatrix(g.num_nodes(), 160, 44);
  std::vector<NodeId> seeds;
  std::vector<int> labels;
  for (NodeId u = 0; u < g.num_nodes(); u += 13) {
    seeds.push_back(u);
    labels.push_back(static_cast<int>(u % 3));
  }
  struct Step {
    double loss;
    std::vector<Matrix> grads;
  };
  auto run = [&](bool simd_on, int threads) {
    simd::SetEnabled(simd_on);
    par::SetThreads(threads);
    common::Rng rng(45);
    models::SageModel model({x.cols(), 24, 3}, 0.5, &rng);
    const std::vector<int> fanouts = {5, 5};
    const sampling::MiniBatch batch =
        sampling::SampleNodeWise(g, seeds, fanouts, &rng);
    model.ZeroGrad();
    Step step{model.TrainStep(batch, x, labels, &rng), {}};
    for (const nn::ParamRef& p : model.Params()) step.grads.push_back(*p.grad);
    return step;
  };
  const Step reference = run(false, 1);
  for (const bool simd_on : {false, true}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string("simd=") + (simd_on ? "on" : "off") +
                   " threads=" + std::to_string(threads));
      const Step step = run(simd_on, threads);
      EXPECT_EQ(std::memcmp(&reference.loss, &step.loss, sizeof(double)), 0);
      ASSERT_EQ(step.grads.size(), reference.grads.size());
      for (size_t i = 0; i < step.grads.size(); ++i) {
        EXPECT_TRUE(BytesEqual(reference.grads[i], step.grads[i])) << i;
      }
    }
  }
}

// Over one view the two kernels are adjoint: with A a sampled block,
// <y, A x> = <A^T y, x> to float tolerance, narrow and wide.
TEST_F(SimdTest, BlockViewKernelsAreAdjoint) {
  const CsrGraph g = graph::BarabasiAlbert(400, 5, 47);
  std::vector<NodeId> seeds;
  for (NodeId u = 0; u < g.num_nodes(); u += 9) seeds.push_back(u);
  common::Rng rng(48);
  const std::vector<int> fanouts = {4};
  const sampling::MiniBatch batch =
      sampling::SampleNodeWise(g, seeds, fanouts, &rng);
  const sampling::LayerSample& layer = batch.layers.front();
  const int64_t num_dst = static_cast<int64_t>(layer.dst.size());
  const int64_t num_src = static_cast<int64_t>(layer.src.size());
  ASSERT_GT(num_src, num_dst);
  for (const int64_t cols : {3L, 160L}) {
    const Matrix x = RandomMatrix(num_src, cols, 49);
    const Matrix y = RandomMatrix(num_dst, cols, 50);
    Matrix ax(num_dst, cols);
    Matrix aty(num_src, cols);
    graph::SpmmRows(layer, {0, num_dst}, x, &ax);
    graph::SpmmTransposeRows(layer, {0, num_dst}, y, &aty);
    auto flat = [](const Matrix& m) {
      return std::span<const float>(m.data(), static_cast<size_t>(m.size()));
    };
    const double lhs = tensor::Dot(flat(y), flat(ax));
    const double rhs = tensor::Dot(flat(aty), flat(x));
    EXPECT_NE(lhs, 0.0);
    EXPECT_NEAR(lhs, rhs, 1e-5 * (1.0 + std::abs(lhs))) << cols;
  }
}

// The SpMM row kernel against the `axpy` chain it replaces, byte for byte,
// on both backends: every column count around the 8-float vector, the
// 64-float register strip and the multi-strip rows, read at the row's own
// width and as a column block of a wider matrix; edge counts around the
// 64-edge chunk; coefficients of +0 and -0 whose rows hold inf and NaN,
// which only a skipped product keeps out of y; repeated ids, the output
// row's own id among them; and a y that starts nonzero, with a -0 that an
// added +0 product would flip. The return value is the nonzero count.
TEST_F(SimdTest, SpmmRowMatchesAxpyChain) {
  simd::SetEnabled(false);
  const simd::KernelTable scalar = simd::Active();
  simd::SetEnabled(true);
  const simd::KernelTable vec = simd::Active();
  constexpr int64_t kLiveRows = 40;  // Rows [0, 40) are finite.
  constexpr NodeId kOwnRow = 7;      // The output row's own id.
  const float kSpecials[] = {std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN()};
  common::Rng rng(81);
  const int64_t widths[] = {1,  2,  3,  4,  5,  6,   7,   8,   9,  15, 16,
                            17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 257};
  for (const int64_t n : widths) {
    for (const int64_t pad : {0L, 5L}) {
      const int64_t ld = n + pad;
      // Rows [40, 43) hold inf, -inf and NaN and are read only at zero
      // coefficients.
      std::vector<float> x(static_cast<size_t>((kLiveRows + 3) * ld));
      for (int64_t r = 0; r < kLiveRows + 3; ++r) {
        for (int64_t j = 0; j < ld; ++j) {
          x[static_cast<size_t>(r * ld + j)] =
              r < kLiveRows ? static_cast<float>(rng.Uniform(-1.0, 1.0))
                            : kSpecials[r - kLiveRows];
        }
      }
      for (const int64_t count : {0L, 1L, 2L, 63L, 64L, 65L, 200L}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " ld=" + std::to_string(ld) +
                     " count=" + std::to_string(count));
        std::vector<uint32_t> idx(static_cast<size_t>(count));
        std::vector<float> c(static_cast<size_t>(count));
        uint64_t nonzero = 0;
        for (int64_t i = 0; i < count; ++i) {
          const bool zero = i % 4 == 1;
          c[i] = zero ? (i % 8 == 1 ? 0.0f : -0.0f)
                      : static_cast<float>(rng.Uniform(-1.0, 1.0));
          nonzero += !zero;
          idx[i] = static_cast<uint32_t>(
              zero         ? kLiveRows + i % 3
              : i % 5 == 0 ? kOwnRow
                           : static_cast<int64_t>(rng.UniformInt(kLiveRows)));
        }
        std::vector<float> y0(static_cast<size_t>(n));
        for (float& v : y0) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
        y0[static_cast<size_t>(n / 2)] = -0.0f;

        std::vector<float> want = y0;
        for (int64_t i = 0; i < count; ++i) {
          if (c[i] == 0.0f) continue;
          scalar.axpy(c[i], x.data() + idx[i] * ld, want.data(), n);
        }
        for (const simd::KernelTable* kt : {&scalar, &vec}) {
          SCOPED_TRACE(kt->name);
          std::vector<float> y = y0;
          EXPECT_EQ(kt->spmm_row(x.data(), ld, idx.data(), c.data(), count,
                                 y.data(), n),
                    nonzero);
          EXPECT_TRUE(BytesEqual(want, y));
        }
      }
    }
  }
}

/// One output row of the naive SpMM: out[row] += c * x[id] for each
/// (id, c) in order, the self loop (when any) the last term.
struct NaiveRow {
  int64_t row;
  std::vector<std::pair<NodeId, float>> terms;
};

/// The per-edge reference for `SpmmRows`: one unfused multiply then add
/// per element, a zero coefficient skipped.
Matrix NaiveSpmm(const std::vector<NaiveRow>& rows, const Matrix& x,
                 int64_t out_rows) {
  Matrix out(out_rows, x.cols());
  for (const NaiveRow& r : rows) {
    for (const auto& [id, c] : r.terms) {
      if (c == 0.0f) continue;
      for (int64_t j = 0; j < x.cols(); ++j) {
        // volatile: GCC fuses a named product with the add under -mfma.
        volatile float prod = c * x.at(id, j);
        out.at(r.row, j) += prod;
      }
    }
  }
  return out;
}

/// A graph for the view tests: node 0 is a hub of 150 edges (longer than
/// the 64-edge stack chunk), node 5 is isolated, node 9 has a self edge
/// and a repeated neighbour, and some weights are +0 or -0.
CsrGraph ViewTestGraph() {
  constexpr NodeId kNodes = 300;
  std::vector<graph::Edge> edges;
  common::Rng rng(83);
  for (NodeId v = 10; v < 160; ++v) {
    edges.push_back({0, v, 1.0f});
    edges.push_back({v, 0, 1.0f});
  }
  for (int e = 0; e < 900; ++e) {
    const NodeId u = 6 + static_cast<NodeId>(rng.UniformInt(kNodes - 6));
    const NodeId v = 6 + static_cast<NodeId>(rng.UniformInt(kNodes - 6));
    const float w = e % 17 == 0   ? 0.0f
                    : e % 19 == 0 ? -0.0f
                                  : static_cast<float>(rng.Uniform(0.5, 2.0));
    edges.push_back({u, v, w});
  }
  edges.push_back({9, 9, 1.5f});
  edges.push_back({9, 12, 1.0f});
  edges.push_back({9, 12, 0.5f});
  return CsrGraph::FromEdges(kNodes, edges);
}

// `SpmmRows` over the in-memory operator's view against the naive loop on
// both backends, narrow, at the register strip's width and across several
// strips. The view carries per-edge coefficients
// of both zero signs and a self loop per row.
TEST_F(SimdTest, SpmmRowsOverCoefficientRowsMatchesNaiveLoop) {
  const CsrGraph g = ViewTestGraph();
  const int64_t n = g.num_nodes();
  common::Rng rng(84);
  std::vector<float> coeffs(static_cast<size_t>(g.num_edges()));
  for (size_t e = 0; e < coeffs.size(); ++e) {
    coeffs[e] = e % 11 == 3   ? 0.0f
                : e % 13 == 4 ? -0.0f
                              : static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  std::vector<float> self_loop(static_cast<size_t>(n));
  for (float& s : self_loop) s = static_cast<float>(rng.Uniform(-1.0, 1.0));
  self_loop[3] = 0.0f;
  const graph::CoefficientRows rows{g.offsets(), g.neighbors(), coeffs,
                                    self_loop};
  std::vector<NaiveRow> naive;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    NaiveRow row{u, {}};
    for (graph::EdgeIndex e = g.offsets()[u]; e < g.offsets()[u + 1]; ++e) {
      row.terms.push_back({g.neighbors()[e], coeffs[e]});
    }
    row.terms.push_back({u, self_loop[u]});
    naive.push_back(row);
  }
  for (const int64_t cols : {16L, 64L, 160L}) {
    const Matrix x = RandomMatrix(n, cols, 85);
    const Matrix want = NaiveSpmm(naive, x, n);
    for (const bool simd_on : {false, true}) {
      SCOPED_TRACE("cols=" + std::to_string(cols) +
                   " simd=" + (simd_on ? "on" : "off"));
      simd::SetEnabled(simd_on);
      Matrix out(n, cols);
      graph::SpmmRows(rows, {0, n}, x, &out);
      EXPECT_TRUE(BytesEqual(want, out));
    }
  }
}

// Both views of a sampled block against the naive loop: `LayerSample`
// over the gathered src rows (spans handed over in place) and
// `GlobalSourceRows` over the full feature matrix (ids read through
// src_local, so its terms go through the stack chunk). A fanout of 100
// keeps more than 64 of the hub's edges.
TEST_F(SimdTest, SpmmRowsOverBlockViewsMatchesNaiveLoop) {
  const CsrGraph g = ViewTestGraph();
  const std::vector<NodeId> seeds = {0, 5, 9, 12, 40, 41, 200};
  const std::vector<int> fanouts = {100};
  common::Rng rng(86);
  const sampling::MiniBatch batch =
      sampling::SampleNodeWise(g, seeds, fanouts, &rng);
  const sampling::LayerSample& layer = batch.layers.front();
  const int64_t num_dst = static_cast<int64_t>(layer.dst.size());
  ASSERT_GT(layer.offsets[1] - layer.offsets[0], 64);  // dst 0 is the hub.
  ASSERT_EQ(layer.offsets[2], layer.offsets[1]);       // dst 1 is isolated.
  std::vector<NaiveRow> local, global;
  for (int64_t r = 0; r < num_dst; ++r) {
    NaiveRow lrow{r, {}}, grow{r, {}};
    for (graph::EdgeIndex e = layer.offsets[r]; e < layer.offsets[r + 1];
         ++e) {
      lrow.terms.push_back({layer.src_local[e], layer.weights[e]});
      grow.terms.push_back(
          {layer.src[layer.src_local[e]], layer.weights[e]});
    }
    local.push_back(lrow);
    global.push_back(grow);
  }
  for (const int64_t cols : {16L, 64L, 160L}) {
    const Matrix features = RandomMatrix(g.num_nodes(), cols, 87);
    Matrix gathered(static_cast<int64_t>(layer.src.size()), cols);
    for (size_t i = 0; i < layer.src.size(); ++i) {
      const auto row = features.Row(layer.src[i]);
      std::copy(row.begin(), row.end(),
                gathered.Row(static_cast<int64_t>(i)).begin());
    }
    const Matrix want_local = NaiveSpmm(local, gathered, num_dst);
    const Matrix want_global = NaiveSpmm(global, features, num_dst);
    EXPECT_TRUE(BytesEqual(want_local, want_global));
    for (const bool simd_on : {false, true}) {
      SCOPED_TRACE("cols=" + std::to_string(cols) +
                   " simd=" + (simd_on ? "on" : "off"));
      simd::SetEnabled(simd_on);
      Matrix out_local(num_dst, cols), out_global(num_dst, cols);
      graph::SpmmRows(layer, {0, num_dst}, gathered, &out_local);
      graph::SpmmRows(
          sampling::GlobalSourceRows(layer, features.rows()), {0, num_dst},
          features, &out_global);
      EXPECT_TRUE(BytesEqual(want_local, out_local));
      EXPECT_TRUE(BytesEqual(want_global, out_global));
    }
  }
}

// The out-of-core shard view computes each coefficient from the per-node
// factors and goes through the stack chunk; its S x must be the naive
// loop over the same formula, byte for byte, on both backends, at 1 and 8
// threads, with zero-weight edges, the hub split across chunks and rows
// of several register strips.
TEST_F(SimdTest, OocShardViewMatchesNaiveLoop) {
  const CsrGraph g = ViewTestGraph();
  const int64_t n = g.num_nodes();
  const std::string dir = ::testing::TempDir() + "/sgnn_simd_ooc_view";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(storage::WriteShardedGraph(
                  g, storage::ShardPlan::Contiguous(g, 4), dir)
                  .ok());
  for (const Normalization norm :
       {Normalization::kRow, Normalization::kSymmetric}) {
    std::vector<double> factor;
    std::vector<float> self_loop;
    graph::NodeFactors(g, norm, /*add_self_loops=*/true, &factor,
                       &self_loop);
    std::vector<NaiveRow> naive;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      NaiveRow row{u, {}};
      const auto nbrs = g.Neighbors(u);
      const auto ws = g.Weights(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        row.terms.push_back({nbrs[i], graph::EdgeCoefficient(
                                          norm, ws[i], factor[u],
                                          factor[nbrs[i]])});
      }
      row.terms.push_back({u, self_loop[u]});
      naive.push_back(row);
    }
    for (const int64_t cols : {16L, 160L}) {
      const Matrix x = RandomMatrix(n, cols, 88);
      const Matrix want = NaiveSpmm(naive, x, n);
      for (const bool simd_on : {false, true}) {
        for (const int threads : {1, 8}) {
          SCOPED_TRACE("norm=" + std::to_string(static_cast<int>(norm)) +
                       " cols=" + std::to_string(cols) +
                       " simd=" + (simd_on ? "on" : "off") +
                       " threads=" + std::to_string(threads));
          simd::SetEnabled(simd_on);
          par::SetThreads(threads);
          auto open_or = storage::ShardedGraph::Open(dir);
          ASSERT_TRUE(open_or.ok()) << open_or.status().message();
          auto prop_or = storage::OocPropagator::Create(
              open_or.value().get(), norm, /*add_self_loops=*/true);
          ASSERT_TRUE(prop_or.ok()) << prop_or.status().message();
          Matrix out;
          ASSERT_TRUE(prop_or.value().Apply(x, &out).ok());
          EXPECT_TRUE(BytesEqual(want, out));
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// Empty rows (isolated nodes) and single-edge rows at a width of several
// register strips: a zero-degree row must neither skip billing nor touch
// its output.
TEST_F(SimdTest, PropagatorHandlesIsolatedNodes) {
  std::vector<graph::Edge> edges;
  // Nodes 0..9; node 3 and 7 isolated; node 0 is a small hub.
  for (NodeId v : {1u, 2u, 4u, 5u, 6u, 8u, 9u}) {
    edges.push_back({0, v, 1.0f});
    edges.push_back({v, 0, 1.0f});
  }
  edges.push_back({5, 6, 2.0f});
  const CsrGraph g = CsrGraph::FromEdges(10, edges);
  const Matrix x = RandomMatrix(10, 200, 61);  // Four strips, one partial.
  auto run = [&](bool simd_on) {
    simd::SetEnabled(simd_on);
    graph::Propagator prop(g, Normalization::kRow, /*add_self_loops=*/false);
    Matrix out;
    prop.Apply(x, &out);
    return out;
  };
  const Matrix scalar_out = run(false);
  EXPECT_TRUE(BytesEqual(scalar_out, run(true)));
  // Isolated nodes propagate nothing: their output rows stay zero.
  for (int64_t c = 0; c < scalar_out.cols(); ++c) {
    EXPECT_EQ(scalar_out.at(3, c), 0.0f);
    EXPECT_EQ(scalar_out.at(7, c), 0.0f);
  }
}

// The out-of-core SpMM must match the in-memory propagator byte for byte
// on both backends, including under a budget that forces eviction: every
// normalisation, self loops on and off, and a narrow and a wide (several
// register strips) matrix.
TEST_F(SimdTest, OocPropagatorBitIdenticalToInMemory) {
  const CsrGraph g = graph::ErdosRenyi(300, 2400, 77);
  const std::string dir = ::testing::TempDir() + "/sgnn_simd_ooc";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(storage::WriteShardedGraph(
                  g, storage::ShardPlan::Contiguous(g, 5), dir)
                  .ok());
  for (const int64_t cols : {24L, 160L}) {
    const Matrix x = RandomMatrix(g.num_nodes(), cols, 78);
    for (const Normalization norm :
         {Normalization::kNone, Normalization::kRow, Normalization::kColumn,
          Normalization::kSymmetric}) {
      for (const bool self_loops : {true, false}) {
        Matrix want;
        {
          simd::SetEnabled(false);
          graph::Propagator prop(g, norm, self_loops);
          prop.Apply(x, &want);
        }
        for (const bool simd_on : {false, true}) {
          for (const int threads : {1, 8}) {
            SCOPED_TRACE(std::string("simd=") + (simd_on ? "on" : "off") +
                         " threads=" + std::to_string(threads) +
                         " cols=" + std::to_string(cols) +
                         " norm=" + std::to_string(static_cast<int>(norm)) +
                         " self_loops=" + std::to_string(self_loops));
            simd::SetEnabled(simd_on);
            par::SetThreads(threads);
            auto open_or = storage::ShardedGraph::Open(dir);
            ASSERT_TRUE(open_or.ok()) << open_or.status().message();
            auto prop_or = storage::OocPropagator::Create(
                open_or.value().get(), norm, self_loops);
            ASSERT_TRUE(prop_or.ok()) << prop_or.status().message();
            Matrix out;
            ASSERT_TRUE(prop_or.value().Apply(x, &out).ok());
            EXPECT_TRUE(BytesEqual(want, out));
          }
        }
      }
    }
  }
}

// Byte accounting is a pure function of the workload: identical at any
// thread count and on either backend, and exactly the documented formula
// for a dense kernel.
TEST_F(SimdTest, ByteAccountingExactAndInvariant) {
  const Matrix other = RandomMatrix(100, 37, 91);
  // Axpy over s scalars: reads both operands, writes one — 8s bytes read,
  // 4s written, exactly, regardless of how par shards the range.
  const uint64_t s = static_cast<uint64_t>(other.size());
  uint64_t want_read = 8 * s, want_written = 4 * s;
  for (const bool simd_on : {false, true}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string("simd=") + (simd_on ? "on" : "off") +
                   " threads=" + std::to_string(threads));
      simd::SetEnabled(simd_on);
      par::SetThreads(threads);
      Matrix m = RandomMatrix(100, 37, 90);
      common::ScopedCounterDelta scope;
      tensor::Axpy(0.5f, other, &m);
      EXPECT_EQ(scope.Delta().bytes_read, want_read);
      EXPECT_EQ(scope.Delta().bytes_written, want_written);
    }
  }

  // Dense Gemm(m x k, k x n) with k = 300, two k panels (256 + 44) in one
  // row shard: each gemm tile call reads its A panel, its b panel and the
  // C block once and writes C once, so A and b are read once in total and
  // C is read and written once per panel. floats_moved is the multiplies
  // issued, m*k*n when no element of a is zero.
  const int64_t gm = 23, gk = 300, gn = 13;
  Matrix a(gm, gk), b(gk, gn);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = 1.0f;
  for (int64_t i = 0; i < b.size(); ++i) b.data()[i] = 2.0f;
  want_read = 4u * static_cast<uint64_t>(gm * gk + gk * gn + 2 * gm * gn);
  want_written = 4u * static_cast<uint64_t>(2 * gm * gn);
  for (const bool simd_on : {false, true}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string("simd=") + (simd_on ? "on" : "off") +
                   " threads=" + std::to_string(threads));
      simd::SetEnabled(simd_on);
      par::SetThreads(threads);
      Matrix c;
      common::ScopedCounterDelta scope;
      tensor::Gemm(a, b, &c);
      EXPECT_EQ(scope.Delta().bytes_read, want_read);
      EXPECT_EQ(scope.Delta().bytes_written, want_written);
      EXPECT_EQ(scope.Delta().floats_moved,
                static_cast<uint64_t>(gm * gk * gn));
    }
  }

  // SpMM bills the same bytes at any thread count and on both backends
  // (formula is degree-dependent, so pin invariance rather than a closed
  // form).
  const CsrGraph g = graph::BarabasiAlbert(400, 5, 17);
  const Matrix x = RandomMatrix(g.num_nodes(), 160, 92);
  uint64_t ref_read = 0, ref_written = 0;
  for (const bool simd_on : {false, true}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string("simd=") + (simd_on ? "on" : "off") +
                   " threads=" + std::to_string(threads));
      simd::SetEnabled(simd_on);
      par::SetThreads(threads);
      graph::Propagator prop(g, Normalization::kSymmetric,
                             /*add_self_loops=*/true);
      Matrix out;
      common::ScopedCounterDelta scope;
      prop.Apply(x, &out);
      if (ref_read == 0) {
        ref_read = scope.Delta().bytes_read;
        ref_written = scope.Delta().bytes_written;
        EXPECT_GT(ref_read, 0u);
        EXPECT_GT(ref_written, 0u);
      } else {
        EXPECT_EQ(scope.Delta().bytes_read, ref_read);
        EXPECT_EQ(scope.Delta().bytes_written, ref_written);
      }
    }
  }
}

}  // namespace
}  // namespace sgnn
