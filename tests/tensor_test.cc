#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "par/par.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace sgnn::tensor {
namespace {

Matrix Small() {
  return Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(m.at(0, 1), -2.0f);
}

TEST(MatrixTest, EmptyMatrixIsValid) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0);
}

TEST(MatrixTest, FromRowsRoundTrips) {
  Matrix m = Small();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_FLOAT_EQ(m.at(2, 1), 6.0f);
}

TEST(MatrixTest, IdentityHasOnesOnDiagonal) {
  Matrix id = Matrix::Identity(4);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(id.at(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, GlorotUniformWithinLimit) {
  common::Rng rng(1);
  Matrix m = Matrix::GlorotUniform(10, 30, &rng);
  const float limit = std::sqrt(6.0f / 40.0f);
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), limit);
  }
}

TEST(MatrixTest, GaussianIsDeterministicPerSeed) {
  common::Rng a(5), b(5);
  Matrix ma = Matrix::Gaussian(4, 4, 0.0f, 1.0f, &a);
  Matrix mb = Matrix::Gaussian(4, 4, 0.0f, 1.0f, &b);
  EXPECT_TRUE(ma.Equals(mb));
}

TEST(MatrixTest, GatherRowsSelectsAndOrders) {
  Matrix m = Small();
  std::vector<int64_t> idx = {2, 0};
  Matrix g = m.GatherRows(idx);
  EXPECT_EQ(g.rows(), 2);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
}

TEST(MatrixTest, GatherRowsIntoAcceptsAnyIdTypeAndReusesOut) {
  const Matrix m = Small();
  const std::vector<uint32_t> idx = {1, 2, 1};
  Matrix out(8, 8, 9.0f);
  const float* before = out.data();
  m.GatherRowsInto<uint32_t>(idx, &out);
  EXPECT_EQ(out.data(), before);
  EXPECT_TRUE(out.Equals(Matrix::FromRows({{3, 4}, {5, 6}, {3, 4}})));
}

// Reset gives what the constructor gives, +0.0f by default, and keeps the
// allocation whenever it is large enough.
TEST(MatrixTest, ResetSetsShapeAndFill) {
  Matrix m(2, 3, 7.0f);
  m.Reset(3, 2);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_TRUE(m.Equals(Matrix(3, 2)));
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(m.data()[i]), 0u) << i;
  }
  m.Reset(4, 5, -1.5f);
  EXPECT_TRUE(m.Equals(Matrix(4, 5, -1.5f)));
  m.Reset(0, 5);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.cols(), 5);
}

TEST(MatrixTest, ResetKeepsTheAllocationWhenItFits) {
  Matrix m(64, 32, std::numeric_limits<float>::quiet_NaN());
  const float* data = m.data();
  m.Reset(64, 32);  // Same size.
  EXPECT_EQ(m.data(), data);
  EXPECT_TRUE(m.Equals(Matrix(64, 32)));
  m.Reset(10, 7, 2.0f);  // Smaller.
  EXPECT_EQ(m.data(), data);
  EXPECT_TRUE(m.Equals(Matrix(10, 7, 2.0f)));
  m.Reset(32, 64);  // Back up to the capacity.
  EXPECT_EQ(m.data(), data);
  EXPECT_TRUE(m.Equals(Matrix(32, 64)));
}

TEST(MatrixTest, AccumulateRowAdds) {
  Matrix m = Small();
  std::vector<float> inc = {10.0f, 20.0f};
  m.AccumulateRow(1, inc);
  EXPECT_FLOAT_EQ(m.at(1, 0), 13.0f);
  EXPECT_FLOAT_EQ(m.at(1, 1), 24.0f);
}

TEST(OpsTest, GemmMatchesHandComputation) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix b = Matrix::FromRows({{7, 8}, {9, 10}, {11, 12}});
  Matrix c;
  Gemm(a, b, &c);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsTest, GemmWithIdentityIsNoop) {
  Matrix a = Small();
  Matrix c;
  Gemm(a, Matrix::Identity(2), &c);
  EXPECT_TRUE(c.Equals(a));
}

TEST(OpsTest, GemmTransposeAMatchesExplicitTranspose) {
  common::Rng rng(2);
  Matrix a = Matrix::Gaussian(5, 3, 0, 1, &rng);
  Matrix b = Matrix::Gaussian(5, 4, 0, 1, &rng);
  Matrix expected, got;
  Gemm(Transpose(a), b, &expected);
  GemmTransposeA(a, b, &got);
  EXPECT_LT(MaxAbsDiff(expected, got), 1e-5);
}

TEST(OpsTest, GemmTransposeBMatchesExplicitTranspose) {
  common::Rng rng(3);
  Matrix a = Matrix::Gaussian(5, 3, 0, 1, &rng);
  Matrix b = Matrix::Gaussian(4, 3, 0, 1, &rng);
  Matrix expected, got;
  Gemm(a, Transpose(b), &expected);
  GemmTransposeB(a, b, &got);
  EXPECT_LT(MaxAbsDiff(expected, got), 1e-5);
}

TEST(OpsTest, TransposeIsInvolution) {
  common::Rng rng(4);
  Matrix m = Matrix::Gaussian(6, 2, 0, 1, &rng);
  EXPECT_TRUE(Transpose(Transpose(m)).Equals(m));
}

TEST(OpsTest, AxpyAndScale) {
  Matrix m = Small();
  Matrix other = Small();
  Axpy(2.0f, other, &m);
  EXPECT_FLOAT_EQ(m.at(0, 0), 3.0f);
  Scale(0.5f, &m);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.5f);
}

TEST(OpsTest, HadamardMultipliesElementwise) {
  Matrix m = Small();
  Matrix other = Small();
  Hadamard(other, &m);
  EXPECT_FLOAT_EQ(m.at(2, 1), 36.0f);
}

TEST(OpsTest, AddBiasRowBroadcasts) {
  Matrix m(2, 3, 0.0f);
  std::vector<float> bias = {1, 2, 3};
  AddBiasRow(bias, &m);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 3.0f);
}

TEST(OpsTest, ReluClampsNegatives) {
  Matrix m = Matrix::FromRows({{-1, 2}, {3, -4}});
  Relu(&m);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1, 1), 0.0f);
}

TEST(OpsTest, ReluBackwardMasksByPreActivation) {
  Matrix pre = Matrix::FromRows({{-1, 2}, {0, 4}});
  Matrix grad = Matrix::FromRows({{10, 10}, {10, 10}});
  ReluBackward(pre, &grad);
  EXPECT_FLOAT_EQ(grad.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad.at(0, 1), 10.0f);
  EXPECT_FLOAT_EQ(grad.at(1, 0), 0.0f);  // Boundary: zero pre-act gets zero.
  EXPECT_FLOAT_EQ(grad.at(1, 1), 10.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOneAndOrderPreserved) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {-5, 0, 5}});
  SoftmaxRows(&m);
  for (int64_t r = 0; r < 2; ++r) {
    double sum = 0;
    for (float v : m.Row(r)) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  EXPECT_LT(m.at(0, 0), m.at(0, 2));
}

TEST(OpsTest, SoftmaxRowsIsShiftInvariantAndStable) {
  Matrix a = Matrix::FromRows({{1000, 1001, 1002}});
  SoftmaxRows(&a);
  Matrix b = Matrix::FromRows({{0, 1, 2}});
  SoftmaxRows(&b);
  EXPECT_LT(MaxAbsDiff(a, b), 1e-5);
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Matrix a = Matrix::FromRows({{0.5, -1.5, 2.0}});
  Matrix b = a;
  SoftmaxRows(&a);
  LogSoftmaxRows(&b);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(std::log(a.at(0, c)), b.at(0, c), 1e-5);
  }
}

TEST(OpsTest, NormalizeRowsL1AndL2) {
  Matrix m = Matrix::FromRows({{3, 4}, {0, 0}});
  Matrix m2 = m;
  NormalizeRows(1, &m);
  EXPECT_NEAR(m.at(0, 0) + m.at(0, 1), 1.0, 1e-6);
  EXPECT_FLOAT_EQ(m.at(1, 0), 0.0f);  // Zero row untouched.
  NormalizeRows(2, &m2);
  EXPECT_NEAR(m2.at(0, 0), 0.6, 1e-6);
  EXPECT_NEAR(m2.at(0, 1), 0.8, 1e-6);
}

TEST(OpsTest, ArgmaxRowsBreaksTiesLow) {
  Matrix m = Matrix::FromRows({{1, 3, 3}, {5, 2, 1}});
  auto idx = ArgmaxRows(m);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(OpsTest, ConcatColsStitches) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5}, {6}});
  Matrix c = ConcatCols(a, b);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_FLOAT_EQ(c.at(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 3.0f);
}

TEST(OpsTest, NormsAndDot) {
  Matrix m = Matrix::FromRows({{3, 4}});
  EXPECT_NEAR(FrobeniusNorm(m), 5.0, 1e-6);
  std::vector<float> a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_NEAR(Dot(a, b), 32.0, 1e-6);
  EXPECT_NEAR(Norm2(a), std::sqrt(14.0), 1e-6);
}

TEST(OpsTest, MaxAbsDiffFindsLargestDeviation) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{1, 2.5}, {3, 3}});
  EXPECT_NEAR(MaxAbsDiff(a, b), 1.0, 1e-6);
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// 512 x 512 spans several element shards, so 8 workers really split it.
TEST(KeyedDropoutTest, MaskIsByteIdenticalAcrossThreadCounts) {
  common::Rng rng(31);
  const Matrix input = Matrix::Gaussian(512, 512, 0, 1, &rng);
  auto run = [&](int threads) {
    par::SetThreads(threads);
    std::pair<Matrix, Matrix> out{input, Matrix()};
    KeyedDropout(0xD00D, 0.5, &out.first, &out.second);
    return out;
  };
  const auto one = run(1);
  const auto eight = run(8);
  par::SetThreads(1);
  EXPECT_TRUE(SameBytes(one.first, eight.first));
  EXPECT_TRUE(SameBytes(one.second, eight.second));
}

// A dropped element is +0.0f whatever it held, where multiplying by a zero
// mask entry would turn inf into NaN and keep NaN; a kept one is x * scale.
TEST(KeyedDropoutTest, DroppedNonFiniteInputsBecomePositiveZero) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float values[] = {kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
                          -0.0f, 2.0f};
  Matrix x(40, 5);
  for (int64_t r = 0; r < x.rows(); ++r) {
    for (int64_t c = 0; c < x.cols(); ++c) x.at(r, c) = values[c];
  }
  Matrix mask;
  KeyedDropout(5, 0.5, &x, &mask);
  int dropped = 0;
  for (int64_t r = 0; r < x.rows(); ++r) {
    for (int64_t c = 0; c < x.cols(); ++c) {
      if (mask.at(r, c) == 0.0f) {
        ++dropped;
        EXPECT_EQ(std::bit_cast<uint32_t>(x.at(r, c)), 0u);
        EXPECT_EQ(std::bit_cast<uint32_t>(mask.at(r, c)), 0u);
      } else {
        EXPECT_EQ(mask.at(r, c), 2.0f);
        const float kept = values[c] * 2.0f;
        EXPECT_EQ(std::bit_cast<uint32_t>(x.at(r, c)),
                  std::bit_cast<uint32_t>(kept));
      }
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_LT(dropped, x.size());
}

TEST(KeyedDropoutTest, KeptFractionIsOneMinusP) {
  for (const double p : {0.1, 0.5, 0.9}) {
    Matrix x(1, 100000, 1.0f);
    Matrix mask;
    KeyedDropout(static_cast<uint64_t>(p * 1000), p, &x, &mask);
    int64_t kept = 0;
    for (int64_t i = 0; i < x.size(); ++i) kept += x.data()[i] != 0.0f;
    EXPECT_NEAR(static_cast<double>(kept) / x.size(), 1.0 - p, 0.01) << p;
  }
}

}  // namespace
}  // namespace sgnn::tensor
