#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>

namespace sgnn::tensor {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(static_cast<int64_t>(rows.size()),
           static_cast<int64_t>(rows[0].size()));
  for (size_t r = 0; r < rows.size(); ++r) {
    SGNN_CHECK_EQ(static_cast<int64_t>(rows[r].size()), m.cols());
    std::copy(rows[r].begin(), rows[r].end(), m.Row(static_cast<int64_t>(r)).begin());
  }
  return m;
}

Matrix Matrix::Identity(int64_t n) {
  Matrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m.at(i, i) = 1.0f;
  return m;
}

Matrix Matrix::GlorotUniform(int64_t rows, int64_t cols,
                             sgnn::common::Rng* rng) {
  SGNN_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Uniform(-limit, limit));
  }
  return m;
}

Matrix Matrix::Gaussian(int64_t rows, int64_t cols, float mean, float stddev,
                        sgnn::common::Rng* rng) {
  SGNN_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Gaussian(mean, stddev));
  }
  return m;
}

void Matrix::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::Reset(int64_t rows, int64_t cols, float fill) {
  SGNN_CHECK_GE(rows, 0);
  SGNN_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<size_t>(rows * cols), fill);
}

void Matrix::AccumulateRow(int64_t dst_row, std::span<const float> src) {
  SGNN_CHECK_EQ(static_cast<int64_t>(src.size()), cols_);
  auto dst = Row(dst_row);
  for (int64_t c = 0; c < cols_; ++c) dst[c] += src[c];
}

}  // namespace sgnn::tensor
