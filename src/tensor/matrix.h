#ifndef SGNN_TENSOR_MATRIX_H_
#define SGNN_TENSOR_MATRIX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace sgnn::tensor {

/// Dense row-major float matrix: the feature/parameter container for the
/// whole library. Copyable and movable; copies are deep.
///
/// A `Matrix` with zero rows or columns is valid and empty. Element access
/// is bounds-checked in debug builds only, so hot loops should iterate over
/// `Row()` spans or raw `data()`.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  /// Creates a `rows` x `cols` matrix initialised to `fill`.
  Matrix(int64_t rows, int64_t cols, float fill = 0.0f) : Matrix() {
    Reset(rows, cols, fill);
  }

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// Builds a matrix from nested initialiser data (test convenience).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// Identity matrix of size n x n.
  static Matrix Identity(int64_t n);

  /// Glorot/Xavier-uniform initialised matrix, the standard NN weight init.
  static Matrix GlorotUniform(int64_t rows, int64_t cols,
                              sgnn::common::Rng* rng);

  /// Entries drawn i.i.d. from N(mean, stddev^2).
  static Matrix Gaussian(int64_t rows, int64_t cols, float mean, float stddev,
                         sgnn::common::Rng* rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float& at(int64_t r, int64_t c) {
    SGNN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float at(int64_t r, int64_t c) const {
    SGNN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  std::span<float> Row(int64_t r) {
    SGNN_DCHECK(r >= 0 && r < rows_);
    return {data_.data() + r * cols_, static_cast<size_t>(cols_)};
  }
  std::span<const float> Row(int64_t r) const {
    SGNN_DCHECK(r >= 0 && r < rows_);
    return {data_.data() + r * cols_, static_cast<size_t>(cols_)};
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every entry to `v`.
  void Fill(float v);

  /// Sets every entry to zero (gradient reset idiom).
  void Zero() { Fill(0.0f); }

  /// Becomes a `rows` x `cols` matrix of `fill`, as the constructor makes
  /// it, but keeps the allocation when it is large enough: the in-place
  /// output idiom of every op that overwrites its `out`.
  void Reset(int64_t rows, int64_t cols, float fill = 0.0f);

  /// Returns a new matrix containing the given rows, in order.
  Matrix GatherRows(std::span<const int64_t> indices) const {
    Matrix out;
    GatherRowsInto(indices, &out);
    return out;
  }

  /// As `GatherRows`, from row ids of any integral type, into `out`, which
  /// is reset in place (`Reset`).
  template <typename Index>
  void GatherRowsInto(std::span<const Index> indices, Matrix* out) const {
    SGNN_CHECK(out != nullptr && out != this);
    out->Reset(static_cast<int64_t>(indices.size()), cols_);
    for (size_t i = 0; i < indices.size(); ++i) {
      const int64_t r = static_cast<int64_t>(indices[i]);
      SGNN_CHECK(r >= 0 && r < rows_);
      std::copy_n(data_.data() + r * cols_, cols_,
                  out->data() + static_cast<int64_t>(i) * cols_);
    }
  }

  /// Adds `src` row r into this matrix's row `dst_row` (scatter-accumulate).
  void AccumulateRow(int64_t dst_row, std::span<const float> src);

  /// Exact equality (useful in determinism tests).
  bool Equals(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<float> data_;
};

}  // namespace sgnn::tensor

#endif  // SGNN_TENSOR_MATRIX_H_
