#ifndef SGNN_TENSOR_OPS_H_
#define SGNN_TENSOR_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace sgnn::tensor {

/// Dense kernels used by the NN stack and the spectral/decoupled modules.
/// Kernels fan out through `sgnn::par` with bit-identical results at any
/// thread count, and all but `KeyedDropout` instrument
/// `common::GlobalCounters()` with the scalars and bytes they move.

/// out = a * b. Requires a.cols == b.rows; `out` is resized/overwritten.
void Gemm(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b (avoids materialising the transpose).
void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T.
void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix* out);

/// Returns the transpose of `m`.
Matrix Transpose(const Matrix& m);

/// m += alpha * other (element-wise). Shapes must match.
void Axpy(float alpha, const Matrix& other, Matrix* m);

/// m *= alpha (element-wise).
void Scale(float alpha, Matrix* m);

/// Element-wise product: m *= other.
void Hadamard(const Matrix& other, Matrix* m);

/// Adds a length-cols bias row vector to every row of `m`.
void AddBiasRow(std::span<const float> bias, Matrix* m);

/// In-place ReLU.
void Relu(Matrix* m);

/// grad *= 1[pre_activation > 0]; the backward of `Relu`.
void ReluBackward(const Matrix& pre_activation, Matrix* grad);

/// Inverted dropout with counter-based draws. Element i is dropped when the
/// top 53 bits of `common::KeyedStream(key).At(i)`, read as a fraction in
/// [0, 1), fall below p. A dropped element and its `mask` entry become
/// +0.0f, whatever `x` held (±inf and NaN included); a kept element becomes
/// x * scale and its mask entry scale = 1/(1-p). The mask is a pure
/// function of (key, p, shape), so it is byte-identical at any thread
/// count. `mask` is overwritten; requires 0 <= p < 1. Bills no counters:
/// the mask is applied, and billed, by `Hadamard` in the backward pass.
void KeyedDropout(uint64_t key, double p, Matrix* x, Matrix* mask);

/// Row-wise softmax, numerically stabilised, in place.
void SoftmaxRows(Matrix* m);

/// Row-wise log-softmax, numerically stabilised, in place.
void LogSoftmaxRows(Matrix* m);

/// Normalises each row to unit Lp norm (p in {1, 2}); zero rows untouched.
void NormalizeRows(int p, Matrix* m);

/// Index of the maximum entry per row (ties break to the lowest index).
std::vector<int64_t> ArgmaxRows(const Matrix& m);

/// Horizontal concatenation [a | b]; row counts must match.
Matrix ConcatCols(const Matrix& a, const Matrix& b);

/// Frobenius norm.
double FrobeniusNorm(const Matrix& m);

/// Largest absolute entry difference between two same-shape matrices.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

/// Dot product of two equal-length spans.
double Dot(std::span<const float> a, std::span<const float> b);

/// Euclidean norm of a span.
double Norm2(std::span<const float> v);

}  // namespace sgnn::tensor

#endif  // SGNN_TENSOR_OPS_H_
