#include "nn/linear.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace sgnn::nn {

using tensor::Matrix;

Linear::Linear(int64_t in_dim, int64_t out_dim, common::Rng* rng)
    : weight_(Matrix::GlorotUniform(in_dim, out_dim, rng)),
      bias_(1, out_dim),
      weight_grad_(in_dim, out_dim),
      bias_grad_(1, out_dim) {}

void Linear::Forward(const Matrix& x, Matrix* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.cols(), weight_.rows());
  tensor::Gemm(x, weight_, out);
  tensor::AddBiasRow(bias_.Row(0), out);
}

void Linear::Backward(const Matrix& x, const Matrix& dout, Matrix* dx) {
  SGNN_CHECK_EQ(x.rows(), dout.rows());
  SGNN_CHECK_EQ(dout.cols(), weight_.cols());
  Matrix dw;
  tensor::GemmTransposeA(x, dout, &dw);
  tensor::Axpy(1.0f, dw, &weight_grad_);
  auto bias_grad = bias_grad_.Row(0);
  for (int64_t r = 0; r < dout.rows(); ++r) {
    auto row = dout.Row(r);
    for (int64_t c = 0; c < dout.cols(); ++c) bias_grad[c] += row[c];
  }
  if (dx != nullptr) tensor::GemmTransposeB(dout, weight_, dx);
}

void Linear::ZeroGrad() {
  weight_grad_.Zero();
  bias_grad_.Zero();
}

std::vector<ParamRef> Linear::Params() {
  return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

void DropoutForward(double p, common::Rng* rng, Matrix* x, Matrix* mask) {
  SGNN_CHECK(x != nullptr);
  SGNN_CHECK(mask != nullptr);
  SGNN_CHECK(p >= 0.0 && p < 1.0);
  if (p == 0.0) {
    mask->Reset(x->rows(), x->cols(), 1.0f);
    return;
  }
  SGNN_CHECK(rng != nullptr);
  tensor::KeyedDropout(rng->engine()(), p, x, mask);
}

void DropoutBackward(const Matrix& mask, Matrix* grad) {
  tensor::Hadamard(mask, grad);
}

}  // namespace sgnn::nn
