#include "nn/mlp.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace sgnn::nn {

using tensor::Matrix;

Mlp::Mlp(const std::vector<int64_t>& dims, double dropout, common::Rng* rng)
    : dropout_(dropout) {
  SGNN_CHECK_GE(dims.size(), 2u);
  SGNN_CHECK(dropout >= 0.0 && dropout < 1.0);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

void Mlp::Forward(const Matrix& x, bool training, common::Rng* rng,
                  Matrix* logits) {
  SGNN_CHECK(logits != nullptr);
  inputs_.clear();
  pre_activations_.clear();
  dropout_masks_.clear();

  // Each layer reads its input in place; only training keeps copies.
  const Matrix* in = &x;
  Matrix cur;
  for (size_t l = 0; l < layers_.size(); ++l) {
    if (training) inputs_.push_back(*in);
    Matrix out;
    layers_[l].Forward(*in, &out);
    const bool is_last = (l + 1 == layers_.size());
    if (!is_last) {
      if (training) pre_activations_.push_back(out);
      tensor::Relu(&out);
      if (training) {
        Matrix mask;
        DropoutForward(dropout_, rng, &out, &mask);
        dropout_masks_.push_back(std::move(mask));
      }
    }
    cur = std::move(out);
    in = &cur;
  }
  *logits = std::move(cur);
}

void Mlp::Backward(const Matrix& dlogits, Matrix* dx) {
  SGNN_CHECK_EQ(inputs_.size(), layers_.size());
  Matrix grad = dlogits;
  for (size_t l = layers_.size(); l-- > 0;) {
    const bool is_last = (l + 1 == layers_.size());
    if (!is_last) {
      DropoutBackward(dropout_masks_[l], &grad);
      tensor::ReluBackward(pre_activations_[l], &grad);
    }
    Matrix dinput;
    const bool need_dinput = (l > 0) || (dx != nullptr);
    layers_[l].Backward(inputs_[l], grad, need_dinput ? &dinput : nullptr);
    grad = std::move(dinput);
  }
  if (dx != nullptr) *dx = std::move(grad);
}

void Mlp::ZeroGrad() {
  for (Linear& layer : layers_) layer.ZeroGrad();
}

std::vector<ParamRef> Mlp::Params() {
  std::vector<ParamRef> params;
  for (Linear& layer : layers_) {
    for (const ParamRef& p : layer.Params()) params.push_back(p);
  }
  return params;
}

}  // namespace sgnn::nn
