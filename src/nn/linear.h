#ifndef SGNN_NN_LINEAR_H_
#define SGNN_NN_LINEAR_H_

#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace sgnn::nn {

/// A parameter tensor paired with its gradient accumulator; optimizers
/// operate on spans of these.
struct ParamRef {
  tensor::Matrix* value = nullptr;
  tensor::Matrix* grad = nullptr;
};

/// Fully-connected layer y = x W + b with hand-derived backward.
/// Gradients accumulate across Backward calls until `ZeroGrad`.
class Linear {
 public:
  /// Glorot-uniform weight init, zero bias.
  Linear(int64_t in_dim, int64_t out_dim, common::Rng* rng);

  int64_t in_dim() const { return weight_.rows(); }
  int64_t out_dim() const { return weight_.cols(); }

  /// out = x W + b.
  void Forward(const tensor::Matrix& x, tensor::Matrix* out) const;

  /// Accumulates dW += x^T dout, db += column-sums(dout); if `dx` is
  /// non-null, writes dx = dout W^T. `x` must be the Forward input.
  void Backward(const tensor::Matrix& x, const tensor::Matrix& dout,
                tensor::Matrix* dx);

  void ZeroGrad();

  /// Parameter/gradient pairs for the optimizer.
  std::vector<ParamRef> Params();

  const tensor::Matrix& weight() const { return weight_; }
  const tensor::Matrix& bias() const { return bias_; }

 private:
  tensor::Matrix weight_;       // in x out
  tensor::Matrix bias_;         // 1 x out
  tensor::Matrix weight_grad_;  // in x out
  tensor::Matrix bias_grad_;    // 1 x out
};

/// Inverted dropout: zeroes entries with probability `p` and scales the
/// survivors by 1/(1-p) (`tensor::KeyedDropout`, keyed by one engine draw
/// from `rng`). The mask is written to `mask` for the backward pass
/// (`DropoutBackward`). At p == 0 nothing is drawn: `x` is left as is
/// under an all-ones mask. Inference skips dropout instead of calling it.
void DropoutForward(double p, common::Rng* rng, tensor::Matrix* x,
                    tensor::Matrix* mask);

/// grad *= mask (the saved forward mask).
void DropoutBackward(const tensor::Matrix& mask, tensor::Matrix* grad);

}  // namespace sgnn::nn

#endif  // SGNN_NN_LINEAR_H_
