#ifndef SGNN_NN_OPTIMIZER_H_
#define SGNN_NN_OPTIMIZER_H_

#include <vector>

#include "nn/linear.h"

namespace sgnn::nn {

/// Adam (Kingma & Ba) with bias correction and L2 weight decay applied to
/// the gradient (the classic, non-decoupled variant). The moment settings
/// are fixed at Kingma & Ba's defaults: beta1 0.9, beta2 0.999, eps 1e-8.
class Adam {
 public:
  Adam(std::vector<ParamRef> params, double lr, double weight_decay = 0.0);

  void Step();

  int64_t steps() const { return t_; }

 private:
  std::vector<ParamRef> params_;
  std::vector<tensor::Matrix> m_;
  std::vector<tensor::Matrix> v_;
  double lr_, weight_decay_;
  int64_t t_ = 0;
};

}  // namespace sgnn::nn

#endif  // SGNN_NN_OPTIMIZER_H_
