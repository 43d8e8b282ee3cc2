#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace sgnn::nn {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

Adam::Adam(std::vector<ParamRef> params, double lr, double weight_decay)
    : params_(std::move(params)), lr_(lr), weight_decay_(weight_decay) {
  SGNN_CHECK_GT(lr_, 0.0);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ParamRef& p : params_) {
    SGNN_CHECK(p.value != nullptr && p.grad != nullptr);
    SGNN_CHECK_EQ(p.value->size(), p.grad->size());
    m_.emplace_back(p.value->rows(), p.value->cols());
    v_.emplace_back(p.value->rows(), p.value->cols());
  }
}

void Adam::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (size_t j = 0; j < params_.size(); ++j) {
    float* value = params_[j].value->data();
    const float* grad = params_[j].grad->data();
    float* m = m_[j].data();
    float* v = v_[j].data();
    for (int64_t i = 0; i < params_[j].value->size(); ++i) {
      const double g = grad[i] + weight_decay_ * value[i];
      m[i] = static_cast<float>(kBeta1 * m[i] + (1.0 - kBeta1) * g);
      v[i] = static_cast<float>(kBeta2 * v[i] + (1.0 - kBeta2) * g * g);
      const double m_hat = m[i] / bc1;
      const double v_hat = v[i] / bc2;
      value[i] -= static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + kEps));
    }
  }
}

}  // namespace sgnn::nn
