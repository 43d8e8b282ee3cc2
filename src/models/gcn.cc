#include "models/gcn.h"

#include "common/check.h"
#include "common/timer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace sgnn::models {

using graph::Propagator;
using tensor::Matrix;

Gcn::Gcn(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, double dropout,
         common::Rng* rng)
    : l0_(in_dim, hidden_dim, rng),
      l1_(hidden_dim, out_dim, rng),
      dropout_(dropout) {}

double Gcn::TrainStep(const Propagator& prop, const Matrix& x,
                      std::span<const int> labels,
                      std::span<const graph::NodeId> loss_rows,
                      common::Rng* rng, std::span<const float> loss_weights) {
  // Resident-activation accounting for the E13 memory comparison: a
  // full-batch step materialises hidden and logit activations (and their
  // gradients) for every node of the graph passed in.
  const uint64_t resident =
      2 * static_cast<uint64_t>(x.rows()) *
      static_cast<uint64_t>(l0_.out_dim() + l1_.out_dim());
  common::GlobalCounters().Acquire(resident);
  // Forward: t0 = X W0 + b0; h_pre = S t0; h = dropout(relu(h_pre));
  //          t1 = h W1 + b1; logits = S t1.
  Matrix t0;
  l0_.Forward(x, &t0);
  Matrix h_pre;
  prop.Apply(t0, &h_pre);
  Matrix h = h_pre;
  tensor::Relu(&h);
  Matrix mask;
  nn::DropoutForward(dropout_, rng, &h, &mask);
  Matrix t1;
  l1_.Forward(h, &t1);
  Matrix logits;
  prop.Apply(t1, &logits);

  Matrix dlogits;
  const double loss = nn::SoftmaxCrossEntropy(logits, labels, loss_rows,
                                              &dlogits, loss_weights);

  // Backward (S is symmetric, so S^T = S).
  Matrix dt1;
  prop.Apply(dlogits, &dt1);
  Matrix dh;
  l1_.Backward(h, dt1, &dh);
  nn::DropoutBackward(mask, &dh);
  tensor::ReluBackward(h_pre, &dh);
  Matrix dt0;
  prop.Apply(dh, &dt0);
  l0_.Backward(x, dt0, nullptr);
  common::GlobalCounters().Release(resident);
  return loss;
}

Matrix Gcn::Predict(const Propagator& prop, const Matrix& x) {
  Matrix t0;
  l0_.Forward(x, &t0);
  Matrix h;
  prop.Apply(t0, &h);
  tensor::Relu(&h);
  Matrix t1;
  l1_.Forward(h, &t1);
  Matrix logits;
  prop.Apply(t1, &logits);
  return logits;
}

void Gcn::ZeroGrad() {
  l0_.ZeroGrad();
  l1_.ZeroGrad();
}

std::vector<nn::ParamRef> Gcn::Params() {
  std::vector<nn::ParamRef> params = l0_.Params();
  for (const nn::ParamRef& p : l1_.Params()) params.push_back(p);
  return params;
}

ModelResult TrainGcn(const graph::CsrGraph& graph, const Matrix& x,
                     std::span<const int> labels, const NodeSplits& splits,
                     const nn::TrainConfig& config, const GcnConfig& gcn) {
  common::Rng rng(config.seed);
  common::ScopedCounterDelta counters;
  common::WallTimer timer;

  Propagator prop(graph, graph::Normalization::kSymmetric, gcn.self_loops);
  Gcn model(x.cols(), config.hidden_dim, NumClasses(labels), config.dropout,
            &rng);
  nn::Adam opt(model.Params(), config.lr, config.weight_decay);

  auto train_epoch = [&] {
    model.ZeroGrad();
    const double loss = model.TrainStep(prop, x, labels, splits.train, &rng);
    opt.Step();
    return loss;
  };

  ModelResult result;
  result.name = "gcn";
  result.report =
      nn::RunEpochs(config, labels, splits.val, splits.test, train_epoch,
                    [&] { return model.Predict(prop, x); });
  result.report.train_seconds = timer.Seconds();
  result.ops = counters.Delta();
  return result;
}

}  // namespace sgnn::models
