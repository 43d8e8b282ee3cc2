#ifndef SGNN_MODELS_GCN_H_
#define SGNN_MODELS_GCN_H_

#include <span>

#include "graph/propagate.h"
#include "models/api.h"
#include "nn/linear.h"

namespace sgnn::models {

/// Two-layer graph convolutional network (Kipf & Welling):
///   logits = S ReLU(S X W0 + b0) W1 + b1,  S = D̃^-1/2 Ã D̃^-1/2.
/// The canonical *coupled* design whose full-graph propagation per
/// optimisation step is the scalability baseline of §3.1 — every scalable
/// model in the zoo is an answer to this one's cost profile.
class Gcn {
 public:
  Gcn(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, double dropout,
      common::Rng* rng);

  /// One full-batch training step (forward, masked CE on `loss_rows`,
  /// backward; gradients accumulate in the layers). Returns the loss.
  /// `prop` must be the kSymmetric operator of the training graph (any
  /// graph whose node count matches `x`; Cluster-GCN and GraphSAINT pass
  /// subgraphs). `loss_weights`, if given, aligns with `loss_rows` and
  /// weights each row's loss (GraphSAINT inclusion normalisation; see
  /// `nn::SoftmaxCrossEntropy`).
  double TrainStep(const graph::Propagator& prop, const tensor::Matrix& x,
                   std::span<const int> labels,
                   std::span<const graph::NodeId> loss_rows, common::Rng* rng,
                   std::span<const float> loss_weights = {});

  /// Inference logits (no dropout).
  tensor::Matrix Predict(const graph::Propagator& prop,
                         const tensor::Matrix& x);

  void ZeroGrad();
  std::vector<nn::ParamRef> Params();

 private:
  nn::Linear l0_;
  nn::Linear l1_;
  double dropout_;
};

/// Full-batch GCN training with early stopping on validation accuracy.
struct GcnConfig {
  /// The "renormalisation trick" (A + I with adjusted degrees). Exposed
  /// for the E14 ablation; on by default as in the original model.
  bool self_loops = true;
};
ModelResult TrainGcn(const graph::CsrGraph& graph, const tensor::Matrix& x,
                     std::span<const int> labels, const NodeSplits& splits,
                     const nn::TrainConfig& config,
                     const GcnConfig& gcn = GcnConfig());

}  // namespace sgnn::models

#endif  // SGNN_MODELS_GCN_H_
