#ifndef SGNN_MODELS_SAGE_H_
#define SGNN_MODELS_SAGE_H_

#include <span>

#include "graph/propagate.h"
#include "models/api.h"
#include "nn/linear.h"
#include "sampling/block.h"

namespace sgnn::models {

/// GraphSAGE (Hamilton et al.) with mean aggregation: the canonical
/// node-wise-sampled mini-batch GNN of §3.1.2/§3.3.2. Per layer,
///   h'_v = ReLU(W_self h_v + W_nbr mean_{u in sampled N(v)} h_u + b),
/// trained on blocks produced by `sampling::SampleNodeWise` (or any
/// compatible sampler: LABOR works unchanged).
class SageModel {
 public:
  /// `dims` = {in, hidden..., out}: one Sage layer per consecutive pair.
  SageModel(const std::vector<int64_t>& dims, double dropout,
            common::Rng* rng);

  /// Forward + masked-CE backward over one sampled mini-batch whose
  /// `batch.layers.size()` equals the number of Sage layers. `features` is
  /// the full feature matrix, indexed by node id: layer 0 aggregates
  /// straight from it through `sampling::GlobalSourceRows`, and only the
  /// dst rows are copied, for the self path. Every input node id must be
  /// below `features.rows()` (checked). Loss is over all seeds. Returns the
  /// loss. The step's matrices live in a workspace that keeps its capacity
  /// across calls, so once it has seen the largest block a step allocates
  /// nothing large; `ReleaseWorkspace` frees it.
  double TrainStep(const sampling::MiniBatch& batch,
                   const tensor::Matrix& features,
                   std::span<const int> seed_labels, common::Rng* rng);

  /// Frees the `TrainStep` workspace. Call it when the steps stop for a
  /// while: `TrainSage` does before each epoch's `Predict`, so the
  /// workspace and `Predict`'s graph-sized activations are never resident
  /// together.
  void ReleaseWorkspace() { ws_ = {}; }

  /// Full-graph inference: exact mean aggregation per layer through
  /// `mean_prop`, the row-normalised operator without self loops (D^-1 A).
  tensor::Matrix Predict(const graph::Propagator& mean_prop,
                         const tensor::Matrix& x) const;

  void ZeroGrad();
  std::vector<nn::ParamRef> Params();
  int num_layers() const { return static_cast<int>(self_.size()); }

 private:
  /// One layer's step matrices: the dst prefix of its input, the
  /// aggregate, the output (the next layer's input; logits at the last),
  /// the pre-activation and dropout mask (not at the last), and the
  /// gradient of the output.
  struct LayerWorkspace {
    tensor::Matrix h_self, agg, out, pre, mask, dout;
  };
  /// Per-layer matrices plus scratch the layers share: the neighbour
  /// path's output and the two input-gradient products.
  struct Workspace {
    std::vector<LayerWorkspace> layers;
    tensor::Matrix out_nbr, dself, dagg;
  };

  std::vector<nn::Linear> self_;
  std::vector<nn::Linear> nbr_;
  double dropout_;
  Workspace ws_;
};

/// Mini-batch GraphSAGE training with node-wise sampling.
struct SageConfig {
  std::vector<int> fanouts = {10, 10};
  bool use_labor = false;  ///< Swap in the LABOR sampler.
};
ModelResult TrainSage(const graph::CsrGraph& graph, const tensor::Matrix& x,
                      std::span<const int> labels, const NodeSplits& splits,
                      const nn::TrainConfig& config,
                      const SageConfig& sage = SageConfig());

}  // namespace sgnn::models

#endif  // SGNN_MODELS_SAGE_H_
