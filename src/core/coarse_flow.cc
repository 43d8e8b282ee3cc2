#include "core/coarse_flow.h"

#include "common/timer.h"
#include "graph/propagate.h"
#include "models/gcn.h"
#include "nn/optimizer.h"

namespace sgnn::core {

using graph::NodeId;
using tensor::Matrix;

CoarseTrainResult TrainOnCoarseGraph(const Dataset& dataset,
                                     double target_ratio,
                                     const nn::TrainConfig& config) {
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  common::Rng rng(config.seed);

  coarsen::Coarsening coarsening =
      coarsen::HeavyEdgeCoarsen(dataset.graph, target_ratio, config.seed);
  Matrix coarse_x = coarsen::RestrictFeatures(coarsening, dataset.features);
  std::vector<int> coarse_labels = coarsen::RestrictLabels(
      coarsening, dataset.labels, dataset.num_classes);

  // Coarse-side split for early stopping (test side is evaluated on the
  // fine graph, so any coarse test set would be redundant).
  models::NodeSplits coarse_splits =
      models::MakeSplits(coarsening.num_coarse(), 0.7, 0.29, config.seed);

  graph::Propagator coarse_prop(coarsening.coarse,
                                graph::Normalization::kSymmetric, true);
  models::Gcn model(coarse_x.cols(), config.hidden_dim, dataset.num_classes,
                    config.dropout, &rng);
  nn::Adam opt(model.Params(), config.lr, config.weight_decay);

  auto train_epoch = [&] {
    model.ZeroGrad();
    const double loss = model.TrainStep(coarse_prop, coarse_x, coarse_labels,
                                        coarse_splits.train, &rng);
    opt.Step();
    return loss;
  };
  // Lift coarse logits to fine nodes and score on the FINE splits.
  auto eval_logits = [&] {
    return coarsen::LiftFeatures(coarsening,
                                 model.Predict(coarse_prop, coarse_x));
  };

  CoarseTrainResult result;
  result.coarse_nodes = coarsening.num_coarse();
  result.model.name = "coarse_gcn";
  result.model.report =
      nn::RunEpochs(config, dataset.labels, dataset.splits.val,
                    dataset.splits.test, train_epoch, eval_logits);
  result.model.report.train_seconds = timer.Seconds();
  result.model.ops = counters.Delta();
  result.spectral_distortion =
      coarsen::SpectralDistortion(dataset.graph, coarsening, 4, config.seed);
  return result;
}

}  // namespace sgnn::core
