#include "models/cluster_gcn.h"

#include <algorithm>
#include <unordered_set>

#include "common/timer.h"
#include "graph/propagate.h"
#include "models/gcn.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "partition/partition.h"

namespace sgnn::models {

using graph::NodeId;
using tensor::Matrix;

ModelResult TrainClusterGcn(const graph::CsrGraph& graph, const Matrix& x,
                            std::span<const int> labels,
                            const NodeSplits& splits,
                            const nn::TrainConfig& config,
                            const ClusterGcnConfig& cluster) {
  const int num_classes =
      1 + *std::max_element(labels.begin(), labels.end());
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  common::Rng rng(config.seed);

  // One-time partitioning (the preprocessing the method amortises).
  partition::Partition parts = partition::MultilevelPartition(
      graph, cluster.num_parts, partition::MultilevelConfig{}, config.seed);

  Gcn model(x.cols(), config.hidden_dim, num_classes, config.dropout, &rng);
  nn::Adam opt(model.Params(), config.lr, 0.9, 0.999, 1e-8,
               config.weight_decay);
  EarlyStopTracker tracker(config.patience);
  std::unordered_set<NodeId> train_set(splits.train.begin(),
                                       splits.train.end());
  graph::Propagator full_prop(graph, graph::Normalization::kSymmetric, true);

  ModelResult result;
  result.name = "cluster_gcn";
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    auto batches = partition::ClusterBatches(parts, cluster.parts_per_batch,
                                             rng.engine()());
    double epoch_loss = 0.0;
    int counted = 0;
    for (const auto& batch_nodes : batches) {
      // Track peak resident activations: batch features + two layers.
      std::vector<NodeId> local_train;
      for (size_t i = 0; i < batch_nodes.size(); ++i) {
        if (train_set.count(batch_nodes[i]) > 0) {
          local_train.push_back(static_cast<NodeId>(i));
        }
      }
      if (local_train.empty()) continue;
      graph::CsrGraph sub = graph.InducedSubgraph(batch_nodes);
      graph::Propagator sub_prop(sub, graph::Normalization::kSymmetric, true);
      std::vector<int64_t> gather(batch_nodes.begin(), batch_nodes.end());
      Matrix sub_x = x.GatherRows(gather);
      // Batch features are resident alongside the activations that
      // Gcn::TrainStep accounts for itself.
      const uint64_t resident = static_cast<uint64_t>(sub_x.size());
      common::GlobalCounters().Acquire(resident);
      std::vector<int> sub_labels(batch_nodes.size());
      for (size_t i = 0; i < batch_nodes.size(); ++i) {
        sub_labels[i] = labels[batch_nodes[i]];
      }
      model.ZeroGrad();
      epoch_loss +=
          model.TrainStep(sub_prop, sub_x, sub_labels, local_train, &rng);
      opt.Step();
      common::GlobalCounters().Release(resident);
      ++counted;
    }
    if (counted > 0) {
      result.report.final_train_loss = epoch_loss / counted;
    }
    result.report.epochs_run = epoch + 1;

    Matrix logits = model.Predict(full_prop, x);
    const double val = nn::Accuracy(logits, labels, splits.val);
    const double test = nn::Accuracy(logits, labels, splits.test);
    if (tracker.Update(val, test)) break;
  }
  result.report.best_val_accuracy = tracker.best_val();
  result.report.test_accuracy = tracker.test_at_best();
  result.report.train_seconds = timer.Seconds();
  result.ops = counters.Delta();
  return result;
}

}  // namespace sgnn::models
