#include "models/cluster_gcn.h"

#include <unordered_set>

#include "common/timer.h"
#include "graph/propagate.h"
#include "models/gcn.h"
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
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  common::Rng rng(config.seed);

  // One-time partitioning (the preprocessing the method amortises).
  partition::Partition parts = partition::MultilevelPartition(
      graph, cluster.num_parts, partition::MultilevelConfig{}, config.seed);

  Gcn model(x.cols(), config.hidden_dim, NumClasses(labels), config.dropout,
            &rng);
  nn::Adam opt(model.Params(), config.lr, config.weight_decay);
  std::unordered_set<NodeId> train_set(splits.train.begin(),
                                       splits.train.end());
  graph::Propagator full_prop(graph, graph::Normalization::kSymmetric, true);

  // An epoch whose batches hold no training node keeps the last loss.
  double loss = 0.0;
  auto train_epoch = [&] {
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
    if (counted > 0) loss = epoch_loss / counted;
    return loss;
  };

  ModelResult result;
  result.name = "cluster_gcn";
  result.report =
      nn::RunEpochs(config, labels, splits.val, splits.test, train_epoch,
                    [&] { return model.Predict(full_prop, x); });
  result.report.train_seconds = timer.Seconds();
  result.ops = counters.Delta();
  return result;
}

}  // namespace sgnn::models
