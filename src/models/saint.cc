#include "models/saint.h"

#include <unordered_set>

#include "common/timer.h"
#include "graph/propagate.h"
#include "models/gcn.h"
#include "nn/optimizer.h"
#include "sampling/subgraph_sampler.h"

namespace sgnn::models {

using graph::NodeId;
using sampling::SampledSubgraph;
using tensor::Matrix;

ModelResult TrainSaint(const graph::CsrGraph& graph, const Matrix& x,
                       std::span<const int> labels, const NodeSplits& splits,
                       const nn::TrainConfig& config,
                       const SaintConfig& saint) {
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  common::Rng rng(config.seed);

  // Inclusion-probability estimate for the loss normalisation: weight a
  // node's loss by 1/p(included) so the expected mini-batch gradient
  // matches the full-graph one.
  std::vector<double> inclusion;
  if (saint.norm_trials > 0) {
    common::Rng norm_rng(config.seed ^ 0x5151);
    if (saint.sampler == SaintConfig::Sampler::kNode) {
      inclusion = sampling::EstimateInclusionProbabilities(
          graph, saint.node_budget, saint.norm_trials, &norm_rng);
    } else {
      std::vector<int64_t> hits(graph.num_nodes(), 0);
      for (int t = 0; t < saint.norm_trials; ++t) {
        SampledSubgraph s = sampling::SampleSubgraphWalks(
            graph, saint.walk_roots, saint.walk_length, &norm_rng);
        for (NodeId u : s.nodes) hits[u]++;
      }
      inclusion.resize(graph.num_nodes());
      for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        inclusion[u] = static_cast<double>(hits[u]) / saint.norm_trials;
      }
    }
  }

  Gcn model(x.cols(), config.hidden_dim, NumClasses(labels), config.dropout,
            &rng);
  nn::Adam opt(model.Params(), config.lr, config.weight_decay);
  std::unordered_set<NodeId> train_set(splits.train.begin(),
                                       splits.train.end());
  graph::Propagator full_prop(graph, graph::Normalization::kSymmetric, true);

  // An epoch whose subgraphs hold no training node keeps the last loss.
  double loss = 0.0;
  auto train_epoch = [&] {
    double epoch_loss = 0.0;
    int counted = 0;
    for (int b = 0; b < saint.batches_per_epoch; ++b) {
      SampledSubgraph sub =
          saint.sampler == SaintConfig::Sampler::kNode
              ? sampling::SampleSubgraphNodes(graph, saint.node_budget, &rng)
              : sampling::SampleSubgraphWalks(graph, saint.walk_roots,
                                              saint.walk_length, &rng);
      std::vector<NodeId> local_train;
      std::vector<float> weights;
      for (size_t i = 0; i < sub.nodes.size(); ++i) {
        const NodeId global = sub.nodes[i];
        if (train_set.count(global) == 0) continue;
        local_train.push_back(static_cast<NodeId>(i));
        float w = 1.0f;
        if (!inclusion.empty() && inclusion[global] > 0.0) {
          w = static_cast<float>(1.0 / inclusion[global]);
        }
        weights.push_back(w);
      }
      if (local_train.empty()) continue;

      graph::Propagator sub_prop(sub.subgraph,
                                 graph::Normalization::kSymmetric, true);
      std::vector<int64_t> gather(sub.nodes.begin(), sub.nodes.end());
      Matrix sub_x = x.GatherRows(gather);
      const uint64_t resident = static_cast<uint64_t>(sub_x.size());
      common::GlobalCounters().Acquire(resident);
      std::vector<int> sub_labels(sub.nodes.size());
      for (size_t i = 0; i < sub.nodes.size(); ++i) {
        sub_labels[i] = labels[sub.nodes[i]];
      }
      model.ZeroGrad();
      epoch_loss += model.TrainStep(sub_prop, sub_x, sub_labels, local_train,
                                    &rng, weights);
      opt.Step();
      common::GlobalCounters().Release(resident);
      ++counted;
    }
    if (counted > 0) loss = epoch_loss / counted;
    return loss;
  };

  ModelResult result;
  result.name = saint.sampler == SaintConfig::Sampler::kWalk ? "saint_walk"
                                                             : "saint_node";
  result.report =
      nn::RunEpochs(config, labels, splits.val, splits.test, train_epoch,
                    [&] { return model.Predict(full_prop, x); });
  result.report.train_seconds = timer.Seconds();
  result.ops = counters.Delta();
  return result;
}

}  // namespace sgnn::models
