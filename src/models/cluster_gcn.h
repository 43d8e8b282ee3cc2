#ifndef SGNN_MODELS_CLUSTER_GCN_H_
#define SGNN_MODELS_CLUSTER_GCN_H_

#include <span>

#include "models/api.h"

namespace sgnn::models {

/// Cluster-GCN (Chiang et al.): partition the graph once with the
/// multilevel partitioner, then run full-GCN steps on induced subgraphs of
/// a few merged parts per batch — partition-based mini-batching (§3.1.2
/// "Graph Partition"). Activation memory is bounded by the batch subgraph,
/// not the whole graph (E13).
struct ClusterGcnConfig {
  int num_parts = 16;
  int parts_per_batch = 2;
};

ModelResult TrainClusterGcn(const graph::CsrGraph& graph,
                            const tensor::Matrix& x,
                            std::span<const int> labels,
                            const NodeSplits& splits,
                            const nn::TrainConfig& config,
                            const ClusterGcnConfig& cluster =
                                ClusterGcnConfig());

}  // namespace sgnn::models

#endif  // SGNN_MODELS_CLUSTER_GCN_H_
