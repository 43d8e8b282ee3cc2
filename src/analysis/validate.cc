#include "analysis/validate.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/counters.h"

namespace sgnn::analysis {

using common::Status;
using graph::EdgeIndex;
using graph::NodeId;

namespace {

/// Small printf helper: every diagnostic here is "<invariant>: <ids>".
template <typename... Args>
Status Invalid(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return Status::Internal(buf);
}

}  // namespace

Status ValidateCsr(NodeId num_nodes, std::span<const EdgeIndex> offsets,
                   std::span<const NodeId> neighbors,
                   std::span<const float> weights) {
  if (offsets.size() != static_cast<size_t>(num_nodes) + 1) {
    return Invalid("csr offsets size mismatch: %zu entries for %llu nodes",
                   offsets.size(), static_cast<unsigned long long>(num_nodes));
  }
  if (offsets.front() != 0) {
    return Invalid("csr offsets[0] != 0: %lld",
                   static_cast<long long>(offsets.front()));
  }
  if (offsets.back() != static_cast<EdgeIndex>(neighbors.size())) {
    return Invalid("csr offsets[n] != num_edges: %lld vs %zu",
                   static_cast<long long>(offsets.back()), neighbors.size());
  }
  if (weights.size() != neighbors.size()) {
    return Invalid("csr weights misaligned with neighbors: %zu vs %zu",
                   weights.size(), neighbors.size());
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    if (offsets[u + 1] < offsets[u]) {
      return Invalid("csr offsets not monotone at node %llu: %lld > %lld",
                     static_cast<unsigned long long>(u),
                     static_cast<long long>(offsets[u]),
                     static_cast<long long>(offsets[u + 1]));
    }
  }
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (EdgeIndex e = offsets[u]; e < offsets[u + 1]; ++e) {
      const NodeId v = neighbors[static_cast<size_t>(e)];
      if (v >= num_nodes) {
        return Invalid(
            "csr neighbor id out of bounds: node %llu edge %lld -> %llu "
            "(num_nodes %llu)",
            static_cast<unsigned long long>(u), static_cast<long long>(e),
            static_cast<unsigned long long>(v),
            static_cast<unsigned long long>(num_nodes));
      }
      if (e > offsets[u] && neighbors[static_cast<size_t>(e - 1)] >= v) {
        return Invalid(
            "csr adjacency not sorted strictly increasing: node %llu has "
            "%llu then %llu",
            static_cast<unsigned long long>(u),
            static_cast<unsigned long long>(neighbors[static_cast<size_t>(e - 1)]),
            static_cast<unsigned long long>(v));
      }
      const float w = weights[static_cast<size_t>(e)];
      if (!std::isfinite(w)) {
        return Invalid("csr weight not finite: node %llu edge %lld",
                       static_cast<unsigned long long>(u),
                       static_cast<long long>(e));
      }
    }
  }
  // Validation is a real scan; account for it in the same units as kernels
  // so pipeline reports expose the overhead.
  auto& counters = common::GlobalCounters();
  counters.edges_touched += static_cast<uint64_t>(neighbors.size());
  counters.floats_moved += static_cast<uint64_t>(weights.size());
  return Status::OK();
}

Status Validate(const graph::CsrGraph& graph) {
  return ValidateCsr(graph.num_nodes(), graph.offsets(), graph.neighbors(),
                     graph.weights());
}

Status ValidateEdges(NodeId num_nodes, std::span<const graph::Edge> edges) {
  for (size_t i = 0; i < edges.size(); ++i) {
    const graph::Edge& e = edges[i];
    if (e.src >= num_nodes || e.dst >= num_nodes) {
      return Invalid(
          "edge endpoint out of bounds: edge %zu = (%llu, %llu), num_nodes "
          "%llu",
          i, static_cast<unsigned long long>(e.src),
          static_cast<unsigned long long>(e.dst),
          static_cast<unsigned long long>(num_nodes));
    }
    if (!std::isfinite(e.weight)) {
      return Invalid("edge weight not finite: edge %zu = (%llu, %llu)", i,
                     static_cast<unsigned long long>(e.src),
                     static_cast<unsigned long long>(e.dst));
    }
  }
  common::GlobalCounters().edges_touched += static_cast<uint64_t>(edges.size());
  return Status::OK();
}

Status Validate(const graph::EdgeListBuilder& builder) {
  return ValidateEdges(builder.num_nodes(), builder.edges());
}

Status ValidateFeatures(const tensor::Matrix& features) {
  const float* data = features.data();
  const int64_t size = features.size();
  for (int64_t i = 0; i < size; ++i) {
    if (!std::isfinite(data[i])) {
      return Invalid("feature not finite at row %lld col %lld",
                     static_cast<long long>(i / features.cols()),
                     static_cast<long long>(i % features.cols()));
    }
  }
  common::GlobalCounters().floats_moved += static_cast<uint64_t>(size);
  return Status::OK();
}

Status Validate(const core::Dataset& dataset) {
  SGNN_RETURN_IF_ERROR(Validate(dataset.graph));
  const NodeId n = dataset.num_nodes();
  if (dataset.features.rows() != static_cast<int64_t>(n)) {
    return Invalid("dataset features rows != num_nodes: %lld vs %llu",
                   static_cast<long long>(dataset.features.rows()),
                   static_cast<unsigned long long>(n));
  }
  SGNN_RETURN_IF_ERROR(ValidateFeatures(dataset.features));
  if (dataset.labels.size() != static_cast<size_t>(n)) {
    return Invalid("dataset labels size != num_nodes: %zu vs %llu",
                   dataset.labels.size(), static_cast<unsigned long long>(n));
  }
  if (dataset.num_classes <= 0) {
    return Invalid("dataset num_classes not positive: %d", dataset.num_classes);
  }
  for (size_t u = 0; u < dataset.labels.size(); ++u) {
    const int label = dataset.labels[u];
    if (label < 0 || label >= dataset.num_classes) {
      return Invalid("dataset label out of range at node %zu: %d (classes %d)",
                     u, label, dataset.num_classes);
    }
  }
  // Splits: in-bounds and mutually disjoint (a node leaking from train
  // into val/test silently inflates accuracy).
  std::vector<uint8_t> seen(n, 0);
  const std::span<const NodeId> splits[] = {dataset.splits.train,
                                            dataset.splits.val,
                                            dataset.splits.test};
  const char* split_names[] = {"train", "val", "test"};
  for (int s = 0; s < 3; ++s) {
    for (NodeId u : splits[s]) {
      if (u >= n) {
        return Invalid("dataset %s split id out of bounds: %llu",
                       split_names[s], static_cast<unsigned long long>(u));
      }
      if (seen[u] != 0) {
        return Invalid("dataset splits overlap: node %llu appears twice "
                       "(second time in %s)",
                       static_cast<unsigned long long>(u), split_names[s]);
      }
      seen[u] = 1;
    }
  }
  return Status::OK();
}

Status Validate(const partition::Partition& partition,
                const graph::CsrGraph& graph) {
  if (partition.k <= 0) {
    return Invalid("partition k not positive: %d", partition.k);
  }
  if (partition.part_of.size() != static_cast<size_t>(graph.num_nodes())) {
    return Invalid("partition does not cover node universe: %zu assignments "
                   "for %llu nodes",
                   partition.part_of.size(),
                   static_cast<unsigned long long>(graph.num_nodes()));
  }
  for (size_t u = 0; u < partition.part_of.size(); ++u) {
    const int p = partition.part_of[u];
    if (p < 0 || p >= partition.k) {
      return Invalid("partition part id out of range at node %zu: %d (k %d)",
                     u, p, partition.k);
    }
  }
  return Status::OK();
}

Status ValidateStageOutput(const std::string& stage_name,
                           const graph::CsrGraph& graph,
                           const tensor::Matrix& features) {
  auto annotate = [&stage_name](Status status) {
    if (status.ok()) return status;
    return Status(status.code(),
                  "after stage '" + stage_name + "': " + status.message());
  };
  Status status = Validate(graph);
  if (!status.ok()) return annotate(std::move(status));
  if (features.rows() != static_cast<int64_t>(graph.num_nodes())) {
    return annotate(Invalid("features rows != graph nodes: %lld vs %llu",
                            static_cast<long long>(features.rows()),
                            static_cast<unsigned long long>(graph.num_nodes())));
  }
  return annotate(ValidateFeatures(features));
}

}  // namespace sgnn::analysis
