#include "serve/khop_embedder.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/counters.h"
#include "graph/propagate.h"
#include "subgraph/khop.h"

namespace sgnn::serve {

using graph::Normalization;
using graph::NodeId;
using tensor::Matrix;

KHopEmbedder::KHopEmbedder(const graph::CsrGraph& graph,
                           const tensor::Matrix& features, int hops,
                           int64_t node_budget)
    : graph_(graph),
      features_(features),
      hops_(hops),
      node_budget_(node_budget) {
  SGNN_CHECK_GE(hops, 0);
  SGNN_CHECK_GE(node_budget, 0);
  SGNN_CHECK_EQ(features.rows(), static_cast<int64_t>(graph.num_nodes()));
  // Renormalisation-trick degrees: weighted degree of A plus the self loop.
  graph::NodeFactors(graph, Normalization::kSymmetric,
                     /*add_self_loops=*/true, &factor_, &self_loop_);
}

void KHopEmbedder::Embed(NodeId center, std::span<float> out) const {
  SGNN_CHECK_EQ(static_cast<int64_t>(out.size()), dim());
  std::vector<NodeId> ball;
  std::unordered_map<NodeId, NodeId> slot;
  subgraph::KHopBall(graph_, center, hops_, node_budget_, &ball, &slot);
  const int64_t k = static_cast<int64_t>(ball.size());
  const int64_t cols = dim();

  // The ball's rows in slot space, with their raw features: each row's
  // global adjacency in stored order with its global coefficient, minus
  // out-of-ball neighbours (only boundary rows have those, and their
  // inexactness never reaches the center — see header comment).
  Matrix cur(k, cols);
  std::vector<graph::EdgeIndex> offsets = {0};
  std::vector<NodeId> nbr_slots;
  std::vector<float> coeffs;
  std::vector<float> self_loop(static_cast<size_t>(k));
  for (int64_t s = 0; s < k; ++s) {
    const NodeId u = ball[static_cast<size_t>(s)];
    auto src = features_.Row(u);
    std::copy(src.begin(), src.end(), cur.Row(s).begin());
    auto nbrs = graph_.Neighbors(u);
    auto ws = graph_.Weights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const auto it = slot.find(nbrs[i]);
      if (it == slot.end()) continue;
      nbr_slots.push_back(it->second);
      coeffs.push_back(graph::EdgeCoefficient(Normalization::kSymmetric, ws[i],
                                              factor_[u], factor_[nbrs[i]]));
    }
    offsets.push_back(static_cast<graph::EdgeIndex>(nbr_slots.size()));
    self_loop[static_cast<size_t>(s)] = self_loop_[u];
  }
  const graph::CoefficientRows rows{offsets, nbr_slots, coeffs, self_loop};

  // The feature gather is the request's feature-movement cost.
  auto& counters = common::GlobalCounters();
  counters.floats_moved += static_cast<uint64_t>(k * cols);
  counters.Acquire(static_cast<uint64_t>(2 * k * cols));

  // Local S^K over the ball; only the center row is read out.
  Matrix next(k, cols);
  for (int step = 0; step < hops_; ++step) {
    next.Zero();
    graph::SpmmRows(rows, {0, k}, cur, &next);
    std::swap(cur, next);
  }

  auto center_row = cur.Row(0);  // ball[0] == center by construction.
  std::copy(center_row.begin(), center_row.end(), out.begin());
  counters.Release(static_cast<uint64_t>(2 * k * cols));
}

}  // namespace sgnn::serve
