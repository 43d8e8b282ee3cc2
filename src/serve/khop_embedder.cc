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
  SGNN_CHECK_LT(center, graph_.num_nodes());
  if (hops_ == 0) {
    auto row = features_.Row(center);
    std::copy(row.begin(), row.end(), out.begin());
    return;
  }
  // within[d]: the ball rows within distance d, a prefix of `ball`. An
  // unlimited ball stops at K - 1 (see header comment).
  std::vector<NodeId> ball;
  std::unordered_map<NodeId, NodeId> slot;
  std::vector<int64_t> within;
  subgraph::KHopBall(graph_, center, node_budget_ == 0 ? hops_ - 1 : hops_,
                     node_budget_, &ball, &slot, &within);
  const int64_t cols = dim();
  const int64_t rows1 = within[hops_ - 1];

  // Rows within K - 1: each row's global adjacency in stored order with its
  // global coefficient, minus out-of-ball neighbours (only a budget leaves
  // any), then the self loop as the last edge, all by global id.
  std::vector<graph::EdgeIndex> offsets = {0};
  std::vector<NodeId> nbrs;
  std::vector<float> coeffs;
  for (int64_t s = 0; s < rows1; ++s) {
    const NodeId u = ball[s];
    auto ns = graph_.Neighbors(u);
    auto ws = graph_.Weights(u);
    for (size_t i = 0; i < ns.size(); ++i) {
      if (node_budget_ > 0 && !slot.contains(ns[i])) continue;
      nbrs.push_back(ns[i]);
      coeffs.push_back(graph::EdgeCoefficient(Normalization::kSymmetric, ws[i],
                                              factor_[u], factor_[ns[i]]));
    }
    nbrs.push_back(u);
    coeffs.push_back(self_loop_[u]);
    offsets.push_back(static_cast<graph::EdgeIndex>(nbrs.size()));
  }
  const graph::CoefficientRows rows{offsets, nbrs, coeffs, {}};

  // Step t computes the rows within K - t. Step 1 reads feature rows in
  // place; from step 2 on, rows read the previous step, so their edges
  // switch to ball slots (those neighbours lie within K - 1, which step 1
  // computed).
  auto& counters = common::GlobalCounters();
  const uint64_t resident = static_cast<uint64_t>(
      (rows1 + (hops_ >= 2 ? within[hops_ - 2] : 0)) * cols);
  counters.Acquire(resident);
  Matrix cur, next;
  for (int step = 1; step <= hops_; ++step) {
    const int64_t computed = within[hops_ - step];
    if (step == 2) {
      for (graph::EdgeIndex e = 0; e < offsets[computed]; ++e) {
        nbrs[e] = slot.at(nbrs[e]);
      }
    }
    next.Reset(computed, cols);
    graph::SpmmRows(rows, {0, computed}, step == 1 ? features_ : cur, &next);
    std::swap(cur, next);
  }

  auto center_row = cur.Row(0);  // ball[0] == center by construction.
  std::copy(center_row.begin(), center_row.end(), out.begin());
  counters.Release(resident);
}

}  // namespace sgnn::serve
