#include "ppr/ppr.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/counters.h"
#include "common/rng.h"
#include "par/par.h"

namespace sgnn::ppr {

using graph::CsrGraph;
using graph::NodeId;

namespace {

/// An in-memory graph as a push adjacency source: every row is resident,
/// so the graph is its own pin scope and pinning cannot fail.
struct ResidentGraph {
  const CsrGraph* csr = nullptr;

  NodeId num_nodes() const { return csr->num_nodes(); }
  graph::EdgeIndex OutDegree(NodeId u) const { return csr->OutDegree(u); }
  common::StatusOr<ResidentGraph> Pin(NodeId) const { return *this; }
  std::span<const NodeId> Neighbors(NodeId u) const {
    return csr->Neighbors(u);
  }
  std::span<const float> Weights(NodeId u) const { return csr->Weights(u); }
  double WeightedDegree(NodeId u) const { return csr->WeightedDegree(u); }
};

}  // namespace

PushResult ForwardPush(const CsrGraph& graph, NodeId source, double alpha,
                       double r_max) {
  ResidentGraph g{&graph};
  return std::move(ForwardPushOn(g, source, alpha, r_max)).value();
}

std::vector<PushResult> PushBatch(const CsrGraph& graph,
                                  std::span<const NodeId> seeds, double alpha,
                                  double r_max) {
  std::vector<PushResult> results(seeds.size());
  // One seed per shard (up to the cap): pushes vary wildly in cost with
  // the seed's neighbourhood, and the shard-claiming loop load-balances
  // dynamically while each result stays a pure function of its seed.
  const auto shards = par::SplitUniform(
      static_cast<int64_t>(seeds.size()),
      par::ShardsFor(static_cast<int64_t>(seeds.size()), /*grain=*/1));
  par::ParallelFor("ppr.push_batch", shards, [&](int, par::Range range) {
    for (int64_t i = range.begin; i < range.end; ++i) {
      results[static_cast<size_t>(i)] =
          ForwardPush(graph, seeds[static_cast<size_t>(i)], alpha, r_max);
    }
  });
  return results;
}

std::vector<double> PowerIterationPpr(const CsrGraph& graph, NodeId source,
                                      double alpha, double tol,
                                      int max_iters) {
  SGNN_CHECK(alpha > 0.0 && alpha < 1.0);
  SGNN_CHECK_LT(source, graph.num_nodes());
  const NodeId n = graph.num_nodes();
  std::vector<double> pi(n, 0.0);
  std::vector<double> next(n, 0.0);
  pi[source] = 1.0;
  for (int iter = 0; iter < max_iters; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    // next = (1-alpha) * P pi + alpha * e_s, with P spreading mass from
    // each node to its out-neighbours proportionally to edge weight.
    for (NodeId u = 0; u < n; ++u) {
      if (pi[u] == 0.0) continue;
      const double w_deg = graph.WeightedDegree(u);
      if (w_deg == 0.0) {
        next[u] += (1.0 - alpha) * pi[u];  // Dangling mass stays put.
        continue;
      }
      const double spread = (1.0 - alpha) * pi[u] / w_deg;
      auto nbrs = graph.Neighbors(u);
      auto ws = graph.Weights(u);
      for (size_t i = 0; i < nbrs.size(); ++i) next[nbrs[i]] += spread * ws[i];
    }
    next[source] += alpha;
    common::GlobalCounters().edges_touched +=
        static_cast<uint64_t>(graph.num_edges());
    double diff = 0.0;
    for (NodeId v = 0; v < n; ++v) diff += std::fabs(next[v] - pi[v]);
    pi.swap(next);
    if (diff < tol) break;
  }
  // The fixed point of the update above is alpha * sum (1-alpha)^k P^k e_s
  // scaled by 1/alpha contributions; normalise exactly: the iteration as
  // written already converges to the PPR distribution (mass 1).
  return pi;
}

std::vector<double> MonteCarloPpr(const CsrGraph& graph, NodeId source,
                                  double alpha, int64_t num_walks,
                                  uint64_t seed) {
  SGNN_CHECK(alpha > 0.0 && alpha < 1.0);
  SGNN_CHECK_GT(num_walks, 0);
  SGNN_CHECK_LT(source, graph.num_nodes());
  common::Rng rng(seed);
  std::vector<int64_t> stops(graph.num_nodes(), 0);
  for (int64_t w = 0; w < num_walks; ++w) {
    NodeId cur = source;
    while (!rng.Bernoulli(alpha)) {
      auto nbrs = graph.Neighbors(cur);
      if (nbrs.empty()) break;  // Dangling: terminate here.
      // Weight-proportional step, consistent with the push/power-iteration
      // transition D^-1 A on weighted graphs.
      auto ws = graph.Weights(cur);
      const double pick = rng.Uniform() * graph.WeightedDegree(cur);
      double acc = 0.0;
      size_t idx = nbrs.size() - 1;
      for (size_t i = 0; i < ws.size(); ++i) {
        acc += ws[i];
        if (pick < acc) {
          idx = i;
          break;
        }
      }
      cur = nbrs[idx];
      common::GlobalCounters().edges_touched += 1;
    }
    stops[cur]++;
  }
  std::vector<double> pi(graph.num_nodes(), 0.0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    pi[v] = static_cast<double>(stops[v]) / static_cast<double>(num_walks);
  }
  return pi;
}

std::vector<std::pair<NodeId, double>> TopKPpr(const CsrGraph& graph,
                                               NodeId source, double alpha,
                                               int k, double r_max) {
  SGNN_CHECK_GT(k, 0);
  PushResult push = ForwardPush(graph, source, alpha, r_max);
  auto& est = push.estimate;
  std::sort(est.begin(), est.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (static_cast<int>(est.size()) > k) est.resize(static_cast<size_t>(k));
  return est;
}

}  // namespace sgnn::ppr
