#ifndef SGNN_PPR_PPR_H_
#define SGNN_PPR_PPR_H_

#include <algorithm>
#include <cstdint>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/counters.h"
#include "common/status.h"
#include "graph/csr_graph.h"

namespace sgnn::ppr {

/// Personalised PageRank with restart probability `alpha` over the
/// row-stochastic random-walk transition: for source s,
///   pi_s = alpha * sum_k (1-alpha)^k P^k e_s,  P = (D^-1 A)^T acting on
/// distributions. This is the graph-analytics primitive behind APPNP,
/// PPRGo and SCARA (§3.1.2 "decoupled propagation").

/// Result of an approximate single-source computation.
struct PushResult {
  /// Estimate p(v) for nodes with non-zero mass (unsorted sparse form).
  std::vector<std::pair<graph::NodeId, double>> estimate;
  /// Number of push operations performed.
  int64_t pushes = 0;
  /// Directed edges traversed; the sublinearity measure of E3.
  int64_t edges_touched = 0;
};

/// Andersen-Chung-Lang forward push. Pushes node u while its residual
/// exceeds `r_max * degree(u)`; the returned estimate satisfies
/// |pi_s(v) - p(v)| <= r_max * degree(v) for all v.
/// Requires 0 < alpha < 1, r_max > 0, and non-negative weights with a
/// positive sum on every row it pushes (see `ForwardPushOn`). Zero-degree
/// sources return all mass on the source.
PushResult ForwardPush(const graph::CsrGraph& graph, graph::NodeId source,
                       double alpha, double r_max);

/// `ForwardPush` over any adjacency source `g`: `g.num_nodes()` and
/// `g.OutDegree(u)` read a resident index, and `g.Pin(u)` returns a
/// `common::StatusOr` pin scope whose `Neighbors(u)`, `Weights(u)` and
/// `WeightedDegree(u)` read u's row while it lives. Only actual pushes pin
/// (threshold checks read the resident degrees), so storage faults track
/// pushes, not queue churn. An in-memory graph's pin scope pins nothing;
/// the out-of-core `storage::ShardedGraph` pins u's shard. The arithmetic
/// and queue order are the same for every source, so equal adjacency
/// gives a bit-identical result. Fails with the first failed pin's status,
/// or `kInvalidArgument` at the first pushed row with a negative weight or
/// a weight sum that is not positive: such a row is not a random-walk
/// step, its spread can grow the residual mass, and the queue would never
/// drain.
template <typename Graph>
common::StatusOr<PushResult> ForwardPushOn(Graph& g, graph::NodeId source,
                                           double alpha, double r_max) {
  SGNN_CHECK(alpha > 0.0 && alpha < 1.0);
  SGNN_CHECK_GT(r_max, 0.0);
  SGNN_CHECK_LT(source, g.num_nodes());

  std::vector<double> p(g.num_nodes(), 0.0);
  std::vector<double> r(g.num_nodes(), 0.0);
  std::vector<bool> queued(g.num_nodes(), false);
  std::queue<graph::NodeId> active;

  r[source] = 1.0;
  active.push(source);
  queued[source] = true;

  PushResult result;
  while (!active.empty()) {
    const graph::NodeId u = active.front();
    active.pop();
    queued[u] = false;
    const auto deg = g.OutDegree(u);
    if (deg == 0) {
      // Dangling node: all residual mass settles here.
      p[u] += r[u];
      r[u] = 0.0;
      continue;
    }
    if (r[u] <= r_max * static_cast<double>(deg)) continue;
    const double ru = r[u];
    p[u] += alpha * ru;
    r[u] = 0.0;
    ++result.pushes;
    result.edges_touched += deg;
    auto pin = g.Pin(u);
    if (!pin.ok()) return pin.status();
    const auto& rows = pin.value();
    auto nbrs = rows.Neighbors(u);
    auto ws = rows.Weights(u);
    const double w_deg = rows.WeightedDegree(u);
    if (!(w_deg > 0.0) ||
        std::ranges::any_of(ws, [](float w) { return w < 0.0f; })) {
      return common::Status::InvalidArgument(
          "forward push needs non-negative weights with a positive sum: "
          "node " +
          std::to_string(u) + " has weighted degree " + std::to_string(w_deg));
    }
    const double spread = (1.0 - alpha) * ru / w_deg;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const graph::NodeId v = nbrs[i];
      r[v] += spread * ws[i];
      if (!queued[v] && r[v] > r_max * static_cast<double>(g.OutDegree(v))) {
        active.push(v);
        queued[v] = true;
      }
    }
  }

  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (p[v] > 0.0) result.estimate.emplace_back(v, p[v]);
  }
  common::GlobalCounters().edges_touched +=
      static_cast<uint64_t>(result.edges_touched);
  return result;
}

/// Forward push from every seed in `seeds` (PPRGo/SCARA-style batch
/// precompute). Runs seeds as a parallel section over the process-wide
/// `par` worker pool; each seed's push is the same computation as
/// `ForwardPush`, so `results[i]` is bit-identical to
/// `ForwardPush(graph, seeds[i], ...)` for any `SGNN_THREADS`. Duplicate
/// seeds are allowed and computed independently.
std::vector<PushResult> PushBatch(const graph::CsrGraph& graph,
                                  std::span<const graph::NodeId> seeds,
                                  double alpha, double r_max);

/// Dense power iteration to additive tolerance `tol` (L1); the exact
/// baseline the approximate methods are validated against.
std::vector<double> PowerIterationPpr(const graph::CsrGraph& graph,
                                      graph::NodeId source, double alpha,
                                      double tol, int max_iters = 1000);

/// Monte-Carlo estimate from `num_walks` alpha-terminated random walks.
std::vector<double> MonteCarloPpr(const graph::CsrGraph& graph,
                                  graph::NodeId source, double alpha,
                                  int64_t num_walks, uint64_t seed);

/// Top-k PPR neighbours of `source` by approximate mass, descending
/// (ties by node id). Uses forward push at `r_max`.
std::vector<std::pair<graph::NodeId, double>> TopKPpr(
    const graph::CsrGraph& graph, graph::NodeId source, double alpha, int k,
    double r_max);

}  // namespace sgnn::ppr

#endif  // SGNN_PPR_PPR_H_
