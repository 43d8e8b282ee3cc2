#ifndef SGNN_SERVE_KHOP_EMBEDDER_H_
#define SGNN_SERVE_KHOP_EMBEDDER_H_

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "tensor/matrix.h"

namespace sgnn::serve {

/// Online feature gathering for decoupled inference: computes the row of
/// S^K X belonging to one node by collecting its K-hop ball
/// (`subgraph::KHopBall`) and propagating inside it with *global*
/// symmetric-normalised coefficients (A + I renormalisation, matching
/// `graph::Propagator(graph, kSymmetric, /*add_self_loops=*/true)`).
///
/// Pruning: the center row of step K reads step K - 1 at distance <= 1,
/// which reads step K - 2 at distance <= 2, and so on, so step t
/// (t = 1..K) computes only the ball rows within distance K - t: a prefix
/// of the distance-sorted ball, ending with the center row alone. Step 1
/// reads raw feature rows in place by global id; later steps read the
/// previous step's rows by ball slot. A budget-0 ball therefore stops at
/// depth K - 1: every neighbour of a row within K - 1 lies within K, and
/// step 1 reads it by id without asking whether it is in the ball. A
/// budgeted ball still goes to depth K, because the budget decides which
/// depth-K nodes step 1 may read.
///
/// Exactness: each computed row walks its global adjacency in stored order
/// with the shared `graph::EdgeCoefficient` formula, minus out-of-ball
/// neighbours, with its self loop as the last edge, through
/// `Propagator::Apply`'s row kernel, so with an unlimited node budget the
/// center row is byte-identical to the full-graph `PropagateKHops` row. A
/// positive `node_budget` truncates the ball and makes the result
/// approximate; that is the latency/recall dial. Either way the center row
/// has the bits of running every step over every ball row.
///
/// Const and allocation-local, so one instance serves all threads.
class KHopEmbedder {
 public:
  /// `graph` and `features` must outlive the embedder.
  KHopEmbedder(const graph::CsrGraph& graph, const tensor::Matrix& features,
               int hops, int64_t node_budget = 0);

  /// Writes node `center`'s propagated embedding into `out`
  /// (`out.size() == dim()`). Thread-safe.
  void Embed(graph::NodeId center, std::span<float> out) const;

  int64_t dim() const { return features_.cols(); }
  int hops() const { return hops_; }

 private:
  const graph::CsrGraph& graph_;
  const tensor::Matrix& features_;
  const int hops_;
  const int64_t node_budget_;
  /// Global `graph::NodeFactors` (degree factor and self-loop coefficient
  /// per node), precomputed once so per-request work is local to the ball.
  std::vector<double> factor_;
  std::vector<float> self_loop_;
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_KHOP_EMBEDDER_H_
