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
/// Exactness: after t local steps only rows within distance K - t of the
/// center have absorbed every global path, and the inexact boundary ring
/// never reaches level 0 in K steps. Each in-ball row walks its global
/// adjacency in stored order with the shared `graph::EdgeCoefficient`
/// formula through `Propagator::Apply`'s row kernel, so with an unlimited
/// node budget the center row is byte-identical to the full-graph
/// `PropagateKHops` row. A positive `node_budget` truncates the ball and
/// makes the result approximate; that is the latency/recall dial.
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
