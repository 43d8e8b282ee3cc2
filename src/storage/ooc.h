#ifndef SGNN_STORAGE_OOC_H_
#define SGNN_STORAGE_OOC_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/propagate.h"
#include "ppr/ppr.h"
#include "sampling/block.h"
#include "storage/sharded_graph.h"
#include "tensor/matrix.h"

namespace sgnn::storage {

/// Out-of-core counterparts of the in-memory kernels, streaming shards
/// through the `ShardedGraph` cache instead of holding the adjacency
/// resident. This file keeps only the shard orchestration; the arithmetic
/// is the in-memory kernels' own — `graph::SpmmRows` with the
/// `graph::EdgeCoefficient` formula, `ppr::ForwardPushOn`, and
/// `sampling::DrawNodeWise`/`BuildBatch`/`AssembleLayer` — so the outputs
/// are byte-identical to the in-memory kernel on the same graph for any
/// shard plan, any budget, and any `SGNN_THREADS`: a shard holds whole
/// rows, and each destination's picks come from its own counter-based
/// stream keyed by (layer draw, destination), so neither the shard a
/// destination lives in nor the order shards are visited moves a pick.
/// Only the
/// shard-fault/eviction counters change with the budget. Kernels
/// orchestrate cache access from the calling thread (parallelism fans out
/// *inside* a pinned shard), which also makes the load/eviction sequence
/// deterministic.

/// Out-of-core `graph::Propagator`: the O(num_edges) coefficient array is
/// never materialised — each edge's coefficient is evaluated as the shard
/// streams by, from a resident O(num_nodes) table of degree factors, with
/// the formula the in-memory constructor stores.
class OocPropagator {
 public:
  /// Builds the resident degree-factor/self-loop tables with one streaming
  /// pass over the shards (ascending order). Fails with the cache's status
  /// when a shard cannot be loaded. `graph` must outlive the propagator.
  static common::StatusOr<OocPropagator> Create(ShardedGraph* graph,
                                                graph::Normalization norm,
                                                bool add_self_loops);

  /// out = \hat{A} x, bit-identical to `Propagator::Apply`. Streams shards
  /// in ascending order; rows within the pinned shard fan out over
  /// `sgnn::par`. Bills `graph::BillSpmm` exactly like the in-memory
  /// kernel.
  SGNN_NODISCARD common::Status Apply(const tensor::Matrix& x, tensor::Matrix* out) const;

  /// Public only for `StatusOr`; a default-constructed propagator is inert.
  OocPropagator() = default;

 private:
  ShardedGraph* graph_ = nullptr;
  graph::Normalization norm_ = graph::Normalization::kNone;
  std::vector<double> factor_;          // graph::DegreeFactor per node.
  std::vector<float> self_loop_coeff_;  // Per node; empty if no self loops.
};

/// Out-of-core `ppr::PushBatch`: `ppr::ForwardPushOn` per seed, each push
/// pinning the owning shard of the node it spreads. Seeds run
/// *sequentially* (unlike the in-memory batch) so the eviction sequence is
/// reproducible; per-seed results are bit-identical to `ppr::PushBatch`.
SGNN_NODISCARD common::StatusOr<std::vector<ppr::PushResult>> PushBatch(
    ShardedGraph* graph, std::span<const graph::NodeId> seeds, double alpha,
    double r_max);

/// Out-of-core `sampling::SampleNodeWise`: same per-layer engine draw and
/// per-destination draw (`sampling::DrawNodeWise`, a pure function of the
/// layer draw, the destination and its adjacency), so the batch is
/// byte-identical to the in-memory sampler with an equal-state `rng`.
/// Destinations are grouped by shard and shards visited in ascending
/// order; the keyed draws make the grouping invisible in the output.
SGNN_NODISCARD common::StatusOr<sampling::MiniBatch> SampleNodeWise(
    ShardedGraph* graph, std::span<const graph::NodeId> seeds,
    std::span<const int> fanouts, common::Rng* rng);

}  // namespace sgnn::storage

#endif  // SGNN_STORAGE_OOC_H_
