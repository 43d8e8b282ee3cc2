#ifndef SGNN_SAMPLING_NEIGHBOR_SAMPLER_H_
#define SGNN_SAMPLING_NEIGHBOR_SAMPLER_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "sampling/block.h"

namespace sgnn::sampling {

/// The samplers below fan out over the `sgnn::par` worker pool. Each
/// destination draws from a counter-based `common::KeyedStream` keyed by
/// (layer, node) via `common::MixSeed`, never from the shared `rng` stream
/// directly, so a batch is bit-identical for any `SGNN_THREADS`; `rng`
/// advances once per layer (plus the global draws of layer-wise sampling).

/// Node-wise (GraphSAGE-style) neighbour sampling: every destination node
/// independently draws up to `fanout` neighbours without replacement.
/// The classic node-level strategy of §3.3.2, and the one whose sampled
/// vertex count explodes with depth (E2/E5).
///
/// `fanouts[0]` applies to the outermost layer (adjacent to the seeds);
/// `fanouts.back()` to the innermost. Aggregation weights are 1/k for a
/// node with k sampled neighbours (unbiased neighbourhood-mean estimate).
MiniBatch SampleNodeWise(const graph::CsrGraph& graph,
                         std::span<const graph::NodeId> seeds,
                         std::span<const int> fanouts, common::Rng* rng);

/// LABOR-0 layer-neighbour sampling (Balin & Çatalyürek): matches the
/// per-edge inclusion probability min(1, fanout/d(s)) of node-wise
/// sampling, but decides inclusion with a *per-source-vertex* uniform
/// variate shared by all destinations in the layer, so overlapping
/// neighbourhoods sample the same vertices and the number of distinct
/// sampled vertices drops (E5). Weights are importance-corrected:
/// w = 1 / (d(s) * p_inclusion).
MiniBatch SampleLabor(const graph::CsrGraph& graph,
                      std::span<const graph::NodeId> seeds,
                      std::span<const int> fanouts, common::Rng* rng);

/// Layer-wise importance sampling (FastGCN-style): each layer draws
/// `layer_size` nodes globally with probability proportional to degree,
/// independent of destinations; edges to sampled nodes are reweighted by
/// 1/(layer_size * q(v)) for unbiasedness. Bounds the per-layer width.
MiniBatch SampleLayerWise(const graph::CsrGraph& graph,
                          std::span<const graph::NodeId> seeds,
                          std::span<const int> layer_sizes, common::Rng* rng);

/// Exact (no sampling) blocks: full neighbourhoods; the baseline whose
/// receptive field realises the neighbourhood explosion.
MiniBatch FullNeighborhood(const graph::CsrGraph& graph,
                           std::span<const graph::NodeId> seeds,
                           int num_layers);

}  // namespace sgnn::sampling

#endif  // SGNN_SAMPLING_NEIGHBOR_SAMPLER_H_
