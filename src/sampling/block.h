#ifndef SGNN_SAMPLING_BLOCK_H_
#define SGNN_SAMPLING_BLOCK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace sgnn::sampling {

/// One sampled bipartite layer (a "message-flow block"): aggregation flows
/// from `src` representations into `dst` representations.
///
/// `dst` is always a prefix of `src` (every destination also appears as a
/// source), so self/skip connections index the same buffer. Adjacency is
/// CSR over destinations; `src_local[i]` indexes into `src`, and
/// `weights[i]` is the aggregation weight (already importance-corrected by
/// the sampler, so a plain weighted sum is the unbiased mean estimate).
struct LayerSample {
  std::vector<graph::NodeId> dst;        ///< Global ids of outputs.
  std::vector<graph::NodeId> src;        ///< Global ids of inputs.
  std::vector<graph::EdgeIndex> offsets; ///< Size dst.size() + 1.
  std::vector<uint32_t> src_local;       ///< Per edge: index into src.
  std::vector<float> weights;            ///< Per edge: aggregation weight.

  int64_t num_edges() const { return static_cast<int64_t>(src_local.size()); }

  /// The `graph::SpmmRows` / `graph::SpmmTransposeRows` row view: dst row r
  /// reads rows `src_local` of a src-ordered matrix at `weights`, with no
  /// self loop.
  graph::EdgeIndex EdgeBegin(int64_t r) const { return offsets[r]; }
  int64_t OutRow(int64_t r) const { return r; }
  std::span<const uint32_t> Neighbors(int64_t r) const {
    return std::span(src_local).subspan(offsets[r],
                                        offsets[r + 1] - offsets[r]);
  }
  std::span<const float> Coefficients(int64_t r) const {
    return std::span(weights).subspan(offsets[r],
                                      offsets[r + 1] - offsets[r]);
  }
  float SelfLoop(int64_t) const { return 0.0f; }
};

/// A full mini-batch: `layers[0]` is the innermost block (touching raw
/// features) and `layers.back().dst` are the seed nodes the loss is taken
/// on. `layers[l].src == layers[l-1].dst` as id lists.
struct MiniBatch {
  std::vector<LayerSample> layers;

  const std::vector<graph::NodeId>& seeds() const {
    return layers.back().dst;
  }
  const std::vector<graph::NodeId>& input_nodes() const {
    return layers.front().src;
  }
  /// Total sampled edges across layers: the per-batch compute cost.
  int64_t TotalEdges() const {
    int64_t total = 0;
    for (const auto& layer : layers) total += layer.num_edges();
    return total;
  }
};

}  // namespace sgnn::sampling

#endif  // SGNN_SAMPLING_BLOCK_H_
