#ifndef SGNN_SAMPLING_BLOCK_H_
#define SGNN_SAMPLING_BLOCK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
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

/// The same block read by global node id: dst row r reads rows
/// `src[src_local[i]]` of a matrix indexed by node id (the full feature
/// matrix) at `weights`, with no self loop. It visits the block's edges in
/// the same order at the same weights, so `graph::SpmmRows` over it gives
/// the bits of running `LayerSample`'s own view over the gathered src rows,
/// without the gather.
class GlobalSourceRows {
 public:
  /// Neighbour ids of one dst row, read through `src_local`: an indexable
  /// proxy, so the view allocates nothing.
  struct Sources {
    std::span<const uint32_t> local;
    std::span<const graph::NodeId> src;

    size_t size() const { return local.size(); }
    graph::NodeId operator[](size_t i) const { return src[local[i]]; }
  };

  /// Checks that every src id of `layer` is below `num_rows`, the row
  /// count of the matrix the view will be applied to.
  GlobalSourceRows(const LayerSample& layer, int64_t num_rows)
      : layer_(layer) {
    for (const graph::NodeId u : layer.src) {
      SGNN_CHECK_LT(static_cast<int64_t>(u), num_rows);
    }
  }

  graph::EdgeIndex EdgeBegin(int64_t r) const { return layer_.EdgeBegin(r); }
  int64_t OutRow(int64_t r) const { return r; }
  Sources Neighbors(int64_t r) const {
    return {layer_.Neighbors(r), layer_.src};
  }
  std::span<const float> Coefficients(int64_t r) const {
    return layer_.Coefficients(r);
  }
  float SelfLoop(int64_t) const { return 0.0f; }

 private:
  const LayerSample& layer_;
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
