#ifndef SGNN_SAMPLING_ASSEMBLY_H_
#define SGNN_SAMPLING_ASSEMBLY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "graph/types.h"
#include "par/par.h"
#include "sampling/block.h"

namespace sgnn::sampling {

/// Assembles a `LayerSample` from per-destination sampled
/// (neighbour, weight) lists: `src` = dst (prefix, same order) followed by
/// newly seen neighbours in first-appearance order, `src_local`/`weights`
/// flattened in destination order. Pure assembly — no draws — shared by
/// the in-memory samplers and the out-of-core sampler in `sgnn::storage`,
/// so both produce byte-identical blocks from identical edge lists.
LayerSample AssembleLayer(
    std::span<const graph::NodeId> dst,
    const std::vector<std::vector<std::pair<graph::NodeId, float>>>& edges);

/// The node-wise (GraphSAGE) draw for destination `dst` with adjacency
/// `nbrs`, appended to `out`: every neighbour at weight 1/d when
/// d <= fanout, otherwise `fanout` distinct neighbour positions at weight
/// 1/fanout, chosen by Floyd's algorithm over the counter-based stream
/// `common::KeyedStream(common::MixSeed(layer_base, dst))`. The picks are
/// a pure function of (layer_base, dst, nbrs): no engine, no heap beyond
/// one `reserve` of `out`. Shared by the in-memory and out-of-core
/// samplers, so equal adjacency draws equal edges.
void DrawNodeWise(std::span<const graph::NodeId> nbrs, graph::NodeId dst,
                  int fanout, uint64_t layer_base,
                  std::vector<std::pair<graph::NodeId, float>>* out);

/// `sgnn::par` shards for fanning out over `num_dst` destinations.
std::vector<par::Range> DstShards(size_t num_dst);

/// Runs `sample_one_layer(l, frontier)` (returning a `LayerSample` or a
/// `common::StatusOr` of one) from the seeds inward, each layer's `src`
/// becoming the next frontier, and packages the blocks innermost-first.
/// Fails with the first failed layer's status.
template <typename SampleLayerFn>
common::StatusOr<MiniBatch> BuildBatch(std::span<const graph::NodeId> seeds,
                                       int num_layers,
                                       SampleLayerFn&& sample_one_layer) {
  SGNN_CHECK_GE(num_layers, 1);
  SGNN_CHECK(!seeds.empty());
  std::vector<LayerSample> outer_first;
  std::vector<graph::NodeId> frontier(seeds.begin(), seeds.end());
  for (int l = 0; l < num_layers; ++l) {
    common::StatusOr<LayerSample> layer = sample_one_layer(l, frontier);
    if (!layer.ok()) return layer.status();
    frontier = layer.value().src;
    outer_first.push_back(std::move(layer).value());
  }
  MiniBatch batch;
  batch.layers.assign(std::make_move_iterator(outer_first.rbegin()),
                      std::make_move_iterator(outer_first.rend()));
  return batch;
}

}  // namespace sgnn::sampling

#endif  // SGNN_SAMPLING_ASSEMBLY_H_
