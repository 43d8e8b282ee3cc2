#include "sampling/neighbor_sampler.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/check.h"
#include "par/par.h"
#include "sampling/assembly.h"

namespace sgnn::sampling {

using graph::CsrGraph;
using graph::NodeId;

LayerSample AssembleLayer(
    std::span<const NodeId> dst,
    const std::vector<std::vector<std::pair<NodeId, float>>>& edges) {
  SGNN_CHECK_EQ(dst.size(), edges.size());
  LayerSample layer;
  layer.dst.assign(dst.begin(), dst.end());
  layer.src = layer.dst;
  std::unordered_map<NodeId, uint32_t> local;
  local.reserve(dst.size() * 2);
  for (size_t i = 0; i < dst.size(); ++i) {
    local.emplace(dst[i], static_cast<uint32_t>(i));
  }
  layer.offsets.push_back(0);
  for (size_t i = 0; i < dst.size(); ++i) {
    for (const auto& [v, w] : edges[i]) {
      auto [it, inserted] =
          local.emplace(v, static_cast<uint32_t>(layer.src.size()));
      if (inserted) layer.src.push_back(v);
      layer.src_local.push_back(it->second);
      layer.weights.push_back(w);
    }
    layer.offsets.push_back(static_cast<graph::EdgeIndex>(layer.src_local.size()));
  }
  return layer;
}

void DrawNodeWise(std::span<const NodeId> nbrs, NodeId dst, int fanout,
                  uint64_t layer_base,
                  std::vector<std::pair<NodeId, float>>* out) {
  if (nbrs.empty()) return;
  const uint64_t degree = nbrs.size();
  const uint64_t k = static_cast<uint64_t>(fanout);
  if (degree <= k) {
    out->reserve(out->size() + degree);
    const float w = 1.0f / static_cast<float>(degree);
    for (NodeId v : nbrs) out->emplace_back(v, w);
    return;
  }
  // Floyd's algorithm: for j in [degree - k, degree), draw t in [0, j] and
  // take j instead when t is already taken. The picks are neighbour
  // positions, held in `out` while drawing and mapped to ids at the end,
  // so a multigraph's repeated ids never look taken and the scan covers at
  // most `fanout` entries. The scan has no early exit: whether t collides
  // is a coin flip, and a branch on it mispredicts.
  SGNN_CHECK_LE(degree, uint64_t{std::numeric_limits<NodeId>::max()});
  const size_t first = out->size();
  out->reserve(first + k);
  common::KeyedStream stream(common::MixSeed(layer_base, dst));
  const float w = 1.0f / static_cast<float>(fanout);
  for (uint64_t j = degree - k; j < degree; ++j) {
    const NodeId t = static_cast<NodeId>(stream.Below(j + 1));
    bool taken = false;
    for (size_t p = first; p < out->size(); ++p) {
      taken |= (*out)[p].first == t;
    }
    out->emplace_back(taken ? static_cast<NodeId>(j) : t, w);
  }
  for (size_t p = first; p < out->size(); ++p) {
    (*out)[p].first = nbrs[(*out)[p].first];
  }
}

std::vector<par::Range> DstShards(size_t num_dst) {
  // Destinations per shard below which a layer's fan-out stays one shard.
  constexpr int64_t kDstGrain = 256;
  const int64_t n = static_cast<int64_t>(num_dst);
  return par::SplitUniform(n, par::ShardsFor(n, kDstGrain));
}

MiniBatch SampleNodeWise(const CsrGraph& graph,
                         std::span<const NodeId> seeds,
                         std::span<const int> fanouts, common::Rng* rng) {
  SGNN_CHECK(rng != nullptr);
  return BuildBatch(
      seeds, static_cast<int>(fanouts.size()),
      [&graph, &fanouts, rng](int l, const std::vector<NodeId>& dst) {
        const int fanout = fanouts[static_cast<size_t>(l)];
        SGNN_CHECK_GE(fanout, 1);
        // One caller-side engine draw keys the layer; each destination
        // then draws from the counter-based stream (layer_base, node).
        // Which worker runs a destination never affects its draws, so the
        // batch is identical for any SGNN_THREADS.
        const uint64_t layer_base = rng->engine()();
        std::vector<std::vector<std::pair<NodeId, float>>> edges(dst.size());
        par::ParallelFor(
            "sample.node_wise", DstShards(dst.size()),
            [&](int, par::Range range) {
              for (int64_t i = range.begin; i < range.end; ++i) {
                const NodeId u = dst[static_cast<size_t>(i)];
                DrawNodeWise(graph.Neighbors(u), u, fanout, layer_base,
                             &edges[static_cast<size_t>(i)]);
              }
            });
        return AssembleLayer(dst, edges);
      }).value();
}

MiniBatch SampleLabor(const CsrGraph& graph, std::span<const NodeId> seeds,
                      std::span<const int> fanouts, common::Rng* rng) {
  SGNN_CHECK(rng != nullptr);
  return BuildBatch(
      seeds, static_cast<int>(fanouts.size()),
      [&graph, &fanouts, rng](int l, const std::vector<NodeId>& dst) {
        const int fanout = fanouts[static_cast<size_t>(l)];
        SGNN_CHECK_GE(fanout, 1);
        // One uniform variate per candidate source vertex, shared by every
        // destination in this layer: the LABOR trick. The variate is a pure
        // hash of (layer_base, vertex) — no memo table, so destinations can
        // fan out in parallel and still agree on every shared vertex.
        const uint64_t layer_base = rng->engine()();
        std::vector<std::vector<std::pair<NodeId, float>>> edges(dst.size());
        par::ParallelFor(
            "sample.labor", DstShards(dst.size()), [&](int, par::Range range) {
              for (int64_t i = range.begin; i < range.end; ++i) {
                auto nbrs = graph.Neighbors(dst[static_cast<size_t>(i)]);
                auto& out = edges[static_cast<size_t>(i)];
                if (nbrs.empty()) continue;
                const double degree = static_cast<double>(nbrs.size());
                const double p =
                    std::min(1.0, static_cast<double>(fanout) / degree);
                const float w = static_cast<float>(1.0 / (degree * p));
                for (NodeId v : nbrs) {
                  if (common::KeyedUniform(layer_base, v) < p) {
                    out.emplace_back(v, w);
                  }
                }
              }
            });
        return AssembleLayer(dst, edges);
      }).value();
}

MiniBatch SampleLayerWise(const CsrGraph& graph,
                          std::span<const NodeId> seeds,
                          std::span<const int> layer_sizes, common::Rng* rng) {
  SGNN_CHECK(rng != nullptr);
  // Degree-proportional proposal over all nodes (FastGCN's q).
  const double total_degree = static_cast<double>(graph.num_edges());
  SGNN_CHECK_GT(total_degree, 0.0);
  // Cumulative degree array for O(log n) inverse-CDF sampling.
  std::vector<double> cdf(graph.num_nodes());
  double acc = 0.0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    acc += static_cast<double>(graph.OutDegree(u));
    cdf[u] = acc;
  }
  return BuildBatch(
      seeds, static_cast<int>(layer_sizes.size()),
      [&graph, &layer_sizes, rng, &cdf,
       total_degree](int l, const std::vector<NodeId>& dst) {
        const int m = layer_sizes[static_cast<size_t>(l)];
        SGNN_CHECK_GE(m, 1);
        // Sample m nodes with replacement from q(v) = deg(v) / 2|E|.
        std::unordered_map<NodeId, int> counts;
        for (int s = 0; s < m; ++s) {
          const double r = rng->Uniform() * total_degree;
          const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
          counts[static_cast<NodeId>(it - cdf.begin())]++;
        }
        std::vector<std::vector<std::pair<NodeId, float>>> edges(dst.size());
        // The m global draws above stay on the caller's stream; only the
        // per-destination edge assembly (which merely reads `counts`) fans
        // out across workers.
        par::ParallelFor(
            "sample.layer_wise", DstShards(dst.size()),
            [&](int, par::Range range) {
              for (int64_t i = range.begin; i < range.end; ++i) {
                auto nbrs = graph.Neighbors(dst[static_cast<size_t>(i)]);
                auto& out = edges[static_cast<size_t>(i)];
                if (nbrs.empty()) continue;
                const double inv_deg = 1.0 / static_cast<double>(nbrs.size());
                for (NodeId v : nbrs) {
                  auto it = counts.find(v);
                  if (it == counts.end()) continue;
                  const double q =
                      static_cast<double>(graph.OutDegree(v)) / total_degree;
                  const double w =
                      static_cast<double>(it->second) / (m * q) * inv_deg;
                  out.emplace_back(v, static_cast<float>(w));
                }
              }
            });
        return AssembleLayer(dst, edges);
      }).value();
}

MiniBatch FullNeighborhood(const CsrGraph& graph,
                           std::span<const NodeId> seeds, int num_layers) {
  return BuildBatch(
      seeds, num_layers, [&graph](int, const std::vector<NodeId>& dst) {
        std::vector<std::vector<std::pair<NodeId, float>>> edges(dst.size());
        par::ParallelFor(
            "sample.full", DstShards(dst.size()), [&](int, par::Range range) {
              for (int64_t i = range.begin; i < range.end; ++i) {
                auto nbrs = graph.Neighbors(dst[static_cast<size_t>(i)]);
                auto& out = edges[static_cast<size_t>(i)];
                if (nbrs.empty()) continue;
                const float w = 1.0f / static_cast<float>(nbrs.size());
                for (NodeId v : nbrs) out.emplace_back(v, w);
              }
            });
        return AssembleLayer(dst, edges);
      }).value();
}

}  // namespace sgnn::sampling
