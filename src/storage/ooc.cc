#include "storage/ooc.h"

#include <utility>

#include "common/check.h"
#include "par/par.h"
#include "sampling/assembly.h"

namespace sgnn::storage {

using common::Status;
using common::StatusOr;
using graph::NodeId;
using graph::Normalization;

namespace {

/// One pinned shard as `graph::SpmmRows` rows: shard row r writes output
/// row rows()[r], and its coefficients are evaluated per edge from the
/// resident per-node factors, so no O(E) coefficient array exists.
struct ShardRows {
  const PinnedShard& pin;
  Normalization norm;
  std::span<const double> factor;
  std::span<const float> self_loop;

  /// Row r's coefficients, indexable like the stored array they replace.
  struct RowCoefficients {
    std::span<const NodeId> nbrs;
    std::span<const float> ws;
    const ShardRows* rows;
    double factor_u;

    float operator[](size_t i) const {
      return graph::EdgeCoefficient(rows->norm, ws[i], factor_u,
                                    rows->factor[nbrs[i]]);
    }
  };

  int64_t EdgeBegin(int64_t r) const { return pin.local_offsets()[r]; }
  int64_t OutRow(int64_t r) const { return pin.rows()[r]; }
  std::span<const NodeId> Neighbors(int64_t r) const {
    return pin.NeighborsLocal(r);
  }
  RowCoefficients Coefficients(int64_t r) const {
    return {pin.NeighborsLocal(r), pin.WeightsLocal(r), this, factor[OutRow(r)]};
  }
  float SelfLoop(int64_t r) const {
    return self_loop.empty() ? 0.0f : self_loop[OutRow(r)];
  }
};

}  // namespace

StatusOr<OocPropagator> OocPropagator::Create(ShardedGraph* graph,
                                              Normalization norm,
                                              bool add_self_loops) {
  SGNN_CHECK(graph != nullptr);
  OocPropagator prop;
  prop.graph_ = graph;
  prop.norm_ = norm;
  const NodeId n = graph->num_nodes();
  // One streaming pass builds the per-node factor table the per-edge
  // coefficients need (kColumn/kSymmetric read the factor of neighbours in
  // *other* shards, so the table must cover all nodes — O(n) doubles).
  prop.factor_.assign(n, 0.0);
  if (add_self_loops) prop.self_loop_coeff_.resize(n);
  for (int s = 0; s < graph->num_shards(); ++s) {
    auto pin_or = graph->PinShard(s);
    if (!pin_or.ok()) return pin_or.status();
    const PinnedShard& pin = pin_or.value();
    par::ParallelFor(
        "storage.prop.degrees", graph::EdgeShards(pin.local_offsets()),
        [&](int, par::Range range) {
          for (int64_t r = range.begin; r < range.end; ++r) {
            const NodeId u = pin.rows()[r];
            const double degree =
                pin.WeightedDegree(u) + (add_self_loops ? 1.0 : 0.0);
            prop.factor_[u] = graph::DegreeFactor(norm, degree);
            if (add_self_loops) {
              prop.self_loop_coeff_[u] = graph::LoopCoefficient(norm, degree);
            }
          }
        });
  }
  return prop;
}

Status OocPropagator::Apply(const tensor::Matrix& x,
                            tensor::Matrix* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK(graph_ != nullptr);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph_->num_nodes()));
  out->Reset(x.rows(), x.cols());
  for (int s = 0; s < graph_->num_shards(); ++s) {
    auto pin_or = graph_->PinShard(s);
    if (!pin_or.ok()) return pin_or.status();
    const PinnedShard& pin = pin_or.value();
    const ShardRows rows{pin, norm_, factor_, self_loop_coeff_};
    par::ParallelFor(
        "storage.prop.apply", graph::EdgeShards(pin.local_offsets()),
        [&](int, par::Range range) { graph::SpmmRows(rows, range, x, out); });
  }
  return Status::OK();
}

StatusOr<std::vector<ppr::PushResult>> PushBatch(
    ShardedGraph* graph, std::span<const NodeId> seeds, double alpha,
    double r_max) {
  SGNN_CHECK(graph != nullptr);
  std::vector<ppr::PushResult> results(seeds.size());
  // Sequential seeds: each push is a pure function of its seed (so the
  // values match the in-memory parallel batch exactly), and serialising
  // the cache access makes the load/eviction sequence — the thing the
  // budget meters — deterministic too.
  for (size_t i = 0; i < seeds.size(); ++i) {
    auto result_or = ppr::ForwardPushOn(*graph, seeds[i], alpha, r_max);
    if (!result_or.ok()) return result_or.status();
    results[i] = std::move(result_or).value();
  }
  return results;
}

StatusOr<sampling::MiniBatch> SampleNodeWise(ShardedGraph* graph,
                                             std::span<const NodeId> seeds,
                                             std::span<const int> fanouts,
                                             common::Rng* rng) {
  SGNN_CHECK(graph != nullptr);
  SGNN_CHECK(rng != nullptr);
  return sampling::BuildBatch(
      seeds, static_cast<int>(fanouts.size()),
      [&](int l, const std::vector<NodeId>& dst)
          -> StatusOr<sampling::LayerSample> {
        const int fanout = fanouts[static_cast<size_t>(l)];
        SGNN_CHECK_GE(fanout, 1);
        // One caller-side engine draw per layer keys every destination's
        // counter-based stream — the in-memory sampler's scheme, so the
        // draws (and the assembled block) do not depend on the shard
        // grouping below.
        const uint64_t layer_base = rng->engine()();
        std::vector<std::vector<std::pair<NodeId, float>>> edges(dst.size());
        std::vector<std::vector<size_t>> by_shard(
            static_cast<size_t>(graph->num_shards()));
        for (size_t i = 0; i < dst.size(); ++i) {
          by_shard[static_cast<size_t>(graph->shard_of(dst[i]))].push_back(i);
        }
        for (int s = 0; s < graph->num_shards(); ++s) {
          const auto& bucket = by_shard[static_cast<size_t>(s)];
          if (bucket.empty()) continue;
          auto pin_or = graph->PinShard(s);
          if (!pin_or.ok()) return pin_or.status();
          const PinnedShard& pin = pin_or.value();
          par::ParallelFor(
              "storage.sample.node_wise", sampling::DstShards(bucket.size()),
              [&](int, par::Range range) {
                for (int64_t b = range.begin; b < range.end; ++b) {
                  const size_t i = bucket[static_cast<size_t>(b)];
                  sampling::DrawNodeWise(pin.Neighbors(dst[i]), dst[i],
                                         fanout, layer_base, &edges[i]);
                }
              });
        }
        return sampling::AssembleLayer(dst, edges);
      });
}

}  // namespace sgnn::storage
