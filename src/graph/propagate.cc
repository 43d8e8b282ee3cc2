#include "graph/propagate.h"

#include <cmath>

#include "common/counters.h"
#include "par/par.h"

namespace sgnn::graph {

namespace {

/// Edge traversals per shard below which a section stays single-shard.
constexpr int64_t kEdgeGrain = 32 * 1024;

double Inv(double d) { return d > 0.0 ? 1.0 / d : 0.0; }

}  // namespace

double DegreeFactor(Normalization norm, double degree) {
  switch (norm) {
    case Normalization::kRow:
    case Normalization::kColumn:
      return Inv(degree);
    case Normalization::kSymmetric:
      return degree > 0.0 ? 1.0 / std::sqrt(degree) : 0.0;
    case Normalization::kNone:
      break;
  }
  return 1.0;
}

float LoopCoefficient(Normalization norm, double degree) {
  return static_cast<float>(norm == Normalization::kNone ? 1.0 : Inv(degree));
}

void NodeFactors(const CsrGraph& graph, Normalization norm,
                 bool add_self_loops, std::vector<double>* factor,
                 std::vector<float>* self_loop) {
  const NodeId n = graph.num_nodes();
  factor->resize(n);
  self_loop->resize(add_self_loops ? n : 0);
  par::ParallelFor(
      "prop.degrees", EdgeShards(graph.offsets()), [&](int, par::Range range) {
        for (int64_t u = range.begin; u < range.end; ++u) {
          const double degree = graph.WeightedDegree(static_cast<NodeId>(u)) +
                                (add_self_loops ? 1.0 : 0.0);
          (*factor)[u] = DegreeFactor(norm, degree);
          if (add_self_loops) (*self_loop)[u] = LoopCoefficient(norm, degree);
        }
      });
}

std::vector<par::Range> EdgeShards(std::span<const EdgeIndex> offsets) {
  return par::RowRanges(offsets, par::ShardsFor(offsets.back(), kEdgeGrain));
}

void BillSpmm(uint64_t edges, uint64_t applied, int64_t cols) {
  const uint64_t row_bytes = static_cast<uint64_t>(cols) * sizeof(float);
  auto& counters = common::GlobalCounters();
  counters.edges_touched += edges;
  counters.floats_moved += edges * static_cast<uint64_t>(cols);
  counters.BillBytes(
      edges * (sizeof(float) + sizeof(NodeId)) + applied * 2u * row_bytes,
      applied * row_bytes);
}

Propagator::Propagator(const CsrGraph& graph, Normalization norm,
                       bool add_self_loops)
    : graph_(graph), norm_(norm) {
  std::vector<double> factor;
  NodeFactors(graph, norm, add_self_loops, &factor, &self_loop_coeff_);
  coeff_.resize(static_cast<size_t>(graph.num_edges()));
  const auto shards = EdgeShards(graph.offsets());
  par::ParallelFor("prop.coeffs", shards, [&](int, par::Range range) {
    for (int64_t uu = range.begin; uu < range.end; ++uu) {
      const NodeId u = static_cast<NodeId>(uu);
      auto nbrs = graph.Neighbors(u);
      auto ws = graph.Weights(u);
      float* cs = coeff_.data() + graph.OffsetOf(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        cs[i] = EdgeCoefficient(norm, ws[i], factor[u], factor[nbrs[i]]);
      }
    }
  });
}

void Propagator::Apply(const tensor::Matrix& x, tensor::Matrix* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph_.num_nodes()));
  SGNN_DCHECK_EQ(coeff_.size(), static_cast<size_t>(graph_.num_edges()));
  out->Reset(x.rows(), x.cols());
  // Row-partitioned SpMM: each shard owns a contiguous block of output
  // rows and gathers from x, so no write is shared and no atomics are
  // needed; per-row accumulation order is the serial order, so the result
  // is bit-identical for any worker count.
  const CoefficientRows rows{graph_.offsets(), graph_.neighbors(), coeff_,
                             self_loop_coeff_};
  par::ParallelFor(
      "prop.apply", EdgeShards(graph_.offsets()),
      [&](int, par::Range range) { SpmmRows(rows, range, x, out); });
}

void Propagator::ApplyVector(const std::vector<double>& x,
                             std::vector<double>* out) const {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.size(), static_cast<size_t>(graph_.num_nodes()));
  SGNN_DCHECK_EQ(coeff_.size(), static_cast<size_t>(graph_.num_edges()));
  out->assign(x.size(), 0.0);
  par::ParallelFor(
      "prop.apply_vec", EdgeShards(graph_.offsets()),
      [&](int, par::Range range) {
        for (int64_t uu = range.begin; uu < range.end; ++uu) {
          const NodeId u = static_cast<NodeId>(uu);
          auto nbrs = graph_.Neighbors(u);
          const float* cs = coeff_.data() + graph_.OffsetOf(u);
          double acc = 0.0;
          for (size_t i = 0; i < nbrs.size(); ++i) acc += cs[i] * x[nbrs[i]];
          if (!self_loop_coeff_.empty()) acc += self_loop_coeff_[u] * x[u];
          (*out)[u] = acc;
        }
        common::GlobalCounters().edges_touched += static_cast<uint64_t>(
            graph_.OffsetOf(static_cast<NodeId>(range.end)) -
            graph_.OffsetOf(static_cast<NodeId>(range.begin)));
      });
}

void Propagator::ApplyTranspose(const tensor::Matrix& x,
                                tensor::Matrix* out) const {
  // Serial (see `SpmmTransposeRows`): parallelising it would need a
  // transposed CSR or atomics, which break bit-determinism; the kernel is
  // off the hot path.
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph_.num_nodes()));
  SGNN_DCHECK_EQ(coeff_.size(), static_cast<size_t>(graph_.num_edges()));
  out->Reset(x.rows(), x.cols());
  SpmmTransposeRows(CoefficientRows{graph_.offsets(), graph_.neighbors(),
                                    coeff_, self_loop_coeff_},
                    {0, static_cast<int64_t>(graph_.num_nodes())}, x, out);
}

tensor::Matrix PropagateKHops(const Propagator& prop, const tensor::Matrix& x,
                              int hops) {
  SGNN_CHECK_GE(hops, 0);
  tensor::Matrix cur = x;
  tensor::Matrix next;
  for (int k = 0; k < hops; ++k) {
    prop.Apply(cur, &next);
    cur = std::move(next);
  }
  return cur;
}

}  // namespace sgnn::graph
