#include "sampling/variance.h"

#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"
#include "graph/propagate.h"
#include "sampling/neighbor_sampler.h"

namespace sgnn::sampling {

using graph::CsrGraph;
using graph::NodeId;
using tensor::Matrix;

std::vector<double> ExactNeighborhoodMean(const CsrGraph& graph,
                                          const Matrix& features, NodeId u) {
  std::vector<double> mean(static_cast<size_t>(features.cols()), 0.0);
  auto nbrs = graph.Neighbors(u);
  if (nbrs.empty()) return mean;
  for (NodeId v : nbrs) {
    auto row = features.Row(static_cast<int64_t>(v));
    for (int64_t c = 0; c < features.cols(); ++c) mean[static_cast<size_t>(c)] += row[c];
  }
  for (double& m : mean) m /= static_cast<double>(nbrs.size());
  return mean;
}

Matrix AggregateThroughLayer(const LayerSample& layer, const Matrix& features) {
  const int64_t num_dst = static_cast<int64_t>(layer.dst.size());
  Matrix out(num_dst, features.cols());
  graph::SpmmRows(GlobalSourceRows(layer, features.rows()), {0, num_dst},
                  features, &out);
  return out;
}

VarianceReport MeasureSamplerVariance(const CsrGraph& graph,
                                      const Matrix& features,
                                      std::span<const NodeId> seeds,
                                      SamplerKind kind, int budget, int trials,
                                      uint64_t seed) {
  SGNN_CHECK_GE(trials, 1);
  SGNN_CHECK(!seeds.empty());
  common::Rng rng(seed);

  // Exact targets per seed.
  std::vector<std::vector<double>> exact;
  exact.reserve(seeds.size());
  for (NodeId s : seeds) {
    exact.push_back(ExactNeighborhoodMean(graph, features, s));
  }

  VarianceReport report;
  double se_acc = 0.0, bias_acc = 0.0, distinct_acc = 0.0;
  int64_t count = 0;
  const std::vector<int> budgets = {budget};
  for (int t = 0; t < trials; ++t) {
    MiniBatch batch;
    switch (kind) {
      case SamplerKind::kNodeWise:
        batch = SampleNodeWise(graph, seeds, budgets, &rng);
        break;
      case SamplerKind::kLabor:
        batch = SampleLabor(graph, seeds, budgets, &rng);
        break;
      case SamplerKind::kLayerWise:
        batch = SampleLayerWise(graph, seeds, budgets, &rng);
        break;
    }
    const LayerSample& layer = batch.layers.front();
    Matrix agg = AggregateThroughLayer(layer, features);
    for (size_t i = 0; i < seeds.size(); ++i) {
      for (int64_t c = 0; c < features.cols(); ++c) {
        const double err = static_cast<double>(agg.at(static_cast<int64_t>(i), c)) -
                           exact[i][static_cast<size_t>(c)];
        se_acc += err * err;
        bias_acc += err;
        ++count;
      }
    }
    // Distinct sampled sources beyond the destinations themselves.
    std::unordered_set<NodeId> distinct(layer.src.begin() +
                                            static_cast<int64_t>(layer.dst.size()),
                                        layer.src.end());
    distinct_acc += static_cast<double>(distinct.size());
  }
  report.mean_squared_error = se_acc / static_cast<double>(count);
  report.mean_bias = bias_acc / static_cast<double>(count);
  report.avg_distinct_sources = distinct_acc / trials;
  return report;
}

}  // namespace sgnn::sampling
