#ifndef SGNN_SAMPLING_VARIANCE_H_
#define SGNN_SAMPLING_VARIANCE_H_

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "sampling/block.h"
#include "tensor/matrix.h"

namespace sgnn::sampling {

/// Estimator-quality utilities for §3.3.2 "Graph Variance": samplers are
/// compared by the error of their one-layer neighbourhood-mean estimate
/// against the exact aggregation.

/// Exact neighbourhood mean of `features` for node u (zero if isolated).
std::vector<double> ExactNeighborhoodMean(const graph::CsrGraph& graph,
                                          const tensor::Matrix& features,
                                          graph::NodeId u);

/// Aggregates `features` through a single LayerSample: for each dst i,
/// out[i] = sum_edges w * features[src_global]. This is the GNN layer's
/// own kernel (`graph::SpmmRows` over the block's global-id view, as
/// GraphSAGE's layer 0 runs it, billed like it) and is what the
/// unbiasedness claims are about. Every src id must be a row of `features`.
tensor::Matrix AggregateThroughLayer(const LayerSample& layer,
                                     const tensor::Matrix& features);

/// Kind of one-layer sampler to analyse.
enum class SamplerKind { kNodeWise, kLabor, kLayerWise };

struct VarianceReport {
  double mean_squared_error = 0.0;  ///< Avg over seeds, dims and trials.
  double mean_bias = 0.0;           ///< Avg signed deviation (≈0 if unbiased).
  double avg_distinct_sources = 0.0;  ///< Distinct sampled vertices/trial.
};

/// Monte-Carlo estimate of one-layer aggregation error for a sampler at
/// the given budget (fanout for node-wise/LABOR, layer width for
/// layer-wise). Deterministic given `seed`.
VarianceReport MeasureSamplerVariance(const graph::CsrGraph& graph,
                                      const tensor::Matrix& features,
                                      std::span<const graph::NodeId> seeds,
                                      SamplerKind kind, int budget, int trials,
                                      uint64_t seed);

}  // namespace sgnn::sampling

#endif  // SGNN_SAMPLING_VARIANCE_H_
