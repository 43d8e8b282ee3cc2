#include "ppr/feature_propagation.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/counters.h"
#include "tensor/ops.h"

namespace sgnn::ppr {

using tensor::Matrix;

Matrix AppnpPropagate(const graph::Propagator& prop, const Matrix& h,
                      double alpha, int hops, double early_stop_tol,
                      AppnpStats* stats) {
  SGNN_CHECK(alpha > 0.0 && alpha <= 1.0);
  SGNN_CHECK_GE(hops, 0);
  Matrix z = h;
  Matrix sz;
  int k = 0;
  double delta = 0.0;
  for (; k < hops; ++k) {
    prop.Apply(z, &sz);
    // z <- (1-alpha) S z + alpha h
    tensor::Scale(static_cast<float>(1.0 - alpha), &sz);
    tensor::Axpy(static_cast<float>(alpha), h, &sz);
    // The delta is a serial pass over the whole matrix: take it only when
    // the early stop reads it, or on the final hop when `stats` reports it.
    if (early_stop_tol > 0.0 || (stats != nullptr && k + 1 == hops)) {
      delta = tensor::MaxAbsDiff(z, sz);
    }
    z = std::move(sz);
    if (early_stop_tol > 0.0 && delta < early_stop_tol) {
      ++k;
      break;
    }
  }
  if (stats != nullptr) {
    stats->hops_run = k;
    stats->final_delta = delta;
  }
  return z;
}

Matrix ThresholdedPropagate(const graph::Propagator& prop, const Matrix& h,
                            double alpha, int hops, double threshold,
                            ThresholdedStats* stats) {
  SGNN_CHECK(alpha > 0.0 && alpha <= 1.0);
  SGNN_CHECK_GE(hops, 0);
  SGNN_CHECK_GE(threshold, 0.0);
  const auto& g = prop.graph();
  const int64_t cols = h.cols();
  Matrix z = h;
  Matrix next(h.rows(), cols);
  ThresholdedStats local;
  for (int k = 0; k < hops; ++k) {
    next.Zero();
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      auto nbrs = g.Neighbors(u);
      auto cs = prop.Coefficients(u);
      float* orow = next.data() + static_cast<int64_t>(u) * cols;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const float c = cs[i];
        const float* zrow = z.data() + static_cast<int64_t>(nbrs[i]) * cols;
        for (int64_t j = 0; j < cols; ++j) {
          const float contrib = c * zrow[j];
          // Entry-wise pruning (Unifews): drop sub-threshold messages.
          if (std::fabs(contrib) < threshold) {
            ++local.ops_skipped;
            continue;
          }
          orow[j] += contrib;
          ++local.ops_performed;
        }
      }
      const float self = prop.SelfLoopCoefficient(u);
      if (self != 0.0f) {
        const float* zrow = z.data() + static_cast<int64_t>(u) * cols;
        for (int64_t j = 0; j < cols; ++j) orow[j] += self * zrow[j];
      }
    }
    tensor::Scale(static_cast<float>(1.0 - alpha), &next);
    tensor::Axpy(static_cast<float>(alpha), h, &next);
    std::swap(z, next);
  }
  if (stats != nullptr) *stats = local;
  return z;
}

tensor::Matrix FeaturePush(const graph::CsrGraph& graph,
                           const tensor::Matrix& x, double alpha,
                           double r_max, FeaturePushStats* stats) {
  SGNN_CHECK(alpha > 0.0 && alpha < 1.0);
  SGNN_CHECK_GT(r_max, 0.0);
  SGNN_CHECK_EQ(x.rows(), static_cast<int64_t>(graph.num_nodes()));
  const graph::NodeId n = graph.num_nodes();
  tensor::Matrix z(x.rows(), x.cols());
  FeaturePushStats local;

  std::vector<double> r(n);
  std::vector<double> p(n);
  std::vector<bool> queued(n);
  std::vector<graph::NodeId> active;
  for (int64_t col = 0; col < x.cols(); ++col) {
    std::fill(p.begin(), p.end(), 0.0);
    std::fill(queued.begin(), queued.end(), false);
    active.clear();
    for (graph::NodeId u = 0; u < n; ++u) {
      r[u] = x.at(static_cast<int64_t>(u), col);
      if (std::fabs(r[u]) >
          r_max * std::max<double>(1.0, static_cast<double>(graph.OutDegree(u)))) {
        active.push_back(u);
        queued[u] = true;
      }
    }
    // Signed forward push: identical recurrence, residuals may be
    // negative (features are arbitrary signals, not distributions).
    while (!active.empty()) {
      const graph::NodeId u = active.back();
      active.pop_back();
      queued[u] = false;
      const auto deg = graph.OutDegree(u);
      if (deg == 0) {
        p[u] += r[u];
        r[u] = 0.0;
        continue;
      }
      if (std::fabs(r[u]) <= r_max * static_cast<double>(deg)) continue;
      auto nbrs = graph.Neighbors(u);
      auto ws = graph.Weights(u);
      const double w_deg = graph.WeightedDegree(u);
      // `ForwardPushOn`'s rule: a row with a negative weight or a weight
      // sum that is not positive is not a random-walk step, its spread can
      // grow the residual mass, and the queue would never drain.
      SGNN_CHECK(w_deg > 0.0 &&
                 std::ranges::none_of(ws, [](float w) { return w < 0.0f; }));
      const double ru = r[u];
      p[u] += alpha * ru;
      r[u] = 0.0;
      ++local.pushes;
      local.edges_touched += deg;
      const double spread = (1.0 - alpha) * ru / w_deg;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const graph::NodeId v = nbrs[i];
        r[v] += spread * ws[i];
        if (!queued[v] &&
            std::fabs(r[v]) >
                r_max * std::max<double>(
                            1.0, static_cast<double>(graph.OutDegree(v)))) {
          active.push_back(v);
          queued[v] = true;
        }
      }
    }
    for (graph::NodeId u = 0; u < n; ++u) {
      z.at(static_cast<int64_t>(u), col) = static_cast<float>(p[u]);
    }
  }
  common::GlobalCounters().edges_touched +=
      static_cast<uint64_t>(local.edges_touched);
  if (stats != nullptr) *stats = local;
  return z;
}

}  // namespace sgnn::ppr
