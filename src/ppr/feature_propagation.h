#ifndef SGNN_PPR_FEATURE_PROPAGATION_H_
#define SGNN_PPR_FEATURE_PROPAGATION_H_

#include "graph/propagate.h"
#include "tensor/matrix.h"

namespace sgnn::ppr {

/// Decoupled PPR smoothing of a whole feature/logit matrix:
///   Z = sum_{k=0..K} alpha (1-alpha)^k S^k H   (+ (1-alpha)^K tail on S^K H)
/// computed iteratively as Z_{k+1} = (1-alpha) S Z_k + alpha H. This is the
/// APPNP propagation step (Klicpera et al., the tutorial's pioneering
/// decoupled model) and is linear in edges per hop.
struct AppnpStats {
  int hops_run = 0;
  double final_delta = 0.0;  ///< Max-abs change in the final hop.
};

/// Runs K hops (or stops early when the max-abs update falls below
/// `early_stop_tol` > 0). `prop` should be a symmetric or row normalisation
/// of the graph.
tensor::Matrix AppnpPropagate(const graph::Propagator& prop,
                              const tensor::Matrix& h, double alpha, int hops,
                              double early_stop_tol = 0.0,
                              AppnpStats* stats = nullptr);

/// SCARA/Unifews-flavoured *sparse-aware* propagation: identical recurrence,
/// but entries whose absolute update contribution is below `threshold` are
/// skipped (entry-wise sparsification of the propagation, §3.3.1). Returns
/// the smoothed matrix; `ops_performed`/`ops_skipped` expose the saving.
struct ThresholdedStats {
  int64_t ops_performed = 0;
  int64_t ops_skipped = 0;
};

tensor::Matrix ThresholdedPropagate(const graph::Propagator& prop,
                                    const tensor::Matrix& h, double alpha,
                                    int hops, double threshold,
                                    ThresholdedStats* stats = nullptr);

/// SCARA-style *feature push* (§3.3.1 "Node-level"): treats every feature
/// column as a (signed) source distribution and runs forward push on it,
/// so work adapts to each column's support instead of sweeping all edges
/// per hop. Computes the fixed point
///   Z = alpha * sum_k (1-alpha)^k M^k X,   M = A D^-1 (column-stochastic)
/// to per-entry tolerance r_max * degree (same bound as single-source
/// push). Equivalent to running `AppnpPropagate` with a kColumn
/// propagator to convergence, but touches only active entries. Requires
/// non-negative weights with a positive sum on every row it pushes, as
/// `ForwardPushOn` does, and aborts at the first pushed row without them.
struct FeaturePushStats {
  int64_t pushes = 0;
  int64_t edges_touched = 0;
};

tensor::Matrix FeaturePush(const graph::CsrGraph& graph,
                           const tensor::Matrix& x, double alpha,
                           double r_max, FeaturePushStats* stats = nullptr);

}  // namespace sgnn::ppr

#endif  // SGNN_PPR_FEATURE_PROPAGATION_H_
