#include "models/decoupled.h"

#include <algorithm>

#include "algebra/implicit.h"
#include "common/check.h"
#include "common/timer.h"
#include "graph/propagate.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "ppr/feature_propagation.h"
#include "ppr/ppr.h"
#include "spectral/embeddings.h"
#include "tensor/ops.h"

namespace sgnn::models {

using graph::Propagator;
using tensor::Matrix;

namespace {

/// Shared tail for precompute-style models: train an MLP head on fixed
/// embeddings and package the result, keeping the fitted head so the run
/// can be frozen into an inference artifact (`serve::FrozenModel`).
ModelResult FitHead(const char* name, const Matrix& embeddings,
                    std::span<const int> labels, const NodeSplits& splits,
                    const nn::TrainConfig& config,
                    common::ScopedCounterDelta* counters,
                    common::WallTimer* timer) {
  common::Rng rng(config.seed);
  auto head = std::make_shared<nn::Mlp>(
      std::vector<int64_t>{embeddings.cols(), config.hidden_dim,
                           static_cast<int64_t>(NumClasses(labels))},
      config.dropout, &rng);
  ModelResult result;
  result.name = name;
  result.report = nn::TrainMlpOnEmbeddings(head.get(), embeddings, labels,
                                           splits.train, splits.val,
                                           splits.test, config);
  result.report.train_seconds = timer->Seconds();
  result.ops = counters->Delta();
  result.fitted_head = std::move(head);
  return result;
}

}  // namespace

ModelResult TrainSgc(const graph::CsrGraph& graph, const Matrix& x,
                     std::span<const int> labels, const NodeSplits& splits,
                     const nn::TrainConfig& config, const SgcConfig& sgc) {
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  Propagator prop(graph, graph::Normalization::kSymmetric, true);
  Matrix embeddings = graph::PropagateKHops(prop, x, sgc.hops);
  return FitHead("sgc", embeddings, labels, splits, config, &counters,
                 &timer);
}

ModelResult TrainSpectralDecoupled(const graph::CsrGraph& graph,
                                   const Matrix& x,
                                   std::span<const int> labels,
                                   const NodeSplits& splits,
                                   const nn::TrainConfig& config,
                                   const SpectralDecoupledConfig& spectral) {
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  Propagator prop(graph, graph::Normalization::kSymmetric, true);
  spectral::CombinedEmbeddingConfig embed;
  embed.hops = spectral.hops;
  embed.alpha = spectral.alpha;
  embed.include_high_pass = spectral.include_high_pass;
  Matrix embeddings = spectral::CombinedEmbeddings(prop, x, embed);
  return FitHead("spectral_decoupled", embeddings, labels, splits, config,
                 &counters, &timer);
}

ModelResult TrainLabelProp(const graph::CsrGraph& graph, const Matrix& x,
                           std::span<const int> labels,
                           const NodeSplits& splits,
                           const nn::TrainConfig& config,
                           const LabelPropConfig& lp) {
  (void)x;  // Feature-free by design.
  SGNN_CHECK(lp.alpha > 0.0 && lp.alpha <= 1.0);
  SGNN_CHECK_GE(lp.iterations, 1);
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  const int num_classes = NumClasses(labels);

  Propagator prop(graph, graph::Normalization::kSymmetric, true);
  Matrix y0(static_cast<int64_t>(graph.num_nodes()), num_classes);
  for (graph::NodeId u : splits.train) {
    y0.at(static_cast<int64_t>(u), labels[u]) = 1.0f;
  }
  Matrix y = y0;
  Matrix sy;
  for (int it = 0; it < lp.iterations; ++it) {
    prop.Apply(y, &sy);
    tensor::Scale(static_cast<float>(1.0 - lp.alpha), &sy);
    tensor::Axpy(static_cast<float>(lp.alpha), y0, &sy);
    y = std::move(sy);
    // Clamp the training rows back to their one-hot labels.
    for (graph::NodeId u : splits.train) {
      auto row = y.Row(static_cast<int64_t>(u));
      std::fill(row.begin(), row.end(), 0.0f);
      row[labels[u]] = 1.0f;
    }
  }

  ModelResult result;
  result.name = "label_prop";
  result.report.epochs_run = lp.iterations;
  result.report.best_val_accuracy = nn::Accuracy(y, labels, splits.val);
  result.report.test_accuracy = nn::Accuracy(y, labels, splits.test);
  result.report.train_seconds = timer.Seconds();
  (void)config;
  result.ops = counters.Delta();
  return result;
}

ModelResult TrainPprgo(const graph::CsrGraph& graph, const Matrix& x,
                       std::span<const int> labels, const NodeSplits& splits,
                       const nn::TrainConfig& config,
                       const PprgoConfig& pprgo) {
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  // Per-node sparse propagation: embedding(u) = sum over u's top-k PPR
  // neighbours v of pi_u(v) * x[v]. Push cost is independent of n for
  // fixed alpha/r_max, which is PPRGo's scalability argument.
  Matrix embeddings(x.rows(), x.cols());
  for (graph::NodeId u = 0; u < graph.num_nodes(); ++u) {
    auto top = ppr::TopKPpr(graph, u, pprgo.alpha, pprgo.top_k, pprgo.r_max);
    auto out = embeddings.Row(static_cast<int64_t>(u));
    for (const auto& [v, mass] : top) {
      auto row = x.Row(static_cast<int64_t>(v));
      for (int64_t c = 0; c < x.cols(); ++c) {
        out[c] += static_cast<float>(mass) * row[c];
      }
    }
  }
  return FitHead("pprgo", embeddings, labels, splits, config, &counters,
                 &timer);
}

ModelResult TrainSign(const graph::CsrGraph& graph, const Matrix& x,
                      std::span<const int> labels, const NodeSplits& splits,
                      const nn::TrainConfig& config, const SignConfig& sign) {
  SGNN_CHECK_GE(sign.hops, 1);
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  Propagator prop(graph, graph::Normalization::kSymmetric, true);
  Matrix embeddings = x;
  Matrix hop = x;
  Matrix next;
  for (int k = 0; k < sign.hops; ++k) {
    prop.Apply(hop, &next);
    hop = std::move(next);
    embeddings = tensor::ConcatCols(embeddings, hop);
  }
  return FitHead("sign", embeddings, labels, splits, config, &counters,
                 &timer);
}

ModelResult TrainImplicit(const graph::CsrGraph& graph, const Matrix& x,
                          std::span<const int> labels,
                          const NodeSplits& splits,
                          const nn::TrainConfig& config,
                          const ImplicitConfig& implicit) {
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  Propagator prop(graph, graph::Normalization::kSymmetric, true);
  Matrix equilibrium = algebra::MultiscaleImplicit(
      prop, x, implicit.gamma, implicit.scales, implicit.tol,
      implicit.max_iters);
  // Scale the equilibrium to unit rows: Neumann magnitudes grow with
  // 1/(1-gamma) and would otherwise dominate the head's init scale.
  tensor::NormalizeRows(2, &equilibrium);
  return FitHead("implicit", equilibrium, labels, splits, config, &counters,
                 &timer);
}

ModelResult TrainAppnp(const graph::CsrGraph& graph, const Matrix& x,
                       std::span<const int> labels, const NodeSplits& splits,
                       const nn::TrainConfig& config,
                       const AppnpConfig& appnp) {
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  common::Rng rng(config.seed);
  const int num_classes = NumClasses(labels);
  Propagator prop(graph, graph::Normalization::kSymmetric, true);
  nn::Mlp mlp({x.cols(), config.hidden_dim,
               static_cast<int64_t>(num_classes)},
              config.dropout, &rng);
  nn::Adam opt(mlp.Params(), config.lr, config.weight_decay);

  // APPNP trains full-batch: MLP activations plus propagated logits are
  // resident for every node (the memory profile that motivates PPRGo's
  // per-node sparse variant).
  const uint64_t resident = static_cast<uint64_t>(
      2 * x.rows() * (config.hidden_dim + num_classes));
  auto train_epoch = [&] {
    common::GlobalCounters().Acquire(resident);
    Matrix h;
    mlp.Forward(x, /*training=*/true, &rng, &h);
    Matrix logits = ppr::AppnpPropagate(prop, h, appnp.alpha, appnp.hops);
    Matrix dlogits;
    const double loss =
        nn::SoftmaxCrossEntropy(logits, labels, splits.train, &dlogits);
    // The propagation operator P = sum_k alpha(1-alpha)^k S^k is symmetric,
    // so dH = P dlogits is computed by the same routine.
    Matrix dh = ppr::AppnpPropagate(prop, dlogits, appnp.alpha, appnp.hops);
    mlp.ZeroGrad();
    mlp.Backward(dh, nullptr);
    opt.Step();
    common::GlobalCounters().Release(resident);
    return loss;
  };
  auto eval_logits = [&] {
    Matrix h_eval;
    mlp.Forward(x, /*training=*/false, nullptr, &h_eval);
    return ppr::AppnpPropagate(prop, h_eval, appnp.alpha, appnp.hops);
  };

  ModelResult result;
  result.name = "appnp";
  result.report = nn::RunEpochs(config, labels, splits.val, splits.test,
                                train_epoch, eval_logits);
  result.report.train_seconds = timer.Seconds();
  result.ops = counters.Delta();
  return result;
}

}  // namespace sgnn::models
