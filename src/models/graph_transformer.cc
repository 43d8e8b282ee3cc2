#include "models/graph_transformer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/timer.h"
#include "graph/metrics.h"
#include "nn/attention.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace sgnn::models {

using graph::NodeId;
using tensor::Matrix;

namespace {

std::vector<NodeId> PickAnchors(const graph::CsrGraph& graph, int count,
                                bool by_degree, common::Rng* rng) {
  count = std::min<int>(count, static_cast<int>(graph.num_nodes()));
  std::vector<NodeId> order(graph.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  if (by_degree) {
    std::sort(order.begin(), order.end(), [&graph](NodeId a, NodeId b) {
      const auto da = graph.OutDegree(a), db = graph.OutDegree(b);
      return da != db ? da > db : a < b;
    });
  } else {
    rng->Shuffle(&order);
  }
  order.resize(static_cast<size_t>(count));
  return order;
}

}  // namespace

ModelResult TrainGraphTransformer(const graph::CsrGraph& graph,
                                  const Matrix& x,
                                  std::span<const int> labels,
                                  const NodeSplits& splits,
                                  const nn::TrainConfig& config,
                                  const GraphTransformerConfig& gt) {
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  common::Rng rng(config.seed);

  // Preprocessing (DHIL-GT's decoupled part): anchors + SPD bias table;
  // training never touches the graph again.
  const std::vector<NodeId> anchors =
      PickAnchors(graph, gt.num_anchors, gt.degree_anchors, &rng);
  Matrix bias(static_cast<int64_t>(graph.num_nodes()),
              static_cast<int64_t>(anchors.size()));
  Matrix tokens = x;
  if (gt.spd_beta != 0.0 || gt.spd_encoding_dim > 0) {
    // Node-to-anchor SPD table: one BFS per anchor, O(anchors * |E|).
    // (DHIL-GT's hub-label index — similarity::HubLabeling — answers
    // *arbitrary* pair queries in O(label); for a fixed anchor set the
    // per-anchor sweep is strictly cheaper and gives the same distances.)
    std::vector<std::vector<int>> spd_to_anchor;
    spd_to_anchor.reserve(anchors.size());
    for (NodeId anchor : anchors) {
      spd_to_anchor.push_back(graph::BfsDistances(graph, anchor));
    }
    if (gt.spd_beta != 0.0) {
      for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        for (size_t a = 0; a < anchors.size(); ++a) {
          const int spd = spd_to_anchor[a][u];
          bias.at(static_cast<int64_t>(u), static_cast<int64_t>(a)) =
              spd < 0 ? static_cast<float>(gt.unreachable_bias)
                      : static_cast<float>(-gt.spd_beta * spd);
        }
      }
    }
    if (gt.spd_encoding_dim > 0) {
      // Distance positional encoding: proximity to the leading anchors.
      const int enc_dim =
          std::min<int>(gt.spd_encoding_dim, static_cast<int>(anchors.size()));
      Matrix encoding(static_cast<int64_t>(graph.num_nodes()), enc_dim);
      for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        for (int j = 0; j < enc_dim; ++j) {
          const int spd = spd_to_anchor[static_cast<size_t>(j)][u];
          encoding.at(static_cast<int64_t>(u), j) =
              spd < 0 ? 0.0f : std::exp(-0.5f * static_cast<float>(spd));
        }
      }
      tokens = tensor::ConcatCols(tokens, encoding);
    }
  }
  std::vector<int64_t> anchor_gather(anchors.begin(), anchors.end());
  const Matrix anchor_tokens = tokens.GatherRows(anchor_gather);

  // Model: anchor attention + skip, ReLU, linear head.
  nn::AnchorAttention attention(tokens.cols(), config.hidden_dim, &rng);
  nn::Linear skip(tokens.cols(), config.hidden_dim, &rng);
  nn::Linear head(config.hidden_dim, NumClasses(labels), &rng);
  std::vector<nn::ParamRef> params = attention.Params();
  for (const auto& p : skip.Params()) params.push_back(p);
  for (const auto& p : head.Params()) params.push_back(p);
  nn::Adam opt(params, config.lr, config.weight_decay);

  auto forward = [&](bool training, Matrix* pre, Matrix* hidden,
                     Matrix* logits) {
    Matrix attn_out;
    attention.Forward(tokens, anchor_tokens, bias, training, &attn_out);
    Matrix skip_out;
    skip.Forward(tokens, &skip_out);
    tensor::Axpy(1.0f, skip_out, &attn_out);
    if (pre != nullptr) *pre = attn_out;
    tensor::Relu(&attn_out);
    if (hidden != nullptr) *hidden = attn_out;
    head.Forward(attn_out, logits);
  };

  auto train_epoch = [&] {
    Matrix pre, hidden, logits;
    forward(/*training=*/true, &pre, &hidden, &logits);
    Matrix dlogits;
    const double loss =
        nn::SoftmaxCrossEntropy(logits, labels, splits.train, &dlogits);

    attention.ZeroGrad();
    skip.ZeroGrad();
    head.ZeroGrad();
    Matrix dhidden;
    head.Backward(hidden, dlogits, &dhidden);
    tensor::ReluBackward(pre, &dhidden);
    // The residual splits: one copy into the skip projection, one into
    // attention (anchor-token gradients are dropped — anchors are raw
    // feature rows, not parameters).
    skip.Backward(tokens, dhidden, nullptr);
    attention.Backward(dhidden, nullptr, nullptr);
    opt.Step();
    return loss;
  };
  auto eval_logits = [&] {
    Matrix logits;
    forward(/*training=*/false, nullptr, nullptr, &logits);
    return logits;
  };

  ModelResult result;
  result.name = gt.spd_beta != 0.0 ? "graph_transformer"
                                   : "graph_transformer_nobias";
  result.report = nn::RunEpochs(config, labels, splits.val, splits.test,
                                train_epoch, eval_logits);
  result.report.train_seconds = timer.Seconds();
  result.ops = counters.Delta();
  return result;
}

}  // namespace sgnn::models
