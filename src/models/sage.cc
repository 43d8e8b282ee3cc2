#include "models/sage.h"

#include <algorithm>

#include "common/check.h"
#include "common/counters.h"
#include "common/timer.h"
#include "graph/propagate.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/ops.h"

namespace sgnn::models {

using graph::NodeId;
using sampling::LayerSample;
using sampling::MiniBatch;
using tensor::Matrix;

SageModel::SageModel(const std::vector<int64_t>& dims, double dropout,
                     common::Rng* rng)
    : dropout_(dropout) {
  SGNN_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    self_.emplace_back(dims[i], dims[i + 1], rng);
    nbr_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

namespace {

/// Rows 0..n-1 of `m` (the dst prefix of a block's src rows) into `out`,
/// reset in place.
void CopyPrefix(const Matrix& m, int64_t n, Matrix* out) {
  out->Reset(n, m.cols());
  std::copy_n(m.data(), n * m.cols(), out->data());
}

}  // namespace

double SageModel::TrainStep(const MiniBatch& batch, const Matrix& features,
                            std::span<const int> seed_labels,
                            common::Rng* rng) {
  SGNN_CHECK_EQ(batch.layers.size(), self_.size());
  const size_t num_layers = self_.size();
  // Layer 0 reads `features` by global id; the view checks every input id.
  const sampling::GlobalSourceRows inputs(batch.layers.front(),
                                          features.rows());

  // Resident-activation accounting (E13): a sampled step keeps the input
  // rows it reads, and one activation (and one gradient) row per sampled
  // source per layer.
  uint64_t resident = static_cast<uint64_t>(batch.input_nodes().size()) *
                      static_cast<uint64_t>(features.cols());
  for (size_t l = 0; l < num_layers; ++l) {
    resident += 2 * static_cast<uint64_t>(batch.layers[l].src.size()) *
                static_cast<uint64_t>(self_[l].out_dim());
  }
  common::GlobalCounters().Acquire(resident);

  // Forward, caching each layer's matrices in the workspace.
  ws_.layers.resize(num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    const LayerSample& layer = batch.layers[l];
    LayerWorkspace& w = ws_.layers[l];
    const int64_t num_dst = static_cast<int64_t>(layer.dst.size());
    if (l == 0) {
      features.GatherRowsInto<NodeId>(layer.dst, &w.h_self);
      w.agg.Reset(num_dst, features.cols());
      graph::SpmmRows(inputs, {0, num_dst}, features, &w.agg);
    } else {
      const Matrix& in = ws_.layers[l - 1].out;
      SGNN_CHECK_EQ(in.rows(), static_cast<int64_t>(layer.src.size()));
      CopyPrefix(in, num_dst, &w.h_self);
      w.agg.Reset(num_dst, in.cols());
      graph::SpmmRows(layer, {0, num_dst}, in, &w.agg);
    }
    self_[l].Forward(w.h_self, &w.out);
    nbr_[l].Forward(w.agg, &ws_.out_nbr);
    tensor::Axpy(1.0f, ws_.out_nbr, &w.out);
    if (l + 1 < num_layers) {
      w.pre = w.out;
      tensor::Relu(&w.out);
      nn::DropoutForward(dropout_, rng, &w.out, &w.mask);
    }
  }

  // Loss over all seeds.
  LayerWorkspace& top = ws_.layers.back();
  std::vector<NodeId> rows(batch.seeds().size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<NodeId>(i);
  const double loss =
      nn::SoftmaxCrossEntropy(top.out, seed_labels, rows, &top.dout);

  // Backward.
  for (size_t l = num_layers; l-- > 0;) {
    const LayerSample& layer = batch.layers[l];
    LayerWorkspace& w = ws_.layers[l];
    if (l + 1 < num_layers) {
      nn::DropoutBackward(w.mask, &w.dout);
      tensor::ReluBackward(w.pre, &w.dout);
    }
    // Layer 0's input is the raw feature matrix, which is not trained, so
    // its input gradient is never formed.
    const bool need_dinput = l > 0;
    self_[l].Backward(w.h_self, w.dout, need_dinput ? &ws_.dself : nullptr);
    nbr_[l].Backward(w.agg, w.dout, need_dinput ? &ws_.dagg : nullptr);
    if (!need_dinput) break;
    // d(input rep), the gradient of layer l-1's output: the self path hits
    // the dst prefix; the aggregation transposes onto sampled sources.
    Matrix& dinput = ws_.layers[l - 1].dout;
    dinput.Reset(static_cast<int64_t>(layer.src.size()), ws_.dself.cols());
    std::copy_n(ws_.dself.data(), ws_.dself.size(), dinput.data());
    graph::SpmmTransposeRows(layer, {0, ws_.dagg.rows()}, ws_.dagg, &dinput);
  }
  common::GlobalCounters().Release(resident);
  return loss;
}

Matrix SageModel::Predict(const graph::Propagator& mean_prop,
                          const Matrix& x) const {
  SGNN_CHECK(mean_prop.normalization() == graph::Normalization::kRow);
  SGNN_CHECK(!mean_prop.self_loops());
  // Each layer reads its input in place.
  const Matrix* in = &x;
  Matrix cur, aggregated, out_nbr;
  for (size_t l = 0; l < self_.size(); ++l) {
    mean_prop.Apply(*in, &aggregated);
    Matrix out_self;
    self_[l].Forward(*in, &out_self);
    nbr_[l].Forward(aggregated, &out_nbr);
    tensor::Axpy(1.0f, out_nbr, &out_self);
    if (l + 1 < self_.size()) tensor::Relu(&out_self);
    cur = std::move(out_self);
    in = &cur;
  }
  return cur;
}

void SageModel::ZeroGrad() {
  for (auto& layer : self_) layer.ZeroGrad();
  for (auto& layer : nbr_) layer.ZeroGrad();
}

std::vector<nn::ParamRef> SageModel::Params() {
  std::vector<nn::ParamRef> params;
  for (auto& layer : self_) {
    for (const auto& p : layer.Params()) params.push_back(p);
  }
  for (auto& layer : nbr_) {
    for (const auto& p : layer.Params()) params.push_back(p);
  }
  return params;
}

ModelResult TrainSage(const graph::CsrGraph& graph, const Matrix& x,
                      std::span<const int> labels, const NodeSplits& splits,
                      const nn::TrainConfig& config, const SageConfig& sage) {
  SGNN_CHECK(!sage.fanouts.empty());
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  common::Rng rng(config.seed);

  // dims = {in, hidden x (L-1), out} with L = fanouts.size().
  std::vector<int64_t> dims = {x.cols()};
  for (size_t l = 0; l + 1 < sage.fanouts.size(); ++l) {
    dims.push_back(config.hidden_dim);
  }
  dims.push_back(NumClasses(labels));
  SGNN_CHECK_EQ(dims.size(), sage.fanouts.size() + 1);

  SageModel model(dims, config.dropout, &rng);
  // Exact mean aggregation for full-graph inference: D^-1 A without self
  // loops, built once per run.
  const graph::Propagator mean_prop(graph, graph::Normalization::kRow,
                                    /*add_self_loops=*/false);
  nn::Adam opt(model.Params(), config.lr, config.weight_decay);

  const size_t batch_size =
      config.batch_size > 0 ? static_cast<size_t>(config.batch_size) : 64;
  std::vector<NodeId> order(splits.train.begin(), splits.train.end());

  auto train_epoch = [&] {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t num_batches = 0;
    for (size_t start = 0; start < order.size(); start += batch_size) {
      const size_t end = std::min(order.size(), start + batch_size);
      std::vector<NodeId> seeds(order.begin() + static_cast<int64_t>(start),
                                order.begin() + static_cast<int64_t>(end));
      MiniBatch batch =
          sage.use_labor
              ? sampling::SampleLabor(graph, seeds, sage.fanouts, &rng)
              : sampling::SampleNodeWise(graph, seeds, sage.fanouts, &rng);
      std::vector<int> seed_labels(seeds.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        seed_labels[i] = labels[seeds[i]];
      }
      model.ZeroGrad();
      epoch_loss += model.TrainStep(batch, x, seed_labels, &rng);
      opt.Step();
      ++num_batches;
    }
    return epoch_loss / static_cast<double>(num_batches);
  };
  auto eval_logits = [&] {
    // The workspace holds the epoch's largest block; free it before
    // inference allocates graph-sized activations.
    model.ReleaseWorkspace();
    return model.Predict(mean_prop, x);
  };

  ModelResult result;
  result.name = sage.use_labor ? "sage_labor" : "sage";
  result.report = nn::RunEpochs(config, labels, splits.val, splits.test,
                                train_epoch, eval_logits);
  result.report.train_seconds = timer.Seconds();
  result.ops = counters.Delta();
  return result;
}

}  // namespace sgnn::models
