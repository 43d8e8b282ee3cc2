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

/// Rows 0..n-1 of `m` (dst prefix of a block's src representation).
Matrix Prefix(const Matrix& m, int64_t n) {
  Matrix out(n, m.cols());
  std::copy(m.data(), m.data() + n * m.cols(), out.data());
  return out;
}

}  // namespace

double SageModel::TrainStep(const MiniBatch& batch,
                            const Matrix& input_features,
                            std::span<const int> seed_labels,
                            common::Rng* rng) {
  SGNN_CHECK_EQ(batch.layers.size(), self_.size());
  SGNN_CHECK_EQ(input_features.rows(),
                static_cast<int64_t>(batch.input_nodes().size()));
  const size_t num_layers = self_.size();

  // Resident-activation accounting (E13): a sampled step keeps one
  // activation (and one gradient) row per sampled source per layer.
  uint64_t resident = static_cast<uint64_t>(input_features.size());
  for (size_t l = 0; l < num_layers; ++l) {
    resident += 2 * static_cast<uint64_t>(batch.layers[l].src.size()) *
                static_cast<uint64_t>(self_[l].out_dim());
  }
  common::GlobalCounters().Acquire(resident);

  // Forward with caches. Each layer reads its input (rows = src) in place.
  std::vector<Matrix> h_self;     // dst prefix per layer.
  std::vector<Matrix> agg;        // Aggregated neighbours per layer.
  std::vector<Matrix> pre;        // Pre-activation per layer.
  std::vector<Matrix> masks;      // Dropout masks per non-final layer.
  const Matrix* in = &input_features;
  Matrix cur;
  for (size_t l = 0; l < num_layers; ++l) {
    const LayerSample& layer = batch.layers[l];
    SGNN_CHECK_EQ(in->rows(), static_cast<int64_t>(layer.src.size()));
    const int64_t num_dst = static_cast<int64_t>(layer.dst.size());
    h_self.push_back(Prefix(*in, num_dst));
    agg.emplace_back(num_dst, in->cols());
    graph::SpmmRows(layer, {0, num_dst}, *in, &agg.back());
    Matrix out_self, out_nbr;
    self_[l].Forward(h_self.back(), &out_self);
    nbr_[l].Forward(agg.back(), &out_nbr);
    tensor::Axpy(1.0f, out_nbr, &out_self);
    const bool is_last = (l + 1 == num_layers);
    if (!is_last) {
      pre.push_back(out_self);
      tensor::Relu(&out_self);
      Matrix mask;
      nn::DropoutForward(dropout_, rng, &out_self, &mask);
      masks.push_back(std::move(mask));
    }
    cur = std::move(out_self);
    in = &cur;
  }

  // Loss over all seeds.
  std::vector<NodeId> rows(batch.seeds().size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<NodeId>(i);
  Matrix dout;
  const double loss =
      nn::SoftmaxCrossEntropy(cur, seed_labels, rows, &dout);

  // Backward.
  for (size_t l = num_layers; l-- > 0;) {
    const LayerSample& layer = batch.layers[l];
    const bool is_last = (l + 1 == num_layers);
    if (!is_last) {
      nn::DropoutBackward(masks[l], &dout);
      tensor::ReluBackward(pre[l], &dout);
    }
    // Layer 0's input is the gathered raw features, which are not trained,
    // so its input gradient is never formed.
    const bool need_dinput = l > 0;
    Matrix dself, dagg;
    self_[l].Backward(h_self[l], dout, need_dinput ? &dself : nullptr);
    nbr_[l].Backward(agg[l], dout, need_dinput ? &dagg : nullptr);
    if (!need_dinput) break;
    // d(input rep): self path hits the dst prefix; aggregation transposes
    // onto sampled sources.
    Matrix dinput(static_cast<int64_t>(layer.src.size()), dself.cols());
    std::copy(dself.data(),
              dself.data() + dself.rows() * dself.cols(), dinput.data());
    graph::SpmmTransposeRows(layer, {0, dagg.rows()}, dagg, &dinput);
    dout = std::move(dinput);
  }
  common::GlobalCounters().Release(resident);
  return loss;
}

Matrix SageModel::Predict(const graph::CsrGraph& graph, const Matrix& x) {
  // Exact mean aggregation: D^-1 A without self loops.
  graph::Propagator mean_prop(graph, graph::Normalization::kRow,
                              /*add_self_loops=*/false);
  Matrix cur = x;
  for (size_t l = 0; l < self_.size(); ++l) {
    Matrix aggregated;
    mean_prop.Apply(cur, &aggregated);
    Matrix out_self, out_nbr;
    self_[l].Forward(cur, &out_self);
    nbr_[l].Forward(aggregated, &out_nbr);
    tensor::Axpy(1.0f, out_nbr, &out_self);
    if (l + 1 < self_.size()) tensor::Relu(&out_self);
    cur = std::move(out_self);
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
  const int num_classes =
      1 + *std::max_element(labels.begin(), labels.end());
  common::ScopedCounterDelta counters;
  common::WallTimer timer;
  common::Rng rng(config.seed);

  // dims = {in, hidden x (L-1), out} with L = fanouts.size().
  std::vector<int64_t> dims = {x.cols()};
  for (size_t l = 0; l + 1 < sage.fanouts.size(); ++l) {
    dims.push_back(config.hidden_dim);
  }
  dims.push_back(num_classes);
  SGNN_CHECK_EQ(dims.size(), sage.fanouts.size() + 1);

  SageModel model(dims, config.dropout, &rng);
  nn::Adam opt(model.Params(), config.lr, 0.9, 0.999, 1e-8,
               config.weight_decay);
  EarlyStopTracker tracker(config.patience);

  const size_t batch_size =
      config.batch_size > 0 ? static_cast<size_t>(config.batch_size) : 64;
  std::vector<NodeId> order(splits.train.begin(), splits.train.end());

  ModelResult result;
  result.name = sage.use_labor ? "sage_labor" : "sage";
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
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
      std::vector<int64_t> gather(batch.input_nodes().begin(),
                                  batch.input_nodes().end());
      Matrix input = x.GatherRows(gather);
      std::vector<int> seed_labels(seeds.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        seed_labels[i] = labels[seeds[i]];
      }
      model.ZeroGrad();
      epoch_loss += model.TrainStep(batch, input, seed_labels, &rng);
      opt.Step();
      ++num_batches;
    }
    result.report.final_train_loss =
        epoch_loss / static_cast<double>(num_batches);
    result.report.epochs_run = epoch + 1;

    Matrix logits = model.Predict(graph, x);
    const double val = nn::Accuracy(logits, labels, splits.val);
    const double test = nn::Accuracy(logits, labels, splits.test);
    if (tracker.Update(val, test)) break;
  }
  result.report.best_val_accuracy = tracker.best_val();
  result.report.test_accuracy = tracker.test_at_best();
  result.report.train_seconds = timer.Seconds();
  result.ops = counters.Delta();
  return result;
}

}  // namespace sgnn::models
