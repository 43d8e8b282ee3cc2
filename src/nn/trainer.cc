#include "nn/trainer.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/counters.h"
#include "common/timer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace sgnn::nn {

using graph::NodeId;
using tensor::Matrix;

TrainReport RunEpochs(const TrainConfig& config, std::span<const int> labels,
                      std::span<const NodeId> val_rows,
                      std::span<const NodeId> test_rows,
                      const std::function<double()>& train_epoch,
                      const std::function<Matrix()>& eval_logits) {
  TrainReport report;
  int since_best = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    report.final_train_loss = train_epoch();
    report.epochs_run = epoch + 1;
    const Matrix logits = eval_logits();
    const double val_acc = Accuracy(logits, labels, val_rows);
    if (val_acc > report.best_val_accuracy) {
      report.best_val_accuracy = val_acc;
      report.test_accuracy = Accuracy(logits, labels, test_rows);
      since_best = 0;
    } else if (++since_best >= config.patience) {
      break;
    }
  }
  return report;
}

TrainReport TrainMlpOnEmbeddings(Mlp* mlp, const Matrix& embeddings,
                                 std::span<const int> labels,
                                 std::span<const NodeId> train_nodes,
                                 std::span<const NodeId> val_nodes,
                                 std::span<const NodeId> test_nodes,
                                 const TrainConfig& config) {
  SGNN_CHECK(mlp != nullptr);
  SGNN_CHECK(!train_nodes.empty());
  SGNN_CHECK(!val_nodes.empty());
  SGNN_CHECK(!test_nodes.empty());
  common::Rng rng(config.seed);
  Adam opt(mlp->Params(), config.lr, config.weight_decay);
  common::WallTimer timer;

  std::vector<NodeId> order(train_nodes.begin(), train_nodes.end());
  const size_t batch =
      config.batch_size > 0 ? static_cast<size_t>(config.batch_size)
                            : order.size();

  // Validation reads only val ∪ test, so each pass forwards just those
  // rows, val first, gathered per pass so no copy outlives it. GEMM rows
  // are independent: the logits equal those rows of whole-matrix inference.
  std::vector<int64_t> eval_nodes(val_nodes.begin(), val_nodes.end());
  eval_nodes.insert(eval_nodes.end(), test_nodes.begin(), test_nodes.end());
  std::vector<int> eval_labels(eval_nodes.size());
  std::vector<NodeId> eval_rows(eval_nodes.size());
  for (size_t i = 0; i < eval_nodes.size(); ++i) {
    eval_labels[i] = labels[static_cast<size_t>(eval_nodes[i])];
    eval_rows[i] = static_cast<NodeId>(i);
  }
  const std::span<const NodeId> val_rows =
      std::span<const NodeId>(eval_rows).first(val_nodes.size());
  const std::span<const NodeId> test_rows =
      std::span<const NodeId>(eval_rows).subspan(val_nodes.size());

  auto train_epoch = [&] {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < order.size(); start += batch) {
      const size_t end = std::min(order.size(), start + batch);
      std::vector<int64_t> gather(order.begin() + static_cast<int64_t>(start),
                                  order.begin() + static_cast<int64_t>(end));
      Matrix x = embeddings.GatherRows(gather);
      std::vector<int> batch_labels(gather.size());
      std::vector<NodeId> batch_rows(gather.size());
      for (size_t i = 0; i < gather.size(); ++i) {
        batch_labels[i] = labels[static_cast<size_t>(gather[i])];
        batch_rows[i] = static_cast<NodeId>(i);
      }
      // Resident accounting: batch features + per-layer activations and
      // gradients. The decoupled design's memory story is exactly that
      // this is O(batch), not O(n).
      const uint64_t resident = static_cast<uint64_t>(
          x.size() + 2 * x.rows() * (config.hidden_dim + mlp->out_dim()));
      common::GlobalCounters().Acquire(resident);
      Matrix logits;
      mlp->Forward(x, /*training=*/true, &rng, &logits);
      Matrix dlogits;
      epoch_loss +=
          SoftmaxCrossEntropy(logits, batch_labels, batch_rows, &dlogits);
      ++batches;
      mlp->ZeroGrad();
      mlp->Backward(dlogits, nullptr);
      opt.Step();
      common::GlobalCounters().Release(resident);
    }
    return epoch_loss / static_cast<double>(batches);
  };
  auto eval_logits = [&] {
    Matrix logits;
    mlp->Forward(embeddings.GatherRows(eval_nodes), /*training=*/false,
                 nullptr, &logits);
    return logits;
  };
  TrainReport report = RunEpochs(config, eval_labels, val_rows, test_rows,
                                 train_epoch, eval_logits);
  report.train_seconds = timer.Seconds();
  return report;
}

}  // namespace sgnn::nn
