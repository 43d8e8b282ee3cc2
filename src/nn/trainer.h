#ifndef SGNN_NN_TRAINER_H_
#define SGNN_NN_TRAINER_H_

#include <cstdint>
#include <functional>
#include <span>

#include "graph/types.h"
#include "nn/mlp.h"
#include "tensor/matrix.h"

namespace sgnn::nn {

/// Configuration shared by all trainers in the library.
struct TrainConfig {
  int epochs = 200;
  double lr = 0.01;
  double weight_decay = 5e-4;
  double dropout = 0.5;
  int64_t hidden_dim = 64;
  int patience = 30;      ///< Early stop after this many non-improving epochs.
  uint64_t seed = 1;
  int batch_size = 0;     ///< 0 = full batch (where applicable).
};

/// Per-run training summary.
struct TrainReport {
  double best_val_accuracy = 0.0;
  double test_accuracy = 0.0;
  double final_train_loss = 0.0;
  int epochs_run = 0;
  double train_seconds = 0.0;
};

/// The epoch loop every trainer in the library runs. Up to `config.epochs`
/// times it calls `train_epoch()`, which trains one epoch and returns its
/// loss, then `eval_logits()`, which returns inference-mode logits whose
/// rows `val_rows` and `test_rows` index (as they index `labels`). It stops
/// after `config.patience` epochs in a row without a better validation
/// accuracy, and reads test accuracy only on the epochs that improve it,
/// so the report carries the test accuracy of the best-validation epoch
/// (best weights are NOT restored) and the last epoch's loss.
/// `train_seconds` is left to the caller, whose clock also covers its
/// preprocessing.
TrainReport RunEpochs(const TrainConfig& config, std::span<const int> labels,
                      std::span<const graph::NodeId> val_rows,
                      std::span<const graph::NodeId> test_rows,
                      const std::function<double()>& train_epoch,
                      const std::function<tensor::Matrix()>& eval_logits);

/// Trains an MLP classifier on fixed (precomputed) row embeddings — the
/// decoupled-training head shared by SGC, SIGN, PPRGo, spectral and
/// implicit models: mini-batches over training rows, Adam, and `RunEpochs`
/// scoring only the val ∪ test rows each epoch. Returns the report, with
/// `train_seconds` timing this call; `mlp` ends in its final state and can
/// be used for inference via `Mlp::Forward`.
TrainReport TrainMlpOnEmbeddings(Mlp* mlp, const tensor::Matrix& embeddings,
                                 std::span<const int> labels,
                                 std::span<const graph::NodeId> train_nodes,
                                 std::span<const graph::NodeId> val_nodes,
                                 std::span<const graph::NodeId> test_nodes,
                                 const TrainConfig& config);

}  // namespace sgnn::nn

#endif  // SGNN_NN_TRAINER_H_
