#ifndef SGNN_MODELS_API_H_
#define SGNN_MODELS_API_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/counters.h"
#include "graph/csr_graph.h"
#include "nn/trainer.h"
#include "tensor/matrix.h"

namespace sgnn::models {

/// Train/validation/test node splits shared by every model.
struct NodeSplits {
  std::vector<graph::NodeId> train;
  std::vector<graph::NodeId> val;
  std::vector<graph::NodeId> test;
};

/// Random split with the given fractions (remainder becomes test).
NodeSplits MakeSplits(graph::NodeId num_nodes, double train_frac,
                      double val_frac, uint64_t seed);

/// Number of classes a trainer's output layer needs: 1 + the largest
/// label. `labels` must be non-empty.
int NumClasses(std::span<const int> labels);

/// Uniform result record for the model zoo: training metrics (the report
/// `nn::RunEpochs` fills, for every model with trained weights) plus the
/// hardware-independent work counters accumulated during fit + final eval
/// (the quantities E12/E13 compare across models).
struct ModelResult {
  std::string name;
  nn::TrainReport report;
  common::OpCounters ops;
  /// The fitted classification head, populated by decoupled trainers whose
  /// inference path is "propagate, then MLP" (SGC, SIGN, PPRGo, spectral,
  /// implicit). Shared so results stay copyable; null for models whose
  /// forward pass is not a plain MLP over precomputed embeddings. This is
  /// the hook `serve::FrozenModel` freezes for online inference.
  std::shared_ptr<nn::Mlp> fitted_head;
};

}  // namespace sgnn::models

#endif  // SGNN_MODELS_API_H_
