#ifndef SGNN_NN_LOSS_H_
#define SGNN_NN_LOSS_H_

#include <span>
#include <vector>

#include "graph/types.h"
#include "tensor/matrix.h"

namespace sgnn::nn {

/// Masked softmax cross-entropy over the rows listed in `rows` (distinct
/// node ids into `logits`/`labels`). Row `rows[i]` has weight
/// `weights[i] / sum(weights)` (GraphSAINT-style inclusion-probability
/// normalisation), or 1/|rows| when `weights` is empty. Returns the
/// weighted loss and writes d(loss)/d(logits) into `dlogits`, which is
/// reset to the shape of `logits` (zero outside `rows`); `dlogits` may be
/// null for evaluation. A non-empty `weights` must align with `rows`, be
/// non-negative and hold at least one positive entry.
double SoftmaxCrossEntropy(const tensor::Matrix& logits,
                           std::span<const int> labels,
                           std::span<const graph::NodeId> rows,
                           tensor::Matrix* dlogits,
                           std::span<const float> weights = {});

/// Accuracy of argmax predictions over the listed rows.
double Accuracy(const tensor::Matrix& logits, std::span<const int> labels,
                std::span<const graph::NodeId> rows);

/// Macro-averaged F1 over the listed rows with `num_classes` classes.
double MacroF1(const tensor::Matrix& logits, std::span<const int> labels,
               std::span<const graph::NodeId> rows, int num_classes);

}  // namespace sgnn::nn

#endif  // SGNN_NN_LOSS_H_
