#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sgnn::nn {

using tensor::Matrix;

double SoftmaxCrossEntropy(const Matrix& logits, std::span<const int> labels,
                           std::span<const graph::NodeId> rows,
                           Matrix* dlogits, std::span<const float> weights) {
  SGNN_CHECK_EQ(labels.size(), static_cast<size_t>(logits.rows()));
  SGNN_CHECK(!rows.empty());
  const double inv_count = 1.0 / static_cast<double>(rows.size());
  double total_weight = 0.0;
  if (!weights.empty()) {
    SGNN_CHECK_EQ(rows.size(), weights.size());
    for (float w : weights) {
      SGNN_CHECK_GE(w, 0.0f);
      total_weight += w;
    }
    SGNN_CHECK_GT(total_weight, 0.0);
  }
  if (dlogits != nullptr) dlogits->Reset(logits.rows(), logits.cols());
  double loss = 0.0;
  std::vector<double> probs(static_cast<size_t>(logits.cols()));
  for (size_t i = 0; i < rows.size(); ++i) {
    const graph::NodeId r = rows[i];
    const double w =
        weights.empty() ? inv_count : weights[i] / total_weight;
    if (w == 0.0) continue;
    SGNN_CHECK_LT(static_cast<int64_t>(r), logits.rows());
    const int label = labels[r];
    SGNN_CHECK(label >= 0 && label < logits.cols());
    auto row = logits.Row(static_cast<int64_t>(r));
    const float mx = *std::max_element(row.begin(), row.end());
    double sum = 0.0;
    for (int64_t c = 0; c < logits.cols(); ++c) {
      probs[static_cast<size_t>(c)] =
          std::exp(static_cast<double>(row[c] - mx));
      sum += probs[static_cast<size_t>(c)];
    }
    loss -= std::log(probs[static_cast<size_t>(label)] / sum) * w;
    if (dlogits != nullptr) {
      auto drow = dlogits->Row(static_cast<int64_t>(r));
      for (int64_t c = 0; c < logits.cols(); ++c) {
        const double p = probs[static_cast<size_t>(c)] / sum;
        drow[c] += static_cast<float>((p - (c == label ? 1.0 : 0.0)) * w);
      }
    }
  }
  return loss;
}

double Accuracy(const Matrix& logits, std::span<const int> labels,
                std::span<const graph::NodeId> rows) {
  SGNN_CHECK(!rows.empty());
  int64_t correct = 0;
  for (graph::NodeId r : rows) {
    auto row = logits.Row(static_cast<int64_t>(r));
    const int64_t pred =
        std::max_element(row.begin(), row.end()) - row.begin();
    if (pred == labels[r]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(rows.size());
}

double MacroF1(const Matrix& logits, std::span<const int> labels,
               std::span<const graph::NodeId> rows, int num_classes) {
  SGNN_CHECK(!rows.empty());
  SGNN_CHECK_GT(num_classes, 0);
  std::vector<int64_t> tp(static_cast<size_t>(num_classes), 0);
  std::vector<int64_t> fp(static_cast<size_t>(num_classes), 0);
  std::vector<int64_t> fn(static_cast<size_t>(num_classes), 0);
  for (graph::NodeId r : rows) {
    auto row = logits.Row(static_cast<int64_t>(r));
    const int pred = static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin());
    const int truth = labels[r];
    if (pred == truth) {
      tp[static_cast<size_t>(truth)]++;
    } else {
      fp[static_cast<size_t>(pred)]++;
      fn[static_cast<size_t>(truth)]++;
    }
  }
  double f1_sum = 0.0;
  for (int c = 0; c < num_classes; ++c) {
    const double precision_den =
        static_cast<double>(tp[static_cast<size_t>(c)] + fp[static_cast<size_t>(c)]);
    const double recall_den =
        static_cast<double>(tp[static_cast<size_t>(c)] + fn[static_cast<size_t>(c)]);
    if (precision_den == 0.0 || recall_den == 0.0) continue;
    const double precision = tp[static_cast<size_t>(c)] / precision_den;
    const double recall = tp[static_cast<size_t>(c)] / recall_den;
    if (precision + recall > 0.0) {
      f1_sum += 2.0 * precision * recall / (precision + recall);
    }
  }
  return f1_sum / num_classes;
}

}  // namespace sgnn::nn
