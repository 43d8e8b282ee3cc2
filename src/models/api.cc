#include "models/api.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace sgnn::models {

NodeSplits MakeSplits(graph::NodeId num_nodes, double train_frac,
                      double val_frac, uint64_t seed) {
  SGNN_CHECK(train_frac > 0.0 && val_frac > 0.0);
  SGNN_CHECK(train_frac + val_frac < 1.0);
  common::Rng rng(seed);
  std::vector<graph::NodeId> order(num_nodes);
  for (graph::NodeId u = 0; u < num_nodes; ++u) order[u] = u;
  rng.Shuffle(&order);
  const size_t train_end =
      static_cast<size_t>(train_frac * static_cast<double>(num_nodes));
  const size_t val_end = train_end + static_cast<size_t>(
      val_frac * static_cast<double>(num_nodes));
  NodeSplits splits;
  splits.train.assign(order.begin(), order.begin() + static_cast<int64_t>(train_end));
  splits.val.assign(order.begin() + static_cast<int64_t>(train_end),
                    order.begin() + static_cast<int64_t>(val_end));
  splits.test.assign(order.begin() + static_cast<int64_t>(val_end), order.end());
  SGNN_CHECK(!splits.train.empty());
  SGNN_CHECK(!splits.val.empty());
  SGNN_CHECK(!splits.test.empty());
  return splits;
}

int NumClasses(std::span<const int> labels) {
  SGNN_CHECK(!labels.empty());
  return 1 + *std::max_element(labels.begin(), labels.end());
}

}  // namespace sgnn::models
