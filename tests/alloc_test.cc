// Steady-state allocation checks. The binary links alloc_tracker.cc, which
// replaces global operator new and records the largest single request, on
// any thread, since the last reset.
//
// GraphSAGE's sampled step keeps its matrices in a workspace whose
// capacity outlives the step. Once the workspace has seen a batch, a step
// on that batch, or on a smaller one, makes no single allocation of
// 64 KiB or more. Every per-layer matrix of the batch below is larger than
// that, so a step that allocated any of them afresh fails; the weight-
// shaped gradient temporaries of `nn::Linear` stay far below it.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "alloc_tracker.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "models/sage.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/matrix.h"

namespace sgnn {
namespace {

using graph::NodeId;
using tensor::Matrix;

constexpr size_t kLargeAlloc = size_t{64} << 10;

struct Batch {
  sampling::MiniBatch blocks;
  std::vector<int> labels;
};

/// Seeds every `stride`-th node: at stride 3, 2000 seeds, so the loss
/// gradient (2000 x 16 floats) is the smallest per-layer matrix at 125 KiB.
Batch SampleBatch(const graph::SbmGraph& sbm, NodeId stride, uint64_t seed) {
  Batch batch;
  std::vector<NodeId> seeds;
  for (NodeId u = 0; u < sbm.graph.num_nodes(); u += stride) {
    seeds.push_back(u);
    batch.labels.push_back(sbm.labels[u]);
  }
  common::Rng rng(seed);
  const std::vector<int> fanouts = {5, 5};
  batch.blocks = sampling::SampleNodeWise(sbm.graph, seeds, fanouts, &rng);
  return batch;
}

TEST(SageSteadyStateTest, RepeatedTrainStepMakesNoLargeAllocation) {
  const graph::SbmGraph sbm = graph::StochasticBlockModel(
      graph::SbmConfig{.num_nodes = 6000, .num_classes = 16,
                       .avg_degree = 10, .homophily = 0.8},
      7);
  common::Rng rng(8);
  const Matrix features =
      Matrix::Gaussian(sbm.graph.num_nodes(), 32, 0.0f, 1.0f, &rng);
  models::SageModel model({32, 32, 16}, 0.5, &rng);
  const Batch large = SampleBatch(sbm, 3, 9);
  const Batch small = SampleBatch(sbm, 4, 10);

  model.ZeroGrad();
  model.TrainStep(large.blocks, features, large.labels, &rng);
  alloc_tracker::ResetLargest();
  for (int step = 0; step < 3; ++step) {
    model.ZeroGrad();
    model.TrainStep(large.blocks, features, large.labels, &rng);
  }
  EXPECT_LT(alloc_tracker::Largest(), kLargeAlloc) << "on the same batch";

  alloc_tracker::ResetLargest();
  model.ZeroGrad();
  model.TrainStep(small.blocks, features, small.labels, &rng);
  EXPECT_LT(alloc_tracker::Largest(), kLargeAlloc) << "on a smaller batch";

  // Releasing the workspace makes the next step allocate it again.
  model.ReleaseWorkspace();
  alloc_tracker::ResetLargest();
  model.ZeroGrad();
  model.TrainStep(large.blocks, features, large.labels, &rng);
  EXPECT_GE(alloc_tracker::Largest(), kLargeAlloc);
}

}  // namespace
}  // namespace sgnn
