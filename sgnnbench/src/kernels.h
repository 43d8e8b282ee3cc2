// In-process layer probes of sgnn-bench: pipeline stage rows (core,
// models, nn) and single kernels (graph, par, tensor/simd, sampling) timed
// on a workload's own inputs.

#ifndef SGNNBENCH_KERNELS_H_
#define SGNNBENCH_KERNELS_H_

#include <cstdint>

#include "core/dataset.h"
#include "core/pipeline.h"
#include "harness.h"

namespace sgnnbench {

/// Per-layer rows of one finished `Pipeline::Run` that took `wall_s`:
/// core.*, models.train_s, nn.epoch_s and test_acc.
void PipelineLayerMetrics(const sgnn::core::PipelineReport& report,
                          double wall_s, Metrics* out);

/// graph.*, par.*, tensor.*, simd.* and sampling.* on `data`: one SpMM
/// hop over the features, the training GEMM (train rows x features) *
/// (features x 64), and node-wise sampling of 512-seed batches with
/// fanouts {10,10}.
void ProbeKernels(const sgnn::core::Dataset& data, uint64_t seed, Metrics* out);

}  // namespace sgnnbench

#endif  // SGNNBENCH_KERNELS_H_
