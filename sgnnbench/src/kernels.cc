#include "kernels.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "graph/propagate.h"
#include "par/par.h"
#include "sampling/neighbor_sampler.h"
#include "simd/simd.h"
#include "tensor/ops.h"

namespace sgnnbench {

namespace graph = sgnn::graph;
namespace tensor = sgnn::tensor;

void PipelineLayerMetrics(const sgnn::core::PipelineReport& report,
                          double wall_s, Metrics* out) {
  double model_s = 0.0;
  uint64_t edges = 0, bytes = 0;
  for (const sgnn::core::StageTiming& row : report.stages) {
    if (row.name.rfind("train:", 0) == 0) model_s += row.seconds;
    edges += row.ops.edges_touched;
    bytes += row.ops.bytes_read + row.ops.bytes_written;
  }
  const sgnn::nn::TrainReport& train = report.model.report;
  // Everything before the model starts: analytics stages plus the
  // pipeline's own bookkeeping, so a stage-free pipeline still reports
  // the time it spends outside the model.
  out->Set("core.stage_precompute_s", wall_s - model_s, "s");
  out->Set("core.stage_model_s", model_s, "s");
  out->Set("core.edges_touched", static_cast<double>(edges), "count");
  out->Set("core.bytes_moved", static_cast<double>(bytes), "bytes");
  out->Set("models.train_s", train.train_seconds, "s");
  out->Set("nn.epoch_s",
           train.epochs_run > 0 ? train.train_seconds / train.epochs_run : 0.0,
           "s");
  out->Set("test_acc", train.test_accuracy, "fraction");
}

namespace {

constexpr int64_t kHidden = 64;
constexpr int kBatchSize = 512;
constexpr int kNumBatches = 8;

/// Median wall seconds of `reps` calls of `fn`, each inside span `name`.
template <typename Fn>
double TimeMedian(const char* name, int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    Span span(name);
    fn();
    times.push_back(span.Seconds());
  }
  return Median(std::move(times));
}

void ProbeSpmm(const sgnn::core::Dataset& data, Metrics* out) {
  const int threads = sgnn::par::NumThreads();
  const double build_s = TimeMedian("graph.propagator_build", 3, [&] {
    graph::Propagator p(data.graph, graph::Normalization::kSymmetric, true);
  });
  const graph::Propagator prop(data.graph, graph::Normalization::kSymmetric,
                               /*add_self_loops=*/true);
  tensor::Matrix hop;
  const sgnn::common::OpCounters before = sgnn::common::SnapshotThreadCounters();
  prop.Apply(data.features, &hop);  // Warm-up; also bills one hop's bytes.
  const sgnn::common::OpCounters billed = sgnn::common::OpCounters::Delta(
      before, sgnn::common::SnapshotThreadCounters());
  const double hop_s = TimeMedian("graph.spmm_hop", 5,
                                  [&] { prop.Apply(data.features, &hop); });
  sgnn::par::SetThreads(1);
  const double hop_1t_s = TimeMedian("graph.spmm_hop_1thread", 3,
                                     [&] { prop.Apply(data.features, &hop); });
  sgnn::par::SetThreads(threads);
  out->Set("graph.propagator_build_s", build_s, "s");
  out->Set("graph.spmm_hop_s", hop_s, "s");
  out->Set("graph.spmm_gbps",
           static_cast<double>(billed.bytes_read + billed.bytes_written) /
               hop_s / 1e9,
           "GB/s");
  out->Set("par.spmm_speedup", hop_1t_s / hop_s, "x");
}

void ProbeGemm(const sgnn::core::Dataset& data, uint64_t seed, Metrics* out) {
  const int threads = sgnn::par::NumThreads();
  std::vector<int64_t> rows(data.splits.train.begin(), data.splits.train.end());
  const tensor::Matrix a = data.features.GatherRows(rows);
  sgnn::common::Rng rng(seed);
  const tensor::Matrix b =
      tensor::Matrix::GlorotUniform(a.cols(), kHidden, &rng);
  tensor::Matrix c;
  tensor::Gemm(a, b, &c);  // Warm-up.
  const double gemm_s =
      TimeMedian("tensor.gemm", 7, [&] { tensor::Gemm(a, b, &c); });
  sgnn::par::SetThreads(1);
  const double gemm_1t_s =
      TimeMedian("tensor.gemm_1thread", 5, [&] { tensor::Gemm(a, b, &c); });
  sgnn::par::SetThreads(threads);
  const bool was_simd = sgnn::simd::SetEnabled(false);
  const double gemm_scalar_s =
      TimeMedian("simd.gemm_scalar", 5, [&] { tensor::Gemm(a, b, &c); });
  sgnn::simd::SetEnabled(was_simd);
  const double flops = 2.0 * static_cast<double>(a.rows()) *
                       static_cast<double>(a.cols()) *
                       static_cast<double>(b.cols());
  out->Set("tensor.gemm_s", gemm_s, "s");
  out->Set("tensor.gemm_gflops", flops / gemm_s / 1e9, "GFLOP/s");
  out->Set("par.gemm_speedup", gemm_1t_s / gemm_s, "x");
  out->Set("simd.gemm_speedup", gemm_scalar_s / gemm_s, "x");
}

void ProbeSampling(const sgnn::core::Dataset& data, uint64_t seed,
                   Metrics* out) {
  const std::vector<int> fanouts = {10, 10};
  const std::vector<graph::NodeId>& train = data.splits.train;
  sgnn::common::Rng rng(seed);
  std::vector<double> times;
  double nodes = 0, edges = 0;
  for (int b = 0; b < kNumBatches; ++b) {
    const size_t begin =
        (static_cast<size_t>(b) * static_cast<size_t>(kBatchSize)) % train.size();
    const size_t len =
        std::min(static_cast<size_t>(kBatchSize), train.size() - begin);
    const std::span<const graph::NodeId> seeds(train.data() + begin, len);
    Span span("sampling.batch");
    const sgnn::sampling::MiniBatch batch =
        sgnn::sampling::SampleNodeWise(data.graph, seeds, fanouts, &rng);
    times.push_back(span.Seconds());
    nodes += static_cast<double>(batch.input_nodes().size());
    edges += static_cast<double>(batch.TotalEdges());
  }
  const double n = static_cast<double>(kNumBatches);
  out->Set("sampling.batch_s", Median(times), "s");
  out->Set("sampling.block_nodes", nodes / n, "count");
  out->Set("sampling.block_edges", edges / n, "count");
  // Distinct input nodes per sampled neighbour slot: 1 means no sharing.
  out->Set("sampling.unique_ratio", edges > 0 ? nodes / edges : 0.0,
           "fraction");
}

}  // namespace

void ProbeKernels(const sgnn::core::Dataset& data, uint64_t seed, Metrics* out) {
  ProbeSpmm(data, out);
  ProbeGemm(data, seed, out);
  ProbeSampling(data, seed, out);
}

}  // namespace sgnnbench
