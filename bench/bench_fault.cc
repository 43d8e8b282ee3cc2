// E18 — Robustness: what resilience costs and what it buys. Three series:
// (a) serving under injected embedder failure rates (0 / 1% / 10%) with a
// warm cache — degraded-mode serving turns would-be errors into stale
// serves, so goodput degrades gently rather than cliff-dropping; (b) a
// dead embedder with the circuit breaker enabled vs disabled — fast-fail
// avoids burning worker time on retry storms; (c) pipeline snapshot
// save/load bandwidth, the recurring cost a checkpoint interval pays.
// Series: req/s + degraded/failed/retry counts per failure rate; req/s
// with/without breaker; snapshot MB/s.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <future>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "nn/mlp.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"

namespace {

using sgnn::common::FaultInjector;
using sgnn::common::Status;
using sgnn::core::Dataset;
using sgnn::graph::NodeId;
using sgnn::serve::BatchingServer;
using sgnn::serve::FrozenModel;
using sgnn::serve::InferenceRequest;
using sgnn::serve::InferenceResponse;
using sgnn::serve::ServeConfig;
using sgnn::serve::ServeMetricsSnapshot;

constexpr int64_t kEmbedDim = 16;
constexpr NodeId kNodes = 10000;

FrozenModel BenchModel() {
  sgnn::common::Rng rng(21);
  sgnn::nn::Mlp mlp({kEmbedDim, 32, 4}, /*dropout=*/0.0, &rng);
  return FrozenModel::FromMlp(mlp);
}

void FillEmbedding(NodeId node, std::span<float> out) {
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = 0.001f * static_cast<float>(node) + static_cast<float>(j);
  }
}

sgnn::tensor::Matrix WarmEmbeddings() {
  sgnn::tensor::Matrix warm(kNodes, kEmbedDim);
  for (NodeId u = 0; u < kNodes; ++u) FillEmbedding(u, warm.Row(u));
  return warm;
}

// (a) Throughput as the injected per-call failure probability rises.
// Arg = failure rate in permille.
void BM_ServeUnderFaults(benchmark::State& state) {
  const double fail_rate = static_cast<double>(state.range(0)) / 1000.0;
  FaultInjector faults(0xbe7c);
  faults.Arm("serve.embed", fail_rate);

  ServeConfig config;
  config.max_batch = 32;
  config.max_delay_micros = 200;
  config.queue_capacity = 1 << 14;
  config.num_workers = 4;
  config.max_staleness = 4;  // Recompute often: misses hit the embedder.
  config.embed_retry.max_attempts = 2;
  config.embed_retry.base_backoff_micros = 20;

  BatchingServer server(
      BenchModel(),
      [&faults](NodeId u, std::span<float> out) {
        SGNN_RETURN_IF_ERROR(faults.MaybeFail("serve.embed", u));
        FillEmbedding(u, out);
        return Status::OK();
      },
      kNodes, config);
  server.WarmCache(WarmEmbeddings());

  const uint64_t hot_set = kNodes / 20;
  sgnn::common::Rng rng(7);
  constexpr int kRequestsPerIter = 256;
  int64_t served = 0;
  for (auto _ : state) {
    std::vector<std::future<InferenceResponse>> futures;
    futures.reserve(kRequestsPerIter);
    for (int i = 0; i < kRequestsPerIter; ++i) {
      auto future_or =
          server.Submit(
              InferenceRequest(static_cast<NodeId>(rng.UniformInt(hot_set))));
      if (future_or.ok()) futures.push_back(std::move(future_or).value());
    }
    for (auto& future : futures) future.get();
    served += static_cast<int64_t>(futures.size());
  }
  server.Shutdown();

  const ServeMetricsSnapshot snap = server.Metrics();
  state.SetItemsProcessed(served);
  state.counters["degraded"] =
      static_cast<double>(snap.health.degraded_serves);
  state.counters["failed"] = static_cast<double>(snap.health.failed_requests);
  state.counters["retries"] = static_cast<double>(snap.health.retries);
  state.counters["embed_failures"] =
      static_cast<double>(snap.health.embed_failures);
}
BENCHMARK(BM_ServeUnderFaults)
    ->Arg(0)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// (b) Embedder fully down: the breaker's fast-fail path vs a retry storm.
// Arg = 1 enables the breaker (realistic config), 0 disables it.
void BM_DeadEmbedderBreaker(benchmark::State& state) {
  const bool breaker_on = state.range(0) != 0;

  ServeConfig config;
  config.max_batch = 32;
  config.max_delay_micros = 200;
  config.queue_capacity = 1 << 14;
  config.num_workers = 4;
  // Warm rows are stale: every serve is a miss, and still succeeds
  // (degraded).
  config.max_staleness = 0;
  config.embed_retry.max_attempts = 3;
  config.embed_retry.base_backoff_micros = 50;
  config.breaker.failure_threshold = breaker_on ? 8 : (1 << 30);
  config.breaker.probe_interval = 64;

  BatchingServer server(
      BenchModel(),
      [](NodeId, std::span<float>) {
        return Status::Unavailable("embedder down");
      },
      kNodes, config);
  server.WarmCache(WarmEmbeddings());

  sgnn::common::Rng rng(11);
  constexpr int kRequestsPerIter = 256;
  int64_t served = 0;
  for (auto _ : state) {
    std::vector<std::future<InferenceResponse>> futures;
    futures.reserve(kRequestsPerIter);
    for (int i = 0; i < kRequestsPerIter; ++i) {
      auto future_or =
          server.Submit(
              InferenceRequest(static_cast<NodeId>(rng.UniformInt(kNodes))));
      if (future_or.ok()) futures.push_back(std::move(future_or).value());
    }
    for (auto& future : futures) future.get();
    served += static_cast<int64_t>(futures.size());
  }
  server.Shutdown();

  const ServeMetricsSnapshot snap = server.Metrics();
  state.SetItemsProcessed(served);
  state.counters["fast_fails"] =
      static_cast<double>(snap.health.breaker_fast_fails);
  state.counters["embed_failures"] =
      static_cast<double>(snap.health.embed_failures);
  state.counters["degraded"] =
      static_cast<double>(snap.health.degraded_serves);
}
BENCHMARK(BM_DeadEmbedderBreaker)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// (c) Snapshot save + load round-trip: the recurring write cost a
// checkpoint interval amortises (compare against the closed-form optimum
// in `PlanCheckpoints`).
void BM_SnapshotRoundTrip(benchmark::State& state) {
  const Dataset d = sgnn::bench::MakeBenchDataset(
      static_cast<NodeId>(state.range(0)), 4, 16.0, 0.85, 13);
  sgnn::core::PipelineSnapshot snap;
  snap.signature = 42;
  snap.stages_done = 1;
  snap.stages.push_back({"edit:bench", 0.5, {}});
  snap.graph = d.graph;
  snap.features = d.features;

  const std::string path =
      (std::filesystem::temp_directory_path() / "sgnn_bench_snap.bin")
          .string();
  int64_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sgnn::core::SaveSnapshot(snap, path));
    auto loaded = sgnn::core::LoadSnapshot(path, 42);
    benchmark::DoNotOptimize(loaded);
    bytes += static_cast<int64_t>(std::filesystem::file_size(path));
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(bytes);  // Save-side volume; load adds as much.
  state.counters["snapshot_mb"] = static_cast<double>(bytes) /
                                  static_cast<double>(state.iterations()) /
                                  (1024.0 * 1024.0);
}
BENCHMARK(BM_SnapshotRoundTrip)
    ->Arg(5000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
