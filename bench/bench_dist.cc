// E23 — Crash-tolerant distributed execution (sgnn::dist): wall time of
// real multi-process partition-parallel propagation across worker counts,
// the measured halo wire bytes next to E15's *simulated* communication
// volume on the same partition (the simulator's honesty check), and the
// cost of surviving an injected mid-epoch worker kill — measured recovery
// overhead next to the Young-approximation prediction E15's checkpoint
// planner makes from the same failure rate.
//
// `bench_dist --smoke` runs a seconds-scale correctness pass instead for
// CI: bit-identity against the single-process Propagator at worker counts
// {1, 2, 4}, bit-identity again under a seeded kill schedule, and the
// measured halo bytes within 10% of the simulated volume.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/distributed_sim.h"
#include "core/run_context.h"
#include "dist/coordinator.h"
#include "dist/frame.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "partition/partition.h"
#include "tensor/matrix.h"

namespace {

using sgnn::graph::CsrGraph;
using sgnn::graph::NodeId;
using sgnn::partition::Partition;
using sgnn::tensor::Matrix;
namespace core = sgnn::core;
namespace dist = sgnn::dist;

constexpr int kFeatureDim = 32;
constexpr int kHops = 2;

/// Scale-free graph shared by every benchmark in the binary.
const CsrGraph& BigGraph() {
  static CsrGraph* graph = new CsrGraph(sgnn::graph::Rmat(
      NodeId(1) << 14, int64_t(1) << 17, sgnn::graph::RmatConfig{}, 7));
  return *graph;
}

const Partition& PartitionFor(int k) {
  static std::map<int, Partition>* cache = new std::map<int, Partition>();
  auto it = cache->find(k);
  if (it == cache->end()) {
    it = cache->emplace(k, sgnn::partition::LdgPartition(BigGraph(), k, 1.05,
                                                         31)).first;
  }
  return it->second;
}

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  sgnn::common::Rng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return m;
}

int64_t SimulatedHaloValues(const Partition& parts, int64_t dim) {
  const auto sim = core::SimulateDistributedEpoch(
      BigGraph(), parts, dim, core::DistributedCostModel{});
  int64_t values = 0;
  for (const auto& w : sim.workers) values += w.halo_values;
  return values;
}

/// One full distributed run per iteration; the wire/respawn counters put
/// the measured halo bytes next to the simulated volume.
void BM_DistPropagate(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const Partition& parts = PartitionFor(k);
  const Matrix x = RandomMatrix(BigGraph().num_nodes(), kFeatureDim, 1);
  dist::DistOptions opts;
  opts.hops = kHops;
  sgnn::common::FaultInjector no_faults;
  core::RunContext ctx;
  ctx.faults = &no_faults;
  dist::DistReport report;
  for (auto _ : state) {
    auto out_or =
        dist::RunDistributedPropagation(BigGraph(), parts, x, opts, ctx,
                                        &report);
    if (!out_or.ok()) {
      state.SkipWithError(out_or.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out_or.value().data());
  }
  const double sim_bytes = static_cast<double>(
      SimulatedHaloValues(parts, kFeatureDim) * sizeof(float) * kHops);
  state.counters["halo_MB"] =
      static_cast<double>(report.halo_bytes) / (1 << 20);
  state.counters["sim_halo_MB"] = sim_bytes / (1 << 20);
  state.counters["wire_overhead"] =
      sim_bytes > 0 ? static_cast<double>(report.halo_bytes) / sim_bytes : 0;
  state.SetItemsProcessed(state.iterations() * BigGraph().num_edges() * kHops);
}
BENCHMARK(BM_DistPropagate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// The robustness headline priced: same run, but worker 1 is killed
/// mid-epoch-1 every time and must be respawned and replayed. The delta
/// against BM_DistPropagate/4 is the measured crash-recovery overhead
/// that E15's Young-model checkpoint planner predicts analytically.
void BM_DistPropagateWithKill(benchmark::State& state) {
  const int k = 4;
  const Partition& parts = PartitionFor(k);
  const Matrix x = RandomMatrix(BigGraph().num_nodes(), kFeatureDim, 1);
  dist::DistOptions opts;
  opts.hops = kHops;
  sgnn::common::FaultInjector faults;
  faults.ArmAt(dist::kSiteWorkerKill,
               static_cast<int64_t>(dist::KillToken(1, 1, 0)));
  core::RunContext ctx;
  ctx.faults = &faults;
  dist::DistReport report;
  for (auto _ : state) {
    auto out_or =
        dist::RunDistributedPropagation(BigGraph(), parts, x, opts, ctx,
                                        &report);
    if (!out_or.ok()) {
      state.SkipWithError(out_or.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out_or.value().data());
  }
  state.counters["respawns_per_run"] = static_cast<double>(report.respawns);
  state.SetItemsProcessed(state.iterations() * BigGraph().num_edges() * kHops);
}
BENCHMARK(BM_DistPropagateWithKill)->Unit(benchmark::kMillisecond);

/// Per-epoch checkpointing priced against the same run without it; the
/// Young model turns this cost plus a failure rate into an optimal
/// checkpoint interval (printed by the smoke pass).
void BM_DistPropagateCheckpointed(benchmark::State& state) {
  const int k = 4;
  const Partition& parts = PartitionFor(k);
  const Matrix x = RandomMatrix(BigGraph().num_nodes(), kFeatureDim, 1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sgnn_bench_dist_ckpt.bin")
          .string();
  dist::DistOptions opts;
  opts.hops = kHops;
  sgnn::common::FaultInjector no_faults;
  core::RunContext ctx;
  ctx.faults = &no_faults;
  ctx.checkpoint_path = path;
  for (auto _ : state) {
    // No snapshot to resume from: every run does all epochs, so the timing
    // prices the writes only.
    state.PauseTiming();
    std::filesystem::remove(path);
    state.ResumeTiming();
    auto out_or =
        dist::RunDistributedPropagation(BigGraph(), parts, x, opts, ctx);
    if (!out_or.ok()) {
      state.SkipWithError(out_or.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out_or.value().data());
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * BigGraph().num_edges() * kHops);
}
BENCHMARK(BM_DistPropagateCheckpointed)->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------- smoke

bool BytesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

/// Seconds-scale CI pass. Returns 0 on success.
int RunSmoke() {
  const CsrGraph g = sgnn::graph::Rmat(NodeId(1) << 12, int64_t(1) << 15,
                                       sgnn::graph::RmatConfig{}, 7);
  const Matrix x = RandomMatrix(g.num_nodes(), 64, 1);
  dist::DistOptions opts;
  opts.hops = kHops;
  sgnn::graph::Propagator prop(g, opts.norm, opts.add_self_loops);
  const Matrix want = sgnn::graph::PropagateKHops(prop, x, opts.hops);

  int failures = 0;
  auto check = [&failures](const char* name, bool ok) {
    std::printf("%-28s %s\n", name, ok ? "OK" : "MISMATCH");
    if (!ok) ++failures;
  };

  for (const int k : {1, 2, 4}) {
    const Partition parts = sgnn::partition::LdgPartition(g, k, 1.05, 31);
    sgnn::common::FaultInjector no_faults;
    core::RunContext ctx;
    ctx.faults = &no_faults;
    dist::DistReport report;
    auto out_or =
        dist::RunDistributedPropagation(g, parts, x, opts, ctx, &report);
    char name[64];
    std::snprintf(name, sizeof(name), "dist.bit_identity.k%d", k);
    check(name, out_or.ok() && BytesEqual(want, out_or.value()));
    if (k == 4 && out_or.ok()) {
      // The acceptance bound: measured halo wire bytes within 10% of the
      // simulator's float volume on the same partition.
      const auto sim = core::SimulateDistributedEpoch(
          g, parts, x.cols(), core::DistributedCostModel{});
      int64_t sim_values = 0;
      for (const auto& w : sim.workers) sim_values += w.halo_values;
      const double sim_bytes =
          static_cast<double>(sim_values) * sizeof(float) * opts.hops;
      const double measured = static_cast<double>(report.halo_bytes);
      std::printf("halo bytes: measured=%.0f simulated=%.0f ratio=%.4f\n",
                  measured, sim_bytes, measured / sim_bytes);
      check("dist.wire_vs_simulated", measured >= sim_bytes &&
                                          measured <= 1.10 * sim_bytes);
    }
  }

  // Kill worker 1 mid-epoch-1: recovery must keep the bytes identical.
  {
    const Partition parts = sgnn::partition::LdgPartition(g, 4, 1.05, 31);
    sgnn::common::FaultInjector faults;
    faults.ArmAt(dist::kSiteWorkerKill,
                 static_cast<int64_t>(dist::KillToken(1, 1, 0)));
    core::RunContext ctx;
    ctx.faults = &faults;
    dist::DistReport report;
    auto out_or =
        dist::RunDistributedPropagation(g, parts, x, opts, ctx, &report);
    check("dist.bit_identity.killed", out_or.ok() &&
                                          BytesEqual(want, out_or.value()) &&
                                          report.respawns >= 1);

    // Put the measured recovery cost next to the closed-form model E15
    // plans with: one kill in `hops` epochs on k workers is a per-worker,
    // per-epoch failure probability of 1/(k*hops).
    core::FailureModel failure;
    failure.worker_failure_prob =
        1.0 / (4.0 * static_cast<double>(opts.hops));
    failure.checkpoint_write_seconds = 1e-3;
    failure.restart_seconds = 1e-3;
    const core::CheckpointPlan plan =
        core::PlanCheckpoints(/*epoch_seconds=*/1e-2, 4, failure);
    std::printf(
        "recovery: respawns=%d; Young plan: mtbf=%.3fs tau*=%.3fs "
        "overhead=%.3fx\n",
        report.respawns, plan.mtbf_seconds, plan.optimal_interval_seconds,
        plan.expected_overhead);
  }

  std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return RunSmoke();
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
