// Distributed execution tour: run partition-parallel propagation over real
// forked worker processes with per-layer halo exchange, then break it on
// purpose and watch it heal:
//   1. a clean multi-process run, bit-identical to the single-process
//      Propagator at every worker count,
//   2. the measured halo wire bytes next to the volume E15's simulator
//      predicts for the same partition,
//   3. a seeded mid-epoch worker kill — detected, respawned, replayed —
//      with the output still bit-identical,
//   4. per-epoch checkpointing and a resumed run that skips completed
//      epochs (at a different worker count, which bit-identity makes
//      legal).

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/fault.h"
#include "common/rng.h"
#include "core/distributed_sim.h"
#include "core/run_context.h"
#include "dist/coordinator.h"
#include "dist/frame.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "obs/metrics.h"
#include "partition/partition.h"
#include "tensor/matrix.h"

int main() {
  using namespace sgnn;

  // A scale-free graph, LDG-partitioned, with random dense features.
  const graph::CsrGraph g = graph::Rmat(graph::NodeId(1) << 12,
                                        int64_t(1) << 15,
                                        graph::RmatConfig{}, 7);
  tensor::Matrix x(g.num_nodes(), 32);
  common::Rng rng(1);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  dist::DistOptions opts;
  opts.hops = 2;
  const graph::Propagator prop(g, opts.norm, opts.add_self_loops);
  const tensor::Matrix want = graph::PropagateKHops(prop, x, opts.hops);

  obs::MetricsRegistry metrics;
  common::FaultInjector no_faults;

  // 1. Clean runs: same bytes out at every worker count.
  std::printf("== bit-identity across worker counts ==\n");
  for (const int k : {1, 2, 4}) {
    const partition::Partition parts = partition::LdgPartition(g, k, 1.05, 31);
    core::RunContext ctx;
    ctx.metrics = &metrics;
    ctx.faults = &no_faults;
    dist::DistReport report;
    auto out_or = dist::RunDistributedPropagation(g, parts, x, opts, ctx,
                                                  &report);
    if (!out_or.ok()) {
      std::printf("k=%d failed: %s\n", k, out_or.status().ToString().c_str());
      return 1;
    }
    const bool identical =
        std::memcmp(want.data(), out_or.value().data(),
                    static_cast<size_t>(want.size()) * sizeof(float)) == 0;
    std::printf("k=%d: %d epochs, %llu halo bytes, bit-identical: %s\n", k,
                report.epochs_run,
                static_cast<unsigned long long>(report.halo_bytes),
                identical ? "yes" : "NO");
    if (!identical) return 1;

    // 2. Measured wire bytes vs the E15 simulator on the same partition.
    if (k == 4) {
      const auto sim = core::SimulateDistributedEpoch(
          g, parts, x.cols(), core::DistributedCostModel{});
      int64_t sim_values = 0;
      for (const auto& w : sim.workers) sim_values += w.halo_values;
      std::printf("   simulated halo volume: %lld floats = %lld bytes/run; "
                  "measured/simulated = %.4f\n",
                  static_cast<long long>(sim_values),
                  static_cast<long long>(sim_values * 4 * opts.hops),
                  static_cast<double>(report.halo_bytes) /
                      static_cast<double>(sim_values * 4 * opts.hops));
    }
  }

  // 3. Kill worker 1 mid-epoch-1 (deterministic token schedule). The
  // coordinator sees the dead stream, respawns incarnation 1 from the
  // canonical epoch state, replays the epoch, and the output bytes are
  // the same as the uninterrupted run.
  std::printf("== seeded mid-epoch worker kill ==\n");
  {
    const partition::Partition parts = partition::LdgPartition(g, 4, 1.05, 31);
    common::FaultInjector faults;
    faults.ArmAt(dist::kSiteWorkerKill,
                 static_cast<int64_t>(dist::KillToken(1, 1, 0)));
    core::RunContext ctx;
    ctx.metrics = &metrics;
    ctx.faults = &faults;
    dist::DistReport report;
    auto out_or = dist::RunDistributedPropagation(g, parts, x, opts, ctx,
                                                  &report);
    if (!out_or.ok()) {
      std::printf("killed run failed: %s\n",
                  out_or.status().ToString().c_str());
      return 1;
    }
    const bool identical =
        std::memcmp(want.data(), out_or.value().data(),
                    static_cast<size_t>(want.size()) * sizeof(float)) == 0;
    std::printf("respawns=%d, output bit-identical after recovery: %s\n",
                report.respawns, identical ? "yes" : "NO");
    if (!identical || report.respawns < 1) return 1;
  }

  // 4. Checkpoint every epoch, then resume at a different worker count.
  std::printf("== checkpoint / resume ==\n");
  {
    // A per-process name, so concurrent runs (two ctest trees) never share
    // a snapshot.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("sgnn_dist_example_" + std::to_string(::getpid()) + ".ckpt"))
            .string();
    std::filesystem::remove(path);
    dist::DistOptions half = opts;
    half.hops = 1;
    core::RunContext ctx;
    ctx.metrics = &metrics;
    ctx.faults = &no_faults;
    ctx.checkpoint_path = path;
    auto first_or = dist::RunDistributedPropagation(
        g, partition::LdgPartition(g, 2, 1.05, 31), x, half, ctx);
    if (!first_or.ok()) return 1;

    // opts.hops = 2: the one-hop snapshot covers the first epoch.
    dist::DistReport report;
    auto resumed_or = dist::RunDistributedPropagation(
        g, partition::LdgPartition(g, 4, 1.05, 31), x, opts, ctx, &report);
    if (!resumed_or.ok()) return 1;
    const bool identical =
        std::memcmp(want.data(), resumed_or.value().data(),
                    static_cast<size_t>(want.size()) * sizeof(float)) == 0;
    std::printf("resumed at k=4 from a k=2 snapshot: restored %d epoch(s), "
                "ran %d, bit-identical: %s\n",
                report.epochs_restored, report.epochs_run,
                identical ? "yes" : "NO");
    std::filesystem::remove(path);
    if (!identical) return 1;
  }

  // The registry now holds the sgnn_dist_* counters every run above
  // incremented (bytes by channel, frames, respawns, epochs, checkpoints).
  std::printf("== metrics ==\n%s",
              metrics.PrometheusText(/*include_volatile=*/false).c_str());
  return 0;
}
