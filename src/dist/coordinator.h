#ifndef SGNN_DIST_COORDINATOR_H_
#define SGNN_DIST_COORDINATOR_H_

#include <cstdint>

#include "common/fault.h"
#include "common/status.h"
#include "core/run_context.h"
#include "graph/csr_graph.h"
#include "graph/propagate.h"
#include "partition/partition.h"
#include "tensor/matrix.h"

namespace sgnn::dist {

/// Options for one distributed propagation run. Worker count comes from
/// the partition's `k`; everything here is policy.
struct DistOptions {
  int hops = 2;
  graph::Normalization norm = graph::Normalization::kSymmetric;
  bool add_self_loops = true;
  /// Respawn budget *per worker* (`max_attempts` spawns total each) with
  /// deterministic jittered backoff between respawns.
  common::RetryPolicy retry{.max_attempts = 4};
  /// Trips after this many consecutive worker crashes across the run
  /// (success of any respawned worker closes it again). An open breaker
  /// fails the run with `kUnavailable` instead of respawning forever.
  common::CircuitBreakerConfig breaker{.failure_threshold = 16,
                                       .probe_interval = 4};
};

/// What the run did, for tests, benches, and the E23 comparison against
/// E15's simulated communication volume.
struct DistReport {
  int num_workers = 0;
  int epochs_run = 0;       ///< Epochs actually executed this run.
  int epochs_restored = 0;  ///< Epochs skipped thanks to a checkpoint.
  bool resumed = false;
  int respawns = 0;
  int checkpoints_written = 0;
  /// Coordinator->worker wire bytes (header + payload), by channel.
  uint64_t halo_bytes = 0;     ///< Boundary rows, the E15-comparable flow.
  uint64_t scatter_bytes = 0;  ///< Initial/restore owned-row shipments.
  uint64_t control_bytes = 0;  ///< Config, go, shutdown frames.
  /// Worker->coordinator wire bytes (result rows, done).
  uint64_t gather_bytes = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  /// Halo scalars shipped per epoch (|need| * cols summed over workers) —
  /// exactly `WorkerLoad::halo_values` summed, for the E15 cross-check.
  int64_t halo_values_per_epoch = 0;
};

/// Runs `hops` epochs of partition-parallel propagation over `parts.k`
/// forked worker processes with per-epoch halo exchange, returning
/// `\hat{A}^hops x` bit-identical to `graph::PropagateKHops` on the same
/// inputs — at any worker count and under any injected kill schedule.
/// The coordinator lays out each worker's value store (owned rows, then
/// halo rows) and ships every neighbour as a row of it (`WorkerSpec`), so
/// a worker keeps no id lookup.
///
/// Robustness: every worker read carries a deadline; a worker that dies
/// (EOF/EPIPE), ships a torn or corrupt frame (`kDataLoss`), or goes
/// silent (deadline) is SIGKILLed, reaped, and respawned with backoff
/// (`opts.retry`), restored from the coordinator's canonical epoch state,
/// and re-run — completed workers are never recomputed. Exhausting a
/// worker's respawn budget or tripping the breaker fails the run with
/// `kUnavailable`. With `ctx.checkpoint_path` set, each completed epoch
/// is persisted there via `core::SaveSnapshot`, and a fresh run that
/// finds a valid snapshot there restarts after its last completed epoch.
///
/// `ctx` supplies the observability sinks (`sgnn_dist_*` metrics, `dist:`
/// spans), the run deadline, the checkpoint path, and the fault injector.
/// Each epoch's deadline is the sooner of the run's and
/// `kEpochDeadlineMicros` (`dist/frame.h`) from the epoch's start. When
/// `ctx.faults` is null an injector armed from `SGNN_FAULTS` (see
/// `FaultInjector::ArmFromEnv`) is used, which is how CI injects a kill
/// schedule into an unmodified binary.
SGNN_NODISCARD common::StatusOr<tensor::Matrix> RunDistributedPropagation(
    const graph::CsrGraph& graph, const partition::Partition& parts,
    const tensor::Matrix& x, const DistOptions& opts,
    const core::RunContext& ctx, DistReport* report = nullptr);

}  // namespace sgnn::dist

#endif  // SGNN_DIST_COORDINATOR_H_
