#include "dist/coordinator.h"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/posix.h"
#include "core/checkpoint.h"
#include "dist/exchange.h"
#include "dist/frame.h"
#include "dist/worker.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sgnn::dist {

using common::Status;
using common::StatusOr;
using graph::NodeId;

namespace {

/// Ignores SIGPIPE for the coordinator's lifetime (writes to a dead
/// worker must surface as EPIPE -> `kUnavailable`, not kill the process),
/// restoring the previous disposition on destruction.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() { previous_ = std::signal(SIGPIPE, SIG_IGN); }
  ~ScopedSigpipeIgnore() {
    if (previous_ != SIG_ERR) std::signal(SIGPIPE, previous_);
  }

 private:
  using Handler = void (*)(int);
  Handler previous_;
};

struct WorkerHandle {
  pid_t pid = -1;
  int fd = -1;
  int incarnation = 0;
  int spawns = 0;  ///< Total spawns, first launch included.
  /// Result rows of the epoch in flight from this incarnation, and the last
  /// row's id (-1 before the first): a worker sends its owned rows in
  /// ascending order, so each id must exceed the one before.
  size_t rows_received = 0;
  int64_t last_row = -1;
  bool epoch_done = false;

  /// Starts the row count of an epoch (or a fresh incarnation).
  void ExpectRows() {
    rows_received = 0;
    last_row = -1;
    epoch_done = false;
  }
};

class Coordinator {
 public:
  Coordinator(const graph::CsrGraph& graph, const partition::Partition& parts,
              const tensor::Matrix& x, const DistOptions& opts,
              const core::RunContext& ctx)
      : graph_(graph),
        parts_(parts),
        opts_(opts),
        ctx_(ctx),
        breaker_(opts.breaker),
        state_(x) {}

  ~Coordinator() { KillAll(); }

  StatusOr<tensor::Matrix> Run(DistReport* report);

 private:
  uint64_t Signature() const {
    // Hop count is deliberately NOT part of the signature: every epoch
    // applies the same operator, so a snapshot at epoch s is a valid
    // resume point for any run with hops >= s (TryResume checks that).
    const std::string config =
        "norm=" + std::to_string(static_cast<int>(opts_.norm)) +
        ";self_loops=" + std::to_string(opts_.add_self_loops ? 1 : 0) +
        ";nodes=" + std::to_string(graph_.num_nodes()) +
        ";cols=" + std::to_string(state_.cols()) +
        ";edges=" + std::to_string(graph_.num_edges());
    // The worker count is deliberately NOT part of the signature: results
    // are bit-identical across worker counts, so a checkpoint written at
    // k=2 is a valid resume point for a k=4 run.
    return core::PipelineSignature({"dist:propagate"}, config);
  }

  /// Row batch of `ids` read from the canonical state by global id.
  std::string EncodeState(const std::vector<NodeId>& ids) const {
    return EncodeRows(ids, state_.cols(), [this, &ids](size_t i) {
      return state_.Row(ids[i]).data();
    });
  }

  WorkerSpec SpecFor(int w);
  Status SpawnWorker(int w);
  Status SendEpochInputs(int w, int epoch);
  Status Recover(int w, int epoch, const Status& cause);
  Status CollectWorker(int w, int epoch);
  Status CheckpointEpoch(int epoch);
  void TryResume(int* start_epoch);
  void KillAll();
  void FlushMetrics() const;

  common::Deadline EpochDeadline() const {
    const int64_t micros =
        std::min(kEpochDeadlineMicros, ctx_.deadline.remaining_micros());
    return common::Deadline::After(micros);
  }

  const graph::CsrGraph& graph_;
  const partition::Partition& parts_;
  const DistOptions& opts_;
  const core::RunContext& ctx_;
  /// `graph::NodeFactors` of the graph, from which `SpecFor` evaluates the
  /// coefficient of each edge it ships.
  std::vector<double> factor_;
  std::vector<float> self_loop_;
  common::FaultInjector env_faults_;
  common::FaultInjector* faults_ = nullptr;
  common::CircuitBreaker breaker_;
  HaloPlan plan_;
  /// Value-store row of each node for the worker `SpecFor` last laid out;
  /// entries of other workers' nodes are left stale (see `SpecFor`).
  std::vector<NodeId> slot_;
  tensor::Matrix state_;  ///< Canonical H_e: input state of the next epoch.
  tensor::Matrix next_;   ///< H_{e+1} as it is gathered; swapped into state_.
  std::vector<WorkerHandle> workers_;
  common::Deadline epoch_deadline_;  ///< Deadline of the epoch in flight.

  DistReport report_;
  WireStats halo_stats_;
  WireStats scatter_stats_;
  WireStats control_stats_;
  WireStats gather_stats_;
};

WorkerSpec Coordinator::SpecFor(int w) {
  WorkerSpec spec;
  spec.worker_id = w;
  spec.num_workers = plan_.num_workers;
  spec.incarnation = workers_[static_cast<size_t>(w)].incarnation;
  spec.cols = state_.cols();
  spec.owned = plan_.owned[static_cast<size_t>(w)];
  spec.halo = plan_.need[static_cast<size_t>(w)];
  // The worker's value-store layout, which the scatter and halo frames
  // follow: owned rows in `owned` order, then halo rows in `need` order.
  // `BuildHaloPlan` puts every neighbour of an owned node in one of the
  // two lists, so entries left by another worker are never read.
  const size_t rows = spec.owned.size();
  for (size_t i = 0; i < rows; ++i) {
    slot_[spec.owned[i]] = static_cast<NodeId>(i);
  }
  for (size_t j = 0; j < spec.halo.size(); ++j) {
    slot_[spec.halo[j]] = static_cast<NodeId>(rows + j);
  }
  spec.offsets.resize(rows + 1);
  spec.offsets[0] = 0;
  for (size_t i = 0; i < rows; ++i) {
    spec.offsets[i + 1] = spec.offsets[i] + graph_.OutDegree(spec.owned[i]);
  }
  spec.slots.resize(static_cast<size_t>(spec.offsets[rows]));
  spec.coefficients.resize(spec.slots.size());
  spec.self_loop.resize(rows);
  // `Propagator`'s coefficient formula over the same factors, so the bits
  // equal its stored coefficients.
  for (size_t i = 0; i < rows; ++i) {
    const NodeId u = spec.owned[i];
    const auto nbrs = graph_.Neighbors(u);
    const auto ws = graph_.Weights(u);
    NodeId* out_slots = spec.slots.data() + spec.offsets[i];
    float* out_coeffs = spec.coefficients.data() + spec.offsets[i];
    for (size_t e = 0; e < nbrs.size(); ++e) {
      out_slots[e] = slot_[nbrs[e]];
      out_coeffs[e] = graph::EdgeCoefficient(opts_.norm, ws[e], factor_[u],
                                             factor_[nbrs[e]]);
    }
    spec.self_loop[i] = self_loop_.empty() ? 0.0f : self_loop_[u];
  }
  return spec;
}

Status Coordinator::SpawnWorker(int w) {
  WorkerHandle& handle = workers_[static_cast<size_t>(w)];
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return common::StatusFromErrno("socketpair failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    Status status = common::StatusFromErrno("fork failed");
    ::close(sv[0]);
    ::close(sv[1]);
    return status;
  }
  if (pid == 0) {
    // Child. Close every inherited coordinator-side descriptor — holding a
    // sibling's socket would keep its stream open past that sibling's
    // death and mask the EOF the coordinator relies on.
    ::close(sv[0]);
    for (const WorkerHandle& other : workers_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    WorkerMain(sv[1], faults_);  // Never returns.
  }
  ::close(sv[1]);
  handle.pid = pid;
  handle.fd = sv[0];
  handle.spawns += 1;
  handle.ExpectRows();

  Frame config;
  config.type = FrameType::kConfig;
  config.payload = SpecFor(w).Serialize();
  SGNN_RETURN_IF_ERROR(WriteFrame(handle.fd, config, &control_stats_));
  Frame scatter;
  scatter.type = FrameType::kRows;
  scatter.payload = EncodeState(plan_.owned[static_cast<size_t>(w)]);
  return WriteFrame(handle.fd, scatter, &scatter_stats_);
}

Status Coordinator::SendEpochInputs(int w, int epoch) {
  WorkerHandle& handle = workers_[static_cast<size_t>(w)];
  handle.ExpectRows();
  if (!plan_.need[static_cast<size_t>(w)].empty()) {
    Frame halo;
    halo.type = FrameType::kHalo;
    halo.epoch = static_cast<uint32_t>(epoch);
    halo.payload = EncodeState(plan_.need[static_cast<size_t>(w)]);
    SGNN_RETURN_IF_ERROR(WriteFrame(handle.fd, halo, &halo_stats_));
  }
  Frame go;
  go.type = FrameType::kGo;
  go.epoch = static_cast<uint32_t>(epoch);
  return WriteFrame(handle.fd, go, &control_stats_);
}

/// Declares worker `w` dead (cause attached for diagnostics), reaps it,
/// and — respawn budget and breaker permitting — brings a fresh
/// incarnation back to the exact point the epoch needs: config + current
/// epoch state + halo + go. `epoch < 0` means no epoch is in flight.
Status Coordinator::Recover(int w, int epoch, const Status& cause) {
  WorkerHandle& handle = workers_[static_cast<size_t>(w)];
  auto span = obs::StartSpan(ctx_.tracer, "dist:respawn:" + std::to_string(w),
                             "dist");
  if (handle.fd >= 0) {
    ::close(handle.fd);
    handle.fd = -1;
  }
  if (handle.pid > 0) {
    ::kill(handle.pid, SIGKILL);  // Idempotent if already dead.
    int wstatus = 0;
    ::waitpid(handle.pid, &wstatus, 0);
    handle.pid = -1;
  }
  breaker_.RecordFailure();
  if (!breaker_.Allow()) {
    return Status::Unavailable(
        "circuit breaker open after repeated worker crashes; last: worker " +
        std::to_string(w) + " failed with [" + cause.ToString() + "]");
  }
  if (handle.spawns >= opts_.retry.max_attempts) {
    return Status::Unavailable(
        "worker " + std::to_string(w) + " respawn budget exhausted (" +
        std::to_string(handle.spawns) + " spawns); last: " + cause.ToString());
  }
  // Deterministic jittered backoff before reconnecting, attempt = number
  // of respawns so far for this worker.
  const int64_t backoff = opts_.retry.BackoffMicros(
      handle.spawns, static_cast<uint64_t>(w));
  std::this_thread::sleep_for(std::chrono::microseconds(backoff));
  handle.incarnation += 1;
  report_.respawns += 1;
  SGNN_RETURN_IF_ERROR(SpawnWorker(w));
  if (epoch >= 0) {
    SGNN_RETURN_IF_ERROR(SendEpochInputs(w, epoch));
  }
  return Status::OK();
}

Status Coordinator::CollectWorker(int w, int epoch) {
  WorkerHandle& handle = workers_[static_cast<size_t>(w)];
  const size_t expected = plan_.owned[static_cast<size_t>(w)].size();
  while (!handle.epoch_done) {
    Frame frame;
    Status status =
        ReadFrame(handle.fd, &frame, epoch_deadline_, &gather_stats_);
    if (status.ok() && frame.type == FrameType::kRows &&
        frame.epoch == static_cast<uint32_t>(epoch)) {
      status = DecodeRows(
          frame.payload, state_.cols(),
          [this, w, &handle](NodeId id, const float* row) {
            if (id >= graph_.num_nodes() || parts_.part_of[id] != w) {
              return Status::DataLoss("worker " + std::to_string(w) +
                                      " sent a row it does not own: node " +
                                      std::to_string(id));
            }
            // Ascending, owned and as many as owned: exactly the owned set.
            if (static_cast<int64_t>(id) <= handle.last_row) {
              return Status::DataLoss(
                  "worker " + std::to_string(w) + " sent row " +
                  std::to_string(id) + " after row " +
                  std::to_string(handle.last_row));
            }
            handle.last_row = id;
            std::memcpy(next_.Row(id).data(), row,
                        static_cast<size_t>(state_.cols()) * sizeof(float));
            handle.rows_received += 1;
            return Status::OK();
          });
      if (status.ok()) continue;
    } else if (status.ok() && frame.type == FrameType::kEpochDone) {
      if (handle.rows_received == expected) {
        handle.epoch_done = true;
        breaker_.RecordSuccess();
        continue;
      }
      status = Status::DataLoss(
          "worker " + std::to_string(w) + " reported epoch done after " +
          std::to_string(handle.rows_received) + "/" +
          std::to_string(expected) + " rows");
    } else if (status.ok()) {
      status = Status::DataLoss("unexpected frame type " +
                                std::to_string(static_cast<uint32_t>(
                                    frame.type)) +
                                " from worker " + std::to_string(w));
    }
    // Worker died (EOF), went silent (deadline), or shipped garbage
    // (CRC/protocol): one recovery path for all of them. The respawned
    // incarnation recomputes the epoch's rows from the canonical state and
    // overwrites any partial rows with identical bits.
    if (ctx_.deadline.expired()) {
      return Status::DeadlineExceeded("run deadline expired collecting from "
                                      "worker " +
                                      std::to_string(w));
    }
    SGNN_RETURN_IF_ERROR(Recover(w, epoch, status));
  }
  return Status::OK();
}

Status Coordinator::CheckpointEpoch(int epoch) {
  const std::string& path = ctx_.checkpoint_path;
  if (path.empty()) return Status::OK();
  auto span = obs::StartSpan(ctx_.tracer,
                             "dist:checkpoint:" + std::to_string(epoch),
                             "dist");
  core::PipelineSnapshot snap;
  snap.signature = Signature();
  snap.stages_done = epoch + 1;
  for (int e = 0; e <= epoch; ++e) {
    core::StageTiming timing;
    timing.name = "dist:epoch:" + std::to_string(e);
    // seconds stays 0: the snapshot must be a pure function of the seeded
    // workload so resumed runs stay byte-comparable.
    snap.stages.push_back(timing);
  }
  snap.edges_before = graph_.num_edges();
  snap.feature_cols_before = state_.cols();
  snap.graph = graph::CsrGraph(0);  // Adjacency is the caller's; state is H.
  snap.features = state_;
  SGNN_RETURN_IF_ERROR(core::SaveSnapshot(snap, path));
  report_.checkpoints_written += 1;
  return Status::OK();
}

void Coordinator::TryResume(int* start_epoch) {
  const std::string& path = ctx_.checkpoint_path;
  if (path.empty()) return;
  auto snap_or = core::LoadSnapshot(path, Signature());
  if (!snap_or.ok()) return;  // Missing/corrupt/foreign: from scratch.
  core::PipelineSnapshot snap = std::move(snap_or).value();
  if (snap.stages_done < 1 || snap.stages_done > opts_.hops ||
      snap.features.rows() != state_.rows() ||
      snap.features.cols() != state_.cols()) {
    return;
  }
  state_ = std::move(snap.features);
  *start_epoch = snap.stages_done;
  report_.resumed = true;
  report_.epochs_restored = snap.stages_done;
}

void Coordinator::KillAll() {
  for (WorkerHandle& handle : workers_) {
    if (handle.fd >= 0) {
      Frame shutdown;
      shutdown.type = FrameType::kShutdown;
      // Best-effort courtesy shutdown: a failed write means the worker is
      // already gone, and the close + SIGKILL below reap it regardless.
      if (!WriteFrame(handle.fd, shutdown, &control_stats_).ok()) {
        // Fall through to close + SIGKILL.
      }
      ::close(handle.fd);
      handle.fd = -1;
    }
    if (handle.pid > 0) {
      int wstatus = 0;
      if (::waitpid(handle.pid, &wstatus, WNOHANG) == 0) {
        ::kill(handle.pid, SIGKILL);
        ::waitpid(handle.pid, &wstatus, 0);
      }
      handle.pid = -1;
    }
  }
}

void Coordinator::FlushMetrics() const {
  obs::MetricsRegistry* metrics = ctx_.metrics;
  if (metrics == nullptr) return;
  const auto bytes_counter = [metrics](const char* channel) {
    return metrics->GetCounter(
        "sgnn_dist_bytes_sent_total",
        "Wire bytes (frame header + payload) moved by sgnn::dist, by channel",
        {{"channel", channel}});
  };
  bytes_counter("halo")->Increment(halo_stats_.bytes);
  bytes_counter("scatter")->Increment(scatter_stats_.bytes);
  bytes_counter("control")->Increment(control_stats_.bytes);
  bytes_counter("gather")->Increment(gather_stats_.bytes);
  const auto frames_counter = [metrics](const char* direction) {
    return metrics->GetCounter("sgnn_dist_frames_total",
                               "Frames moved by sgnn::dist, by direction",
                               {{"direction", direction}});
  };
  frames_counter("sent")->Increment(halo_stats_.frames +
                                    scatter_stats_.frames +
                                    control_stats_.frames);
  frames_counter("received")->Increment(gather_stats_.frames);
  metrics
      ->GetCounter("sgnn_dist_worker_respawns_total",
                   "Workers respawned after a detected crash")
      ->Increment(static_cast<uint64_t>(report_.respawns));
  metrics
      ->GetCounter("sgnn_dist_epochs_total",
                   "Distributed propagation epochs executed")
      ->Increment(static_cast<uint64_t>(report_.epochs_run));
  metrics
      ->GetCounter("sgnn_dist_checkpoints_total",
                   "Epoch checkpoints written by the dist coordinator")
      ->Increment(static_cast<uint64_t>(report_.checkpoints_written));
  metrics
      ->GetGauge("sgnn_dist_workers", "Worker processes of the last run")
      ->Set(static_cast<double>(report_.num_workers));
  metrics
      ->GetGauge("sgnn_dist_halo_values_per_epoch",
                 "Halo scalars shipped per epoch (E15-comparable volume)")
      ->Set(static_cast<double>(report_.halo_values_per_epoch));
}

StatusOr<tensor::Matrix> Coordinator::Run(DistReport* report) {
  if (state_.rows() != static_cast<int64_t>(graph_.num_nodes())) {
    return Status::InvalidArgument(
        "feature rows (" + std::to_string(state_.rows()) +
        ") do not match graph nodes (" + std::to_string(graph_.num_nodes()) +
        ")");
  }
  if (parts_.k <= 0 ||
      parts_.part_of.size() != static_cast<size_t>(graph_.num_nodes())) {
    return Status::InvalidArgument("partition does not cover the graph");
  }
  for (const int p : parts_.part_of) {
    if (p < 0 || p >= parts_.k) {
      return Status::InvalidArgument("partition id " + std::to_string(p) +
                                     " outside [0, " +
                                     std::to_string(parts_.k) + ")");
    }
  }
  if (opts_.hops < 0) {
    return Status::InvalidArgument("negative hop count");
  }

  auto run_span = obs::StartSpan(ctx_.tracer, "dist:run", "dist");
  ScopedSigpipeIgnore ignore_sigpipe;
  faults_ = ctx_.faults;
  if (faults_ == nullptr) {
    SGNN_RETURN_IF_ERROR(env_faults_.ArmFromEnv());
    faults_ = &env_faults_;
  }

  plan_ = BuildHaloPlan(graph_, parts_);
  slot_.resize(static_cast<size_t>(graph_.num_nodes()));
  graph::NodeFactors(graph_, opts_.norm, opts_.add_self_loops, &factor_,
                     &self_loop_);
  workers_.assign(static_cast<size_t>(parts_.k), WorkerHandle{});
  report_ = DistReport{};
  report_.num_workers = parts_.k;
  report_.halo_values_per_epoch = plan_.halo_values(state_.cols());

  int start_epoch = 0;
  TryResume(&start_epoch);

  Status status = Status::OK();
  for (int w = 0; w < parts_.k && status.ok(); ++w) {
    status = SpawnWorker(w);
    if (!status.ok() && common::RetryPolicy::Retryable(status.code())) {
      status = Recover(w, /*epoch=*/-1, status);
    }
  }

  for (int epoch = start_epoch; status.ok() && epoch < opts_.hops; ++epoch) {
    if (ctx_.deadline.expired()) {
      status = Status::DeadlineExceeded("run deadline expired before epoch " +
                                        std::to_string(epoch));
      break;
    }
    auto epoch_span = obs::StartSpan(
        ctx_.tracer, "dist:epoch:" + std::to_string(epoch), "dist");
    epoch_deadline_ = EpochDeadline();
    next_.Reset(state_.rows(), state_.cols());
    for (int w = 0; w < parts_.k && status.ok(); ++w) {
      status = SendEpochInputs(w, epoch);
      if (!status.ok() && common::RetryPolicy::Retryable(status.code())) {
        status = Recover(w, epoch, status);
      }
    }
    for (int w = 0; w < parts_.k && status.ok(); ++w) {
      status = CollectWorker(w, epoch);
    }
    if (!status.ok()) break;
    std::swap(state_, next_);
    report_.epochs_run += 1;
    status = CheckpointEpoch(epoch);
  }

  KillAll();
  report_.halo_bytes = halo_stats_.bytes;
  report_.scatter_bytes = scatter_stats_.bytes;
  report_.control_bytes = control_stats_.bytes;
  report_.gather_bytes = gather_stats_.bytes;
  report_.frames_sent =
      halo_stats_.frames + scatter_stats_.frames + control_stats_.frames;
  report_.frames_received = gather_stats_.frames;
  FlushMetrics();
  if (report != nullptr) *report = report_;
  if (!status.ok()) return status;
  return std::move(state_);
}

}  // namespace

StatusOr<tensor::Matrix> RunDistributedPropagation(
    const graph::CsrGraph& graph, const partition::Partition& parts,
    const tensor::Matrix& x, const DistOptions& opts,
    const core::RunContext& ctx, DistReport* report) {
  Coordinator coordinator(graph, parts, x, opts, ctx);
  return coordinator.Run(report);
}

}  // namespace sgnn::dist
