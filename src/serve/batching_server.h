#ifndef SGNN_SERVE_BATCHING_SERVER_H_
#define SGNN_SERVE_BATCHING_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/mpmc_queue.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/run_context.h"
#include "graph/types.h"
#include "obs/trace.h"
#include "sampling/historical_cache.h"
#include "serve/frozen_model.h"
#include "serve/metrics.h"
#include "tensor/matrix.h"

namespace sgnn::serve {

/// Tuning knobs of the online inference server.
struct ServeConfig {
  /// Flush a micro-batch at this many requests...
  int max_batch = 32;
  /// ...or this long after the worker forming it popped its first request
  /// from the queue, whichever comes first. Time the request spent queued
  /// before that pop does not count.
  int64_t max_delay_micros = 1000;
  /// Admission-queue bound; submissions beyond it are rejected with
  /// `kUnavailable` (backpressure) instead of blocking.
  size_t queue_capacity = 1024;
  /// Threads that each form a batch, then execute it. In-flight batches are
  /// capped at this number, so pressure propagates back to the admission
  /// queue.
  int num_workers = 2;
  /// Embedding-cache entries older than this many flushed batches are
  /// recomputed; default accepts any staleness (weights are frozen, so
  /// cached embeddings only go stale if the graph/features change
  /// underneath the server).
  int64_t max_staleness = std::numeric_limits<int64_t>::max();
  /// Write freshly computed embeddings back into the cache.
  bool update_cache = true;
  /// Transient embedder failures (`kUnavailable`/`kAborted`) are retried
  /// under this policy; the backoff never sleeps past the request deadline.
  common::RetryPolicy embed_retry;
  /// Consecutive embedder failures trip this breaker; while open, misses
  /// fast-fail (`kUnavailable`, or a degraded serve when possible) without
  /// calling the embedder, so a dead embedder doesn't burn worker time.
  common::CircuitBreaker::Config breaker;
};

/// One classification request: the single admission currency of the
/// serving tier. The in-process `BatchingServer::Submit` path, the
/// admission stage (`serve::AdmissionQueue`), and the HTTP front door
/// (`sgnn::net`) all build exactly this struct, so quotas, fair
/// scheduling, and shedding reason about one shape.
struct InferenceRequest {
  InferenceRequest() = default;
  /// Bare single-node request: default tenant, no deadline.
  explicit InferenceRequest(graph::NodeId node_in) : node(node_in) {}

  graph::NodeId node = 0;
  /// Tenant the request bills to; per-tenant quotas and weighted-fair
  /// dequeue key on it. Empty = the anonymous default tenant. The server
  /// itself only echoes it into the response.
  std::string tenant_id;
  /// Time budget in microseconds from submission; 0 = none. Checked when
  /// a worker dequeues the request (expired requests skip all embedding
  /// work) and again after the batch forward (late results are not
  /// delivered as successes). Both resolve to `kDeadlineExceeded`.
  int64_t deadline_micros = 0;
};

/// Answer to a single-node classification request. Every admitted request
/// receives exactly one response; `status` says whether `logits` is
/// meaningful. Terminal statuses: OK (fresh or degraded serve),
/// `kDeadlineExceeded` (time budget blown), `kUnavailable` (breaker open /
/// embedder down with no fallback row), or the embedder's own permanent
/// error.
struct InferenceResponse {
  common::Status status;
  graph::NodeId node = 0;
  std::string tenant_id;            ///< Echoed from the request.
  std::vector<float> logits;        ///< Empty unless `status.ok()`.
  int predicted_class = 0;
  bool cache_hit = false;           ///< Embedding came from the cache fresh.
  bool degraded = false;            ///< Served from a stale cache row after
                                    ///< the fresh path failed.
  /// Enqueue-to-fulfilment latency in logical ticks of the server's
  /// `common::TickClock` (one tick per admission/fulfilment event, no wall
  /// time), so the serve latency series honour the obs determinism tags.
  int64_t latency_ticks = 0;
};

/// Receives the answer to one submitted request.
using ResponseCallback = std::function<void(InferenceResponse)>;

/// Computes a node's embedding into the provided row buffer, or returns
/// why it could not (`kUnavailable`/`kAborted` are treated as transient
/// and retried; other codes are permanent). Must be thread-safe; called
/// concurrently from worker threads on cache misses.
using EmbeddingFn =
    std::function<common::Status(graph::NodeId, std::span<float>)>;

/// Online inference server: clients submit single-node classification
/// requests; each of `num_workers` worker threads takes one formation lock,
/// pops a dynamic micro-batch (flush on `max_batch` or `max_delay_micros`),
/// releases the lock and resolves the batch: the shared
/// `HistoricalEmbeddingCache` first — hits skip feature gathering and
/// propagation entirely — then misses via the `EmbeddingFn`, then the
/// frozen head once per batch. The worker answers each request through
/// the callback it was submitted with.
///
/// The first concurrent subsystem in the library: admission is lossy by
/// design (`kUnavailable` when the bounded queue is full), shutdown drains
/// (every admitted request is answered), and all shared state is either
/// immutable (`FrozenModel`), lock-protected (cache, metrics), or
/// thread-local (work counters).
///
/// Failure handling: every admitted request resolves to a terminal
/// `InferenceResponse.status` — never a hung future. Embedder errors are
/// retried under `ServeConfig::embed_retry`; persistent failures degrade
/// to a stale cache row (`degraded=true`) when one exists; consecutive
/// failures trip a `CircuitBreaker` so a dead embedder fast-fails; and
/// per-request deadlines resolve to `kDeadlineExceeded`. The
/// `ServeHealth` slice of `Metrics()` reports all of it.
class BatchingServer {
 public:
  /// Serves `model` over `num_nodes` nodes whose embeddings `embed_fn`
  /// computes on demand. The embedding dimension is `model.in_dim()`.
  ///
  /// `ctx` carries the observability sinks and the fault injector: when
  /// `ctx.metrics` is set, every `sgnn_serve_*` series lands in that
  /// registry (else the server owns a private one); `ctx.tracer` gets a
  /// span per processed batch; `ctx.faults` is observed at site
  /// `"serve.admit"` (token = node id) so admission failures can be
  /// injected deterministically. The caller keeps the sinks alive for the
  /// server's lifetime. A default context reproduces the unobserved
  /// server exactly.
  BatchingServer(FrozenModel model, EmbeddingFn embed_fn,
                 graph::NodeId num_nodes, const ServeConfig& config,
                 const core::RunContext& ctx = core::RunContext());

  /// Drains and stops.
  ~BatchingServer();

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  /// Enqueues a classification request. On OK, the worker that resolves
  /// it calls `done` exactly once, on that worker's thread, so `done` must
  /// not block. Errors, after which `done` is never called:
  /// `kInvalidArgument` (node out of range), `kUnavailable` when the server
  /// is saturated (backpressure; the caller may retry), or
  /// `kFailedPrecondition` after shutdown. Thread-safe.
  SGNN_NODISCARD common::Status Submit(const InferenceRequest& request,
                                       ResponseCallback done);

  /// The same, answering through a future.
  common::StatusOr<std::future<InferenceResponse>> Submit(
      const InferenceRequest& request);

  /// Pre-populates the embedding cache with row `u` of `embeddings` for
  /// every node (e.g. the training-time S^K X), so serving starts warm.
  void WarmCache(const tensor::Matrix& embeddings);

  /// Current metrics snapshot, including the work counters accumulated by
  /// the serving threads since construction. Also refreshes the
  /// registry-side `sgnn_serve_breaker_*` and `sgnn_serve_ops_*` gauges, so
  /// call it before scraping. Thread-safe.
  ServeMetricsSnapshot Metrics() const;

  /// Requests admitted but not yet taken by a worker; at most
  /// `config().queue_capacity`. Thread-safe.
  size_t QueueDepth() const { return queue_.size(); }

  /// Current circuit-breaker state: what the HTTP front door's load-shed
  /// check and `/healthz` read, cheap enough for the admission hot path —
  /// unlike `Metrics()`, which aggregates every counter.
  common::CircuitBreaker::State breaker_state() const {
    return breaker_.state();
  }

  /// Stops admissions, flushes every queued request, joins all threads.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  const ServeConfig& config() const { return config_; }

 private:
  struct Request {
    graph::NodeId node = 0;
    std::string tenant_id;
    ResponseCallback done;
    uint64_t enqueue_tick = 0;  ///< `latency_clock_` tick at admission.
    common::Deadline deadline;  ///< Infinite when no deadline applies.
  };

  void WorkerLoop();
  void ProcessBatch(std::vector<Request>* batch);
  /// Resolves one cache miss: breaker gate, embedder with retry/backoff,
  /// degraded fallback. Returns OK (row written into `out`; `*degraded`
  /// set if it came from a stale cache row) or the terminal error.
  common::Status ResolveMiss(graph::NodeId node, const common::Deadline& dl,
                             std::span<float> out, int64_t step,
                             bool* degraded) SGNN_EXCLUDES(cache_mu_);

  const ServeConfig config_;
  const FrozenModel model_;
  const EmbeddingFn embed_fn_;
  /// Served id universe [0, num_nodes_); immutable, so admission-time
  /// bounds checks need no lock.
  const graph::NodeId num_nodes_;

  common::BoundedMpmcQueue<Request> queue_;
  /// Held by the one worker forming a batch, so batches fill as a single
  /// batcher would fill them.
  common::Mutex form_mu_;

  /// Embedding cache shared across worker threads; reads take the shared
  /// lock (concurrent), writes the exclusive lock. The guard annotation
  /// makes an unlocked cache touch a compile error under Clang.
  mutable common::SharedMutex cache_mu_;
  sampling::HistoricalEmbeddingCache cache_ SGNN_GUARDED_BY(cache_mu_);
  /// Monotone batch counter: the cache's staleness clock at serve time.
  std::atomic<int64_t> step_{0};
  /// Logical latency clock: ticked once at admission and once at
  /// fulfilment, so `InferenceResponse::latency_ticks` measures program
  /// structure (how many serve events passed) rather than wall time.
  common::TickClock latency_clock_;

  /// Observability sinks from the construction-time `RunContext` (null =
  /// off); the injector is consulted at admission (`"serve.admit"`).
  obs::Tracer* const tracer_;
  common::FaultInjector* const faults_;

  ServeMetrics metrics_;
  common::CircuitBreaker breaker_;
  /// Aggregate counters at construction.
  // sgnn-lint: allow(lock/unannotated-field): written once in the
  // constructor before the workers start, read-only afterwards.
  common::OpCounters base_ops_;

  std::atomic<bool> shutdown_{false};
  // sgnn-lint: allow(lock/unannotated-field): started in the constructor,
  // joined in Shutdown(); no access in between.
  std::vector<std::thread> workers_;
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_BATCHING_SERVER_H_
