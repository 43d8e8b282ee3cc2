#ifndef SGNN_COMMON_THREAD_POOL_H_
#define SGNN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace sgnn::common {

/// Point-in-time load view of a `ThreadPool`, cheap enough to poll from a
/// metrics exporter: queue depth is the backlog signal an operator watches
/// (a rising depth means submitters outpace the workers).
struct ThreadPoolStats {
  uint64_t submitted = 0;        ///< Tasks ever accepted by `Submit`.
  uint64_t executed = 0;         ///< Tasks that finished running.
  uint64_t queue_depth = 0;      ///< Tasks queued but not yet started.
  uint64_t max_queue_depth = 0;  ///< High-water mark of `queue_depth`.
  int active = 0;                ///< Tasks currently executing.
};

/// Worker pool executing submitted closures FIFO; sized at construction
/// and resizable between workloads (`Resize`). The internal
/// task list is unbounded; callers that need backpressure bound their own
/// admission (see `BoundedMpmcQueue`).
///
/// Destruction drains: queued tasks still run before the workers join, so
/// work submitted before shutdown is never silently dropped.
///
/// Mutable state (`tasks_`, `active_`, `stopping_`) is guarded by `mu_`
/// and annotated so Clang's `-Wthread-safety` verifies the discipline;
/// `workers_` is written only during construction and joined at shutdown,
/// so it needs no lock.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` on some worker. Must not be called after `Shutdown`.
  void Submit(std::function<void()> fn) SGNN_EXCLUDES(mu_);

  /// Blocks until every queued and running task has finished.
  void WaitIdle() SGNN_EXCLUDES(mu_);

  /// Drains remaining tasks and joins the workers; idempotent.
  void Shutdown() SGNN_EXCLUDES(mu_);

  /// Changes the worker count to `n` (>= 1): drains the queue, joins the
  /// current workers, then starts `n` fresh ones. Cumulative `Stats()`
  /// counts (submitted/executed/high-water) survive the resize. Must not
  /// race with `Submit` — configure between workloads (`par::SetThreads`
  /// serialises its calls); a no-op when `n` already matches.
  void Resize(int n) SGNN_EXCLUDES(mu_);

  /// Load snapshot (see `ThreadPoolStats`). Thread-safe; values from live
  /// workers are a consistent instant under the pool lock.
  ThreadPoolStats Stats() const SGNN_EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() SGNN_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::condition_variable_any work_available_;
  std::condition_variable_any idle_;
  std::deque<std::function<void()>> tasks_ SGNN_GUARDED_BY(mu_);
  // sgnn-lint: allow(lock/unannotated-field): mutated only by Resize and
  // the destructor, which the documented contract serialises outside any
  // workload; joining under mu_ would deadlock against WorkerLoop.
  std::vector<std::thread> workers_;
  int active_ SGNN_GUARDED_BY(mu_) = 0;  ///< Tasks currently executing.
  bool stopping_ SGNN_GUARDED_BY(mu_) = false;
  uint64_t submitted_ SGNN_GUARDED_BY(mu_) = 0;
  uint64_t executed_ SGNN_GUARDED_BY(mu_) = 0;
  uint64_t max_queue_depth_ SGNN_GUARDED_BY(mu_) = 0;
};

}  // namespace sgnn::common

#endif  // SGNN_COMMON_THREAD_POOL_H_
