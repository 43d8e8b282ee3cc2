#ifndef SGNN_COMMON_THREAD_POOL_H_
#define SGNN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace sgnn::common {

/// Worker pool executing submitted closures FIFO; sized at construction
/// and resizable between workloads (`Resize`). The internal
/// task list is unbounded; callers that need backpressure bound their own
/// admission (see `BoundedMpmcQueue`).
///
/// Destruction drains: queued tasks still run before the workers join, so
/// work submitted before shutdown is never silently dropped.
///
/// Mutable state (`tasks_`, `stopping_`) is guarded by `mu_` and annotated
/// so Clang's `-Wthread-safety` verifies the discipline; `workers_` is
/// written only during construction and joined at shutdown, so it needs no
/// lock.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` on some worker. Must not be called after `Shutdown`.
  void Submit(std::function<void()> fn) SGNN_EXCLUDES(mu_);

  /// Drains remaining tasks and joins the workers; idempotent.
  void Shutdown() SGNN_EXCLUDES(mu_);

  /// Changes the worker count to `n` (>= 1): drains the queue, joins the
  /// current workers, then starts `n` fresh ones. Must not race with
  /// `Submit` — configure between workloads (`par::SetThreads` serialises
  /// its calls); a no-op when `n` already matches.
  void Resize(int n) SGNN_EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() SGNN_EXCLUDES(mu_);

  Mutex mu_;
  std::condition_variable_any work_available_;
  std::deque<std::function<void()>> tasks_ SGNN_GUARDED_BY(mu_);
  // sgnn-lint: allow(lock/unannotated-field): mutated only by Resize and
  // the destructor, which the documented contract serialises outside any
  // workload; joining under mu_ would deadlock against WorkerLoop.
  std::vector<std::thread> workers_;
  bool stopping_ SGNN_GUARDED_BY(mu_) = false;
};

}  // namespace sgnn::common

#endif  // SGNN_COMMON_THREAD_POOL_H_
