#include "common/thread_pool.h"

#include <utility>

#include "common/check.h"

namespace sgnn::common {

ThreadPool::ThreadPool(int num_threads) {
  SGNN_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> fn) {
  SGNN_CHECK(fn != nullptr);
  {
    MutexLock lock(mu_);
    SGNN_CHECK(!stopping_);
    tasks_.push_back(std::move(fn));
  }
  work_available_.notify_one();
}

void ThreadPool::Resize(int n) {
  SGNN_CHECK_GE(n, 1);
  if (n == num_threads()) return;
  {
    MutexLock lock(mu_);
    SGNN_CHECK(!stopping_);  // Resize after Shutdown is a programming error.
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  {
    MutexLock lock(mu_);
    stopping_ = false;  // Queue is drained; accept work again.
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && tasks_.empty()) work_available_.wait(mu_);
      if (tasks_.empty()) return;  // stopping_ and fully drained.
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace sgnn::common
