// Fixed-size worker pool: the Engine runs each submitted query on one of
// its workers, and every step of that query runs on the same thread.
//
// Deliberately minimal: Submit() enqueues a task, Wait() blocks until every
// submitted task has finished. Tasks must not throw (no exceptions cross
// API boundaries in this codebase); report failures through captured state.

#ifndef PB_COMMON_THREAD_POOL_H_
#define PB_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace pb {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;  // written by the constructor only
  Mutex mu_;
  CondVar task_ready_;
  CondVar all_done_;
  std::queue<std::function<void()>> queue_ PB_GUARDED_BY(mu_);
  size_t in_flight_ PB_GUARDED_BY(mu_) = 0;  // queued + currently executing
  bool stop_ PB_GUARDED_BY(mu_) = false;
};

}  // namespace pb

#endif  // PB_COMMON_THREAD_POOL_H_
