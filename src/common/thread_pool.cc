#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace pb {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(num_threads, 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (in_flight_ != 0) all_done_.Wait(&mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) task_ready_.Wait(&mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(&mu_);
      if (--in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace pb
