// Fixed-size worker pool for fan-out of independent CPU-bound work (the
// SketchRefine Refine phase solves one small ILP per partition group; the
// Engine runs submitted queries on one).
//
// Deliberately minimal: Submit() enqueues a task, Wait() blocks until every
// submitted task has finished. Tasks must not throw (no exceptions cross
// API boundaries in this codebase); report failures through captured state.
//
// When several components share one pool, Wait()'s whole-pool semantics are
// too coarse: a TaskGroup tracks only the tasks spawned through it, so each
// component can wait on its own subset. TaskGroup::Wait() additionally
// drains queued pool tasks on the calling thread (work stealing via
// ThreadPool::TryRunOne), which keeps nested use — a pool task that spawns
// a subgroup into the same pool and waits on it — deadlock-free even on a
// single-thread pool.

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

  /// Runs one queued (not yet started) task on the calling thread; returns
  /// false when the queue is empty. Lets waiters help drain the pool — the
  /// "stealing" side of TaskGroup::Wait().
  bool TryRunOne();

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

/// Handle over a subset of a pool's tasks: Spawn() submits through the
/// group, Wait() blocks only until THIS group's tasks have finished (other
/// users' tasks may still be running). The destructor waits, so a group
/// never outlives work it spawned. Not thread-safe: one thread drives a
/// given group (the tasks themselves run anywhere).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `task` to the pool, tracked by this group.
  void Spawn(std::function<void()> task);

  /// Blocks until every task spawned so far has completed, running queued
  /// pool tasks inline while it waits (so nested groups on a shared pool
  /// cannot deadlock, and waiters contribute throughput instead of idling).
  void Wait();

 private:
  ThreadPool* pool_;
  Mutex mu_;
  CondVar done_;
  size_t pending_ PB_GUARDED_BY(mu_) = 0;
};

}  // namespace pb

#endif  // PB_COMMON_THREAD_POOL_H_
