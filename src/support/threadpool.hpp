// A small fixed-size worker pool draining a shared FIFO job queue — the
// execution substrate for the fleet runner (driver/fleet.hpp). The paper's
// experiment is embarrassingly parallel (one compile → simulate → WCET chain
// per generated file), so a plain mutex-protected queue is enough: jobs are
// coarse (milliseconds each) and queue contention is negligible.
//
// Determinism contract: the pool schedules jobs in submission order but
// completes them in any order. Callers that need reproducible output must
// write results into pre-assigned slots (index the output by job id), never
// append from worker threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vc {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 means one per hardware thread.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Jobs must not throw — wrap fallible work in its own
  /// try/catch and record the failure in the job's result slot.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished and the queue is empty.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// One per hardware thread, at least 1 (hardware_concurrency may be 0).
  static std::size_t default_worker_count();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // signals workers: job available / stop
  std::condition_variable idle_cv_;  // signals wait_idle: all drained
  std::size_t active_ = 0;           // jobs currently executing
  bool stop_ = false;
};

/// Runs fn(0), ..., fn(count-1) across min(jobs, count) workers and returns
/// when all are done. When that is at most 1, the loop runs serially on the
/// calling thread (no pool). An exception escaping `fn` is rethrown on the
/// calling thread after all other indices finish (first one wins).
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace vc
