// ThreadPool shutdown semantics and the parallel_for exception contract.
// Complements the scheduling tests in fleet_test.cpp: this file pins down
// the two edges the fleet and batch paths lean on — (1) a pool destroyed
// with jobs still queued must drain them, never abandon them (the fleet
// relies on pool destruction as a barrier when a caller skips wait_idle);
// (2) an exception escaping a parallel_for body must not prevent the other
// indices from running, and the first exception is what the caller sees.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <gtest/gtest.h>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/threadpool.hpp"

namespace vc {
namespace {

TEST(ThreadPoolShutdownTest, DestructorDrainsQueuedJobs) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    // Two slow jobs occupy both workers so the rest are definitely still
    // queued when the destructor runs.
    for (int i = 0; i < 2; ++i)
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        done.fetch_add(1);
      });
    for (int i = 0; i < 100; ++i)
      pool.submit([&done] { done.fetch_add(1); });
    // No wait_idle(): destruction itself must act as the barrier.
  }
  EXPECT_EQ(done.load(), 102);
}

TEST(ThreadPoolShutdownTest, JobsSubmittedByJobsStillRun) {
  // A job that enqueues follow-up work before the destructor sets stop_
  // must have that work drained too (workers exit only on an empty queue).
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    pool.submit([&] {
      pool.submit([&done] { done.fetch_add(1); });
      done.fetch_add(1);
    });
    pool.wait_idle();
  }
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPoolShutdownTest, ImmediateDestructionIsClean) {
  ThreadPool pool(4);  // construct + destruct with nothing submitted
}

TEST(ParallelForExceptionTest, AllOtherIndicesStillRunParallel) {
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(parallel_for(hits.size(), 4,
                            [&hits](std::size_t i) {
                              hits[i].fetch_add(1);
                              if (i % 7 == 3)
                                throw std::runtime_error("index failed");
                            }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " was skipped";
}

TEST(ParallelForExceptionTest, AllOtherIndicesStillRunSerial) {
  // The jobs<=1 path must honor the same contract (it has no pool, so this
  // is a distinct code path from the test above).
  std::vector<int> hits(32, 0);
  EXPECT_THROW(parallel_for(hits.size(), 1,
                            [&hits](std::size_t i) {
                              hits[i] += 1;
                              if (i == 0) throw std::runtime_error("first");
                            }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i], 1) << "index " << i << " was skipped";
}

TEST(ParallelForExceptionTest, SerialFirstExceptionWins) {
  // Serial order is deterministic, so "first" is index order.
  try {
    parallel_for(8, 1, [](std::size_t i) {
      throw std::runtime_error("boom at " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 0");
  }
}

TEST(ParallelForExceptionTest, ExactlyOneExceptionSurfacesParallel) {
  // Every index throws; the caller must see exactly one exception (some
  // runtime_error), not a terminate from a second in-flight throw.
  std::atomic<int> ran{0};
  try {
    parallel_for(64, 8, [&ran](std::size_t i) {
      ran.fetch_add(1);
      throw std::runtime_error("boom at " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom at "), std::string::npos);
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ParallelForExceptionTest, NonStdExceptionPropagates) {
  EXPECT_THROW(parallel_for(4, 2,
                            [](std::size_t i) {
                              if (i == 2) throw 42;  // NOLINT
                            }),
               int);
}

TEST(ParallelForExceptionTest, ZeroCountIsANoOp) {
  parallel_for(0, 4, [](std::size_t) { FAIL() << "must not be called"; });
  parallel_for(0, 1, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForWorkerCapTest, OneItemRunsOnTheCaller) {
  std::thread::id ran_on;
  parallel_for(1, 8, [&ran_on](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

/// Threads of this process, as Linux lists them; 0 where it does not.
std::size_t live_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec))
    ++n;
  return n;
}

TEST(ParallelForWorkerCapTest, NoMoreWorkersThanItems) {
  const std::size_t before = live_threads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task";
  // Each item holds its thread until all three have started, so the ids
  // seen are all the workers that run items, and the thread count is read
  // while the pool is up.
  std::mutex mutex;
  std::set<std::thread::id> ids;
  std::atomic<std::size_t> most_threads{0};
  std::atomic<int> started{0};
  parallel_for(3, 8, [&](std::size_t) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
    }
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (started.load() < 3 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    std::size_t seen = most_threads.load();
    const std::size_t now = live_threads();
    while (now > seen && !most_threads.compare_exchange_weak(seen, now)) {
    }
  });
  EXPECT_LE(ids.size(), 3u);
  EXPECT_LE(most_threads.load(), before + 3) << "pool started idle workers";
}

}  // namespace
}  // namespace vc
