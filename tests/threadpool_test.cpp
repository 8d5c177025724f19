// parallel_for, the one job-level parallel loop the fleet and batch paths
// share: every index runs exactly once at any worker count, jobs <= 1 or a
// single item stays on the calling thread, a call starts no more threads
// than it has items, and an exception escaping `fn` neither stops the other
// indices nor escapes more than once.
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

/// How many times parallel_for(count, jobs) called fn with each index.
std::vector<int> hits_per_index(std::size_t count, std::size_t jobs) {
  std::vector<std::atomic<int>> hits(count);
  parallel_for(count, jobs, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  std::vector<int> out;
  for (const std::atomic<int>& h : hits) out.push_back(h.load());
  return out;
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (std::size_t jobs : {1, 2, 8}) {
    const std::vector<int> hits = hits_per_index(257, jobs);
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i], 1) << "index " << i << " at jobs " << jobs;
  }
}

TEST(ParallelForTest, MoreJobsThanItems) {
  EXPECT_EQ(hits_per_index(3, 8), std::vector<int>({1, 1, 1}));
}

TEST(ParallelForTest, ZeroCountIsANoOp) {
  for (std::size_t jobs : {0, 1, 4})
    parallel_for(0, jobs, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, OneJobRunsInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t jobs : {0, 1}) {
    std::vector<std::size_t> order;
    parallel_for(16, jobs, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
      order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, OneItemRunsOnTheCaller) {
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

TEST(ParallelForTest, NoMoreThreadsThanItems) {
  const std::size_t before = live_threads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task";
  // Each item holds its thread until all three have started, so the ids
  // seen are all the threads that run items, and the thread count is read
  // while they are up. The caller is one of them.
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
  EXPECT_LE(most_threads.load(), before + 2) << "started idle threads";
}

// ------------------------------------------------------ exception contract

TEST(ParallelForTest, AllOtherIndicesStillRunAfterAThrow) {
  for (std::size_t jobs : {1, 4}) {
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(parallel_for(hits.size(), jobs,
                              [&hits](std::size_t i) {
                                hits[i].fetch_add(1);
                                if (i % 7 == 3)
                                  throw std::runtime_error("index failed");
                              }),
                 std::runtime_error)
        << "jobs " << jobs;
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at jobs " << jobs;
  }
}

TEST(ParallelForTest, OneJobFirstExceptionWins) {
  // One job runs the indices in order, so "first" is index order.
  try {
    parallel_for(8, 1, [](std::size_t i) {
      throw std::runtime_error("boom at " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 0");
  }
}

TEST(ParallelForTest, ExactlyOneExceptionSurfaces) {
  // Every index throws; the caller must see exactly one exception (some
  // runtime_error), not a terminate from a second in-flight throw.
  for (std::size_t jobs : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      parallel_for(64, jobs, [&ran](std::size_t i) {
        ran.fetch_add(1);
        throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "expected an exception at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("boom at "), std::string::npos);
    }
    EXPECT_EQ(ran.load(), 64) << "jobs " << jobs;
  }
}

TEST(ParallelForTest, NonStdExceptionPropagates) {
  for (std::size_t jobs : {1, 4})
    EXPECT_THROW(parallel_for(4, jobs,
                              [](std::size_t i) {
                                if (i == 2) throw 42;  // NOLINT
                              }),
                 int)
        << "jobs " << jobs;
}

}  // namespace
}  // namespace vc
