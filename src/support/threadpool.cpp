#include "support/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace vc {

std::size_t default_worker_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  // A thread beyond the item count would find nothing left to take.
  std::vector<std::thread> helpers;
  const std::size_t workers = std::min(jobs, count);
  try {
    for (std::size_t t = 1; t < workers; ++t) helpers.emplace_back(drain);
  } catch (const std::system_error&) {
    // Out of threads: the ones started and the caller still drain every index.
  }
  drain();
  for (std::thread& t : helpers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace vc
