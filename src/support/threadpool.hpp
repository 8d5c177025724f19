// Job-level parallelism for the fleet runner (driver/fleet.hpp) and vcc's
// batch mode. The paper's experiment is embarrassingly parallel (one
// compile → simulate → WCET chain per generated file), and jobs are coarse
// (milliseconds each), so one atomic counter handing out indices is all the
// scheduling a campaign needs. The worker threads live for one parallel_for
// call. Outside src/service, this is the only code in src that starts a
// thread (a CI step checks it).
//
// Determinism contract: indices start in any order and on any thread.
// Callers that need reproducible output must write results into
// pre-assigned slots (index the output by job id), never append from
// worker threads.
#pragma once

#include <cstddef>
#include <functional>

namespace vc {

/// One per hardware thread, at least 1 (hardware_concurrency may be 0).
std::size_t default_worker_count();

/// Runs fn(0), ..., fn(count-1) on the calling thread plus min(jobs, count)
/// - 1 spawned threads and returns when all are done. With jobs <= 1 or a
/// single item no thread is spawned and the indices run in order on the
/// caller. Every index runs even when one throws; the first exception
/// caught is rethrown on the calling thread after all indices finish.
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace vc
