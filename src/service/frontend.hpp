// The vccd front end, shared by both daemon topologies: the listening
// socket and its wake pipe, the accept loop, one reader thread per client
// connection running the strict-drop protocol (service/protocol.hpp), the
// one job-completion path with its counters and latency histograms, the
// common fields of the status document, the drain sequence and the final
// stats line.
//
// What happens to a job between its dispatch and its reply belongs to a
// backend: ServiceServer (server.hpp — the incremental memo and the batcher
// over run_fleet) or ShardSupervisor (supervisor.hpp — placement, pending
// tables and respawn over N worker daemons). DESIGN.md §13.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "support/json.hpp"

namespace vc::service {

/// Job latencies in fixed log-spaced buckets (ratio 2^(1/8) from 1 us to
/// 100 s; samples outside clamp to the end buckets). Memory is constant
/// however many jobs are served, and a quantile is read off the counts.
class LatencyHistogram {
 public:
  static constexpr int kBucketsPerOctave = 8;
  static constexpr double kMinSeconds = 1e-6;
  static constexpr std::size_t kBuckets = 213;  // ceil(8 * log2(100 s / 1 us))

  void add(double seconds);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Nearest-rank quantile `p` in [0, 1], in seconds: the geometric middle
  /// of the bucket that holds that rank (0 when empty).
  [[nodiscard]] double quantile(double p) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// One client connection. Only its reader thread reads `fd`; replies from
/// any thread go through Frontend::reply under `write_mutex`.
struct Connection {
  int fd = -1;
  std::mutex write_mutex;
  std::thread reader;
  std::atomic<bool> done{false};
  /// Set from the moment the reader has a frame's length prefix until that
  /// request is dispatched or answered: its bytes have left the socket but
  /// the job has not reached the backend yet.
  std::atomic<bool> frame_in_hand{false};
};

/// A job the front end handed to its backend: where the reply goes, under
/// which client id, and what its latency is measured from.
struct JobTicket {
  std::shared_ptr<Connection> conn;
  std::int64_t id = 0;
  std::string job_class;  // latency class (JobRequest::job_class())
  std::chrono::steady_clock::time_point arrived;
};

class Frontend {
 public:
  /// A daemon topology behind the front end.
  class Backend {
   public:
    Backend() = default;
    virtual ~Backend() = default;
    Backend(const Backend&) = delete;
    Backend& operator=(const Backend&) = delete;
    /// Takes one parsed job on its connection's reader thread and must
    /// never reply: a reader blocked in send() against a pipelining client
    /// stops draining that client and wedges the daemon. The backend later
    /// finishes the job exactly once, by complete() or fail().
    virtual void dispatch(JobTicket ticket, JobRequest job) = 0;
    /// Runs once every reader has stopped. Returns when every dispatched
    /// job has been answered, with the process exit code.
    virtual int drain() = 0;
    /// Adds the backend's own fields to a status document.
    virtual void add_status(json::Value* status) = 0;
  };

  explicit Frontend(std::string socket_path);
  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds the socket and opens the wake pipe; false with *error set.
  bool start(std::string* error);

  /// Accept loop over `backend`. After a drain request: stop accepting,
  /// stop reading, backend->drain(), print the stats line to stderr, and
  /// return the backend's exit code.
  int serve(Backend* backend);

  /// Async-signal-safe drain trigger (writes one byte to the wake pipe);
  /// install it from SIGTERM/SIGINT handlers via a global.
  void request_drain();

  /// The one completion path: counts the job under `cache_kind`
  /// (incremental / full / image / miss) and its latency, then sends the
  /// {"ok":true,id,record,cache,seconds} reply.
  void complete(const JobTicket& ticket, json::Value record,
                std::string_view cache_kind);
  /// Answers a job with an error reply; not counted as a completion.
  void fail(const JobTicket& ticket, const std::string& error);

  /// Whether more requests may still arrive from `conn` right now: its
  /// socket holds unread bytes or its reader holds a frame not yet
  /// dispatched. Safe from any thread; a connection whose write mutex is
  /// held (a reply going out, or the reaper closing it) counts as idle.
  static bool has_unread_bytes(Connection& conn);

  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }
  /// The status document: the common fields plus the backend's own.
  [[nodiscard]] json::Value status_json();
  /// One line: the common counters, then the backend's scalar fields.
  [[nodiscard]] std::string stats_line();

 private:
  void read_loop(const std::shared_ptr<Connection>& conn);
  void reply(const std::shared_ptr<Connection>& conn,
             const std::string& payload);

  std::string socket_path_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  Backend* backend_ = nullptr;
  const std::chrono::steady_clock::time_point started_;

  std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t job_requests_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t queue_depth_ = 0;  // dispatched, not yet answered
  std::uint64_t queue_peak_ = 0;
  std::array<std::uint64_t, 4> cache_counts_{};  // by kCacheKinds
  std::map<std::string, LatencyHistogram> latency_;  // per job class

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;  // each runs a reader
};

}  // namespace vc::service
