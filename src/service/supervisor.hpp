// Shard mode (`vccd --shards=N`): the supervisor backend behind the public
// socket's front end (service/frontend.hpp). It spawns N single-process
// vccd shards on private sockets (`<sock>.s0` .. `<sock>.sN-1`, all over
// ONE artifact store directory), round-robins first-seen job requests across them (a resubmission returns
// to the shard whose memo already holds it), and restarts a dead shard
// without losing queued work.
//
// Exactly-once delivery: every forwarded job stays in the owning shard's
// pending table (keyed by a supervisor-stamped internal id) until its reply
// has been routed back to the client. A shard that dies — crash, SIGKILL,
// OOM — takes no state with it that matters: the supervisor respawns it,
// waits for its ping, and resubmits every pending request verbatim. Replies
// are keyed by id, so a client can never observe a duplicate, and
// determinism makes the re-run record identical to what the dead shard
// would have sent.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/frontend.hpp"
#include "service/protocol.hpp"
#include "support/json.hpp"

namespace vc::service {

struct SupervisorOptions {
  int shards = 2;
  /// Executable to spawn shards from (normally /proc/self/exe).
  std::string vccd_path;
  /// Flags forwarded verbatim to every shard (--jobs, --cache-dir, ...).
  std::vector<std::string> shard_args;
};

class ShardSupervisor final : public Frontend::Backend {
 public:
  /// Launches one channel thread per shard (spawn, read, respawn); shard i
  /// listens on `<frontend socket>.s<i>`.
  ShardSupervisor(Frontend* frontend, SupervisorOptions options);
  ~ShardSupervisor() override;

  void dispatch(JobTicket ticket, JobRequest job) override;
  /// Waits until every pending table is empty, then drain-stops the shards:
  /// 0 if each worker drain-exited 0, else 1.
  int drain() override;
  void add_status(json::Value* status) override;

 private:
  struct Pending {
    std::string payload;  // forwarded frame (internal id already stamped)
    JobTicket ticket;
  };

  struct Shard {
    int index = 0;
    std::string socket;
    /// Written by the channel thread on (re)spawn, read by status readers.
    std::atomic<pid_t> pid{-1};
    int fd = -1;                 // channel to the shard (guarded below)
    std::mutex channel_mutex;    // guards fd and writes on it
    std::thread thread;          // spawn / read / respawn loop
    std::mutex pending_mutex;
    std::map<std::uint64_t, Pending> pending;
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<bool> up{false};
    std::atomic<bool> exited{false};  // channel thread has returned
  };

  void shard_loop(Shard* shard);
  bool spawn_and_connect(Shard* shard);
  void resubmit_pending(Shard* shard);
  void fail_pending(Shard* shard, const std::string& reason);
  void route_reply(Shard* shard, const std::string& payload);
  [[nodiscard]] std::size_t pending_total();
  /// Joins every shard channel thread, then terminates the worker
  /// processes. Returns false if any worker failed to drain-exit 0.
  bool stop_shards();

  Frontend& frontend_;
  SupervisorOptions options_;
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_internal_{1};
  std::atomic<std::uint64_t> round_robin_{0};

  /// Dependency hash -> owning shard: resubmissions return to the shard
  /// whose memo already holds the record.
  std::mutex placement_mutex_;
  std::unordered_map<std::string, std::size_t> placement_;

  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;  // fires when a pending empties
};

}  // namespace vc::service
