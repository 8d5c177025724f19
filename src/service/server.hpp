// The vccd single-process backend (behind service/frontend.hpp): batches
// dispatched compile/execute/WCET jobs through the fleet runner, and keeps
// two hot layers of state resident across requests:
//
//   1. the in-memory incremental-recompilation memo — a dependency hash
//      over (source, entry, config, pass-pipeline identity, every run
//      parameter, input seed) mapped to the finished record, so an
//      identical re-submission is answered without touching the disk or
//      the compiler at all;
//   2. the content-addressed artifact store (optional, --cache-dir), whose
//      in-memory index persists across batches exactly as it does across
//      fleet runs.
//
// Trust boundary: the daemon is UNTRUSTED serving machinery. Every record
// it produces comes out of the same run_fleet path the offline campaigns
// use — translation validators, IPET certificate checker, and execution
// monitor included — and the determinism soak holds it to byte-identical
// records against the serial in-process reference.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "artifact/store.hpp"
#include "service/frontend.hpp"
#include "service/protocol.hpp"
#include "support/json.hpp"

namespace vc::service {

struct ServerOptions {
  /// Fleet workers per batch; 0 = one per hardware thread.
  int jobs = 0;
  /// Artifact-store directory (empty = no on-disk cache).
  std::string cache_dir;
  std::uint64_t cache_budget_bytes = 0;
  /// >= 0 when this server is one shard of a supervised group (labels the
  /// status report; shards are otherwise ordinary servers).
  int shard_index = -1;
  /// Byte budget of the incremental memo; past it the least recently used
  /// entries are evicted. An entry costs its key plus its serialized record.
  std::uint64_t memo_budget_bytes = std::uint64_t{64} << 20;
};

class ServiceServer final : public Frontend::Backend {
 public:
  /// Opens the store and launches the batch worker; every job it finishes
  /// goes out through `frontend`.
  ServiceServer(Frontend* frontend, ServerOptions options);
  ~ServiceServer() override;

  void dispatch(JobTicket ticket, JobRequest job) override;
  /// Waits until the queue is empty and the batcher idle, then stops it.
  int drain() override;
  void add_status(json::Value* status) override;

 private:
  struct Queued {
    JobTicket ticket;
    JobRequest job;
    /// Set when dispatch resolved the job from the incremental memo: the
    /// batcher just sends this record (cache "incremental") without
    /// compiling. Replies never happen on the reader thread (frontend.hpp).
    std::optional<json::Value> memo_record;
  };

  /// One memo entry; `lru` is its key's place in memo_lru_.
  struct MemoEntry {
    json::Value record;
    std::uint64_t bytes = 0;
    std::list<std::string>::iterator lru;
  };

  void batch_loop();
  /// With queue_mutex_ held by `lock` (released while the sockets are
  /// asked): whether the connection of some queued job is still being read.
  bool queued_connection_is_read(std::unique_lock<std::mutex>& lock);
  void process_batch(std::vector<Queued> batch);
  void stop_batcher();
  /// The memoized record for `key`, marked most recently used.
  std::optional<json::Value> memo_lookup(const std::string& key);
  /// Memoizes `record`, then evicts the least recently used entries until
  /// the memo fits its budget.
  void memoize(const std::string& key, const json::Value& record);

  Frontend& frontend_;
  ServerOptions options_;
  std::unique_ptr<artifact::ArtifactStore> store_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;   // batcher wakeups
  std::condition_variable idle_cv_;    // drain waits for empty+idle
  std::deque<Queued> queue_;
  std::size_t in_flight_ = 0;
  bool stop_batcher_ = false;

  /// Incremental memo: request hash (hex) -> finished record document,
  /// with its keys in recency order (most recent first).
  std::mutex memo_mutex_;
  std::unordered_map<std::string, MemoEntry> memo_;
  std::list<std::string> memo_lru_;
  std::uint64_t memo_bytes_ = 0;
  std::uint64_t memo_evictions_ = 0;

  /// Batcher-side counters (the front end counts jobs and latency).
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> validator_checks_{0};
  std::atomic<std::uint64_t> monitored_steps_{0};
  std::atomic<std::uint64_t> monitor_violations_{0};

  std::thread batcher_;  // last: it uses every member above
};

}  // namespace vc::service
