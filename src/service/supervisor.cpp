#include "service/supervisor.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "service/client.hpp"

namespace vc::service {

ShardSupervisor::ShardSupervisor(Frontend* frontend, SupervisorOptions options)
    : frontend_(*frontend), options_(std::move(options)) {
  if (options_.shards < 1) options_.shards = 1;
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->socket = frontend_.socket_path() + ".s" + std::to_string(i);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([this, raw] { shard_loop(raw); });
  }
}

ShardSupervisor::~ShardSupervisor() { stop_shards(); }

bool ShardSupervisor::stop_shards() {
  stopping_.store(true);
  bool clean = true;
  for (auto& shard : shards_) {
    // The channel thread may be mid-respawn: a fresh fd can appear AFTER a
    // one-shot shutdown() and the thread would then block in read_frame
    // forever. Keep poking whatever fd exists until the thread has exited.
    while (shard->thread.joinable() && !shard->exited.load()) {
      {
        std::lock_guard<std::mutex> lock(shard->channel_mutex);
        if (shard->fd >= 0) ::shutdown(shard->fd, SHUT_RDWR);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (shard->thread.joinable()) shard->thread.join();
    {
      std::lock_guard<std::mutex> lock(shard->channel_mutex);
      if (shard->fd >= 0) ::close(shard->fd);
      shard->fd = -1;
    }
    const pid_t pid = shard->pid.exchange(-1);
    if (pid > 0 && terminate_daemon(pid, 10.0) != 0) clean = false;
  }
  return clean;
}

int ShardSupervisor::drain() {
  {
    // The notifiers do not hold drain_mutex_, so poll with a short wait
    // instead of relying on a wakeup that could race the predicate check.
    std::unique_lock<std::mutex> lock(drain_mutex_);
    while (pending_total() != 0)
      drain_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
  // Shut the shards down gracefully (SIGTERM drain; each must exit 0).
  return stop_shards() ? 0 : 1;
}

bool ShardSupervisor::spawn_and_connect(Shard* shard) {
  if (stopping_.load()) return false;
  // Spawn the worker if it is not alive. A fresh spawn always gets a fresh
  // socket path bind (listen_unix unlinks stale files).
  pid_t pid = shard->pid.load();
  int status = 0;
  if (pid > 0 && ::waitpid(pid, &status, WNOHANG) == pid) pid = -1;
  if (pid <= 0) {
    std::vector<std::string> args = {
        "--socket=" + shard->socket,
        "--shard-index=" + std::to_string(shard->index)};
    args.insert(args.end(), options_.shard_args.begin(),
                options_.shard_args.end());
    pid = spawn_daemon(options_.vccd_path, args);
  }
  shard->pid.store(pid);
  if (pid <= 0) return false;
  if (!wait_until_ready(shard->socket, 20.0)) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    shard->pid.store(-1);
    return false;
  }
  const int fd = connect_unix(shard->socket);
  if (fd < 0) return false;
  {
    std::lock_guard<std::mutex> lock(shard->channel_mutex);
    shard->fd = fd;
  }
  shard->up.store(true);
  return true;
}

void ShardSupervisor::resubmit_pending(Shard* shard) {
  std::vector<std::string> payloads;
  {
    std::lock_guard<std::mutex> lock(shard->pending_mutex);
    payloads.reserve(shard->pending.size());
    for (const auto& [id, pending] : shard->pending)
      payloads.push_back(pending.payload);
  }
  std::lock_guard<std::mutex> lock(shard->channel_mutex);
  if (shard->fd < 0) return;
  for (const std::string& payload : payloads) {
    if (!write_frame(shard->fd, payload)) break;
  }
}

void ShardSupervisor::fail_pending(Shard* shard, const std::string& reason) {
  std::map<std::uint64_t, Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(shard->pending_mutex);
    orphans.swap(shard->pending);
  }
  for (auto& [id, pending] : orphans) frontend_.fail(pending.ticket, reason);
  drain_cv_.notify_all();
}

void ShardSupervisor::shard_loop(Shard* shard) {
  int spawn_failures = 0;
  while (!stopping_.load()) {
    if (!spawn_and_connect(shard)) {
      shard->up.store(false);
      if (++spawn_failures >= 5) {
        fail_pending(shard, "shard " + std::to_string(shard->index) +
                                " failed to start");
        spawn_failures = 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    spawn_failures = 0;
    // A restarted shard re-runs everything still pending. Replies are
    // routed by id, so the client sees each job exactly once.
    resubmit_pending(shard);
    for (;;) {
      int fd = -1;
      {
        std::lock_guard<std::mutex> lock(shard->channel_mutex);
        fd = shard->fd;
      }
      if (fd < 0) break;
      Frame frame = read_frame(fd);
      if (frame.status != Frame::Status::Ok) break;
      route_reply(shard, frame.payload);
    }
    shard->up.store(false);
    {
      std::lock_guard<std::mutex> lock(shard->channel_mutex);
      if (shard->fd >= 0) ::close(shard->fd);
      shard->fd = -1;
    }
    if (stopping_.load()) break;
    // The shard died under us (crash or kill): reap it, count the restart,
    // and loop back to respawn + resubmit.
    const pid_t pid = shard->pid.exchange(-1);
    if (pid > 0) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    shard->restarts.fetch_add(1);
  }
  shard->exited.store(true);
}

void ShardSupervisor::route_reply(Shard* shard, const std::string& payload) {
  json::Parsed parsed = json::parse(payload);
  if (!parsed.ok() || parsed.value.kind() != json::Value::Kind::Object) {
    return;  // shard spoke garbage; the read loop will notice on EOF
  }
  json::Value& doc = parsed.value;
  Pending pending;
  {
    std::lock_guard<std::mutex> lock(shard->pending_mutex);
    auto it = shard->pending.find(doc.at("id").as_u64(0));
    if (it == shard->pending.end()) return;  // duplicate after a resubmit race
    pending = std::move(it->second);
    shard->pending.erase(it);
  }
  if (doc.at("ok").as_bool(false)) {
    frontend_.complete(pending.ticket, std::move(doc["record"]),
                       doc.at("cache").as_string("miss"));
  } else {
    frontend_.fail(pending.ticket, doc.at("error").as_string());
  }
  drain_cv_.notify_all();
}

void ShardSupervisor::dispatch(JobTicket ticket, JobRequest job) {
  // No supervisor-level memo: incremental serving is shard-owned (every
  // shard is a full ServiceServer with its own memo). Replies only ever
  // originate on the shard_loop reply-router threads.
  const std::uint64_t internal_id = next_internal_.fetch_add(1);
  json::Value forwarded = job_to_json(job);
  forwarded["id"] = json::Value(static_cast<std::int64_t>(internal_id));
  const std::string payload = forwarded.dump();

  // First-seen jobs round-robin across the shards; a resubmission returns
  // to the shard that first ran it (the supervisor keeps no record memo of
  // its own, so the shard's memo is the only incremental layer — bouncing
  // a repeat to a cold shard would turn it into a recompile).
  std::size_t shard_index;
  {
    const std::string key = job.request_hash().hex();
    std::lock_guard<std::mutex> lock(placement_mutex_);
    const auto it = placement_.find(key);
    if (it != placement_.end()) {
      shard_index = it->second;
    } else {
      shard_index = round_robin_.fetch_add(1) % shards_.size();
      placement_.emplace(key, shard_index);
    }
  }
  Shard* shard = shards_[shard_index].get();
  {
    std::lock_guard<std::mutex> lock(shard->pending_mutex);
    shard->pending.emplace(internal_id, Pending{payload, std::move(ticket)});
  }
  std::lock_guard<std::mutex> lock(shard->channel_mutex);
  if (shard->fd >= 0) {
    write_frame(shard->fd, payload);
    // On failure the read loop sees EOF and the respawn path resubmits.
  }
}

std::size_t ShardSupervisor::pending_total() {
  std::size_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->pending_mutex);
    total += shard->pending.size();
  }
  return total;
}

void ShardSupervisor::add_status(json::Value* status) {
  json::Value& doc = *status;
  doc["mode"] = json::Value("supervisor");
  doc["shards"] = json::Value(static_cast<std::int64_t>(shards_.size()));
  json::Value& shard_list = doc["shard_list"];
  shard_list = json::Value(json::Array{});
  std::uint64_t restarts_total = 0;
  for (auto& shard : shards_) {
    json::Value entry;
    entry["index"] = json::Value(static_cast<std::int64_t>(shard->index));
    entry["pid"] = json::Value(static_cast<std::int64_t>(shard->pid.load()));
    entry["up"] = json::Value(shard->up.load());
    const std::uint64_t r = shard->restarts.load();
    restarts_total += r;
    entry["restarts"] = json::Value(r);
    {
      std::lock_guard<std::mutex> lock(shard->pending_mutex);
      entry["pending"] = json::Value(
          static_cast<std::uint64_t>(shard->pending.size()));
    }
    entry["socket"] = json::Value(shard->socket);
    shard_list.as_array_mut().push_back(std::move(entry));
  }
  doc["shard_restarts"] = json::Value(restarts_total);
}

}  // namespace vc::service
