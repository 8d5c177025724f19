#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "driver/fleet.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "support/workspace.hpp"
#include "validate/validate.hpp"

namespace vc::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Percentile over an unsorted sample (nearest-rank); 0 when empty.
double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t rank = std::min(
      sample.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sample.size())));
  return sample[rank];
}

/// Resolves an "auto" entry against a parsed program: the sole function, or
/// the sole "_step" function when several exist. Empty on ambiguity.
std::string resolve_auto_entry(const minic::Program& program) {
  if (program.functions.size() == 1) return program.functions[0].name;
  std::string step;
  for (const minic::Function& fn : program.functions) {
    if (fn.name.size() > 5 &&
        fn.name.compare(fn.name.size() - 5, 5, "_step") == 0) {
      if (!step.empty()) return "";  // two step functions: ambiguous
      step = fn.name;
    }
  }
  return step;
}

}  // namespace

ServiceServer::ServiceServer(ServerOptions options)
    : options_(std::move(options)), started_(Clock::now()) {
  if (!options_.cache_dir.empty())
    store_ = std::make_unique<artifact::ArtifactStore>(
        artifact::ArtifactStore::Options{options_.cache_dir,
                                         options_.cache_budget_bytes});
}

ServiceServer::~ServiceServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_batcher_ = true;
  }
  queue_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  for (const auto& conn : conns_) {
    if (conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (const auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

bool ServiceServer::start(std::string* error) {
  if (::pipe(wake_pipe_) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  listen_fd_ = listen_unix(options_.socket_path, error);
  if (listen_fd_ < 0) return false;
  batcher_ = std::thread([this] { batch_loop(); });
  return true;
}

void ServiceServer::request_drain() {
  // Only async-signal-safe calls here: this runs from SIGTERM handlers.
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

int ServiceServer::serve() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      // Reap connections whose reader already finished, so a long-lived
      // daemon does not accumulate one zombie thread per past client. The
      // write mutex serializes the close against a reply writer holding a
      // reference — the writer sees fd == -1, never a recycled descriptor.
      for (auto& old : conns_) {
        if (old->done.load() && old->reader.joinable()) {
          old->reader.join();
          std::lock_guard<std::mutex> wlock(old->write_mutex);
          ::close(old->fd);
          old->fd = -1;
        }
      }
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const auto& c) {
                                    return c->fd < 0 && !c->reader.joinable();
                                  }),
                   conns_.end());
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { connection_loop(conn); });
  }

  // Graceful drain: stop accepting, stop reading (clients see EOF), let the
  // batcher finish everything already accepted, flush replies, then stats.
  draining_.store(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_)
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
    // Join the readers first: after this no thread can enqueue, so the
    // idle wait below really is the last job.
    for (const auto& conn : conns_)
      if (conn->reader.joinable()) conn->reader.join();
  }
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    stop_batcher_ = true;
  }
  queue_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) {
      std::lock_guard<std::mutex> wlock(conn->write_mutex);
      if (conn->fd >= 0) ::close(conn->fd);
      conn->fd = -1;
    }
    conns_.clear();
  }
  std::fprintf(stdout, "%s\n", stats_summary().c_str());
  std::fflush(stdout);
  return 0;
}

void ServiceServer::connection_loop(std::shared_ptr<Connection> conn) {
  // Set on a protocol violation: the connection is actively dropped
  // (SHUT_RDWR, so the client sees EOF now, not at the next reap). A clean
  // client EOF leaves the socket half-open — replies to still-queued
  // pipelined jobs must be able to go out.
  bool dropped = false;
  for (;;) {
    Frame frame = read_frame(conn->fd);
    if (frame.status == Frame::Status::Eof) break;
    if (frame.status == Frame::Status::Error) {
      // Malformed framing: one error reply, then drop the connection.
      reply(conn, error_reply(frame.error));
      dropped = true;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++requests_;
    }
    ParsedRequest request = parse_request(frame.payload);
    if (!request.ok()) {
      reply(conn, error_reply(request.error, request.id));
      dropped = true;
      break;  // strict protocol: malformed request drops the connection
    }
    if (request.op == "ping") {
      json::Value doc;
      doc["ok"] = json::Value(true);
      doc["pong"] = json::Value(true);
      reply(conn, doc.dump());
      continue;
    }
    if (request.op == "status") {
      json::Value doc;
      doc["ok"] = json::Value(true);
      doc["status"] = status_json();
      reply(conn, doc.dump());
      continue;
    }
    if (request.op == "shutdown") {
      json::Value doc;
      doc["ok"] = json::Value(true);
      doc["draining"] = json::Value(true);
      reply(conn, doc.dump());
      request_drain();
      continue;
    }
    handle_job(conn, std::move(*request.job));
  }
  if (dropped) {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  conn->done.store(true);
}

void ServiceServer::handle_job(const std::shared_ptr<Connection>& conn,
                               JobRequest job) {
  const auto t_arrival = Clock::now();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++job_requests_;
  }
  // Incremental recompilation: an identical request (dependency hash over
  // source + config + pass-pipeline identity + run parameters) is resolved
  // straight from the memo — no store, no disk, no compile. The resolved
  // record still rides the queue so the BATCHER sends it: the reader thread
  // must never block in send() (a pipelining client that is not draining
  // replies yet would stop this thread reading, fill both socket buffers,
  // and deadlock the daemon).
  Queued queued;
  queued.job = std::move(job);
  queued.conn = conn;
  queued.enqueued = t_arrival;
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    const auto it = memo_.find(queued.job.request_hash().hex());
    if (it != memo_.end()) {
      queued.memo_hit = true;
      queued.memo_record = it->second;
    }
  }
  std::lock_guard<std::mutex> lock(queue_mutex_);
  queue_.push_back(std::move(queued));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    queue_peak_ = std::max(queue_peak_,
                           static_cast<std::uint64_t>(queue_.size()));
  }
  queue_cv_.notify_one();
}

void ServiceServer::batch_loop() {
  for (;;) {
    std::vector<Queued> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stop_batcher_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_batcher_) return;
        continue;
      }
      // Tiny gather window: pipelined clients enqueue bursts; taking the
      // burst as one batch amortizes the fleet fan-out.
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      lock.lock();
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      in_flight_ = batch.size();
    }
    process_batch(std::move(batch));
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      in_flight_ = 0;
    }
    idle_cv_.notify_all();
  }
}

void ServiceServer::reply_record(const Queued& queued,
                                 const json::Value& record,
                                 const char* cache_kind) {
  json::Value doc;
  doc["ok"] = json::Value(true);
  doc["id"] = json::Value(queued.job.id);
  doc["record"] = record;
  doc["cache"] = json::Value(cache_kind);
  doc["seconds"] = json::Value(seconds_since(queued.enqueued));
  reply(queued.conn, doc.dump());
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++jobs_completed_;
  note_latency(queued.job.job_class(), seconds_since(queued.enqueued));
}

void ServiceServer::process_batch(std::vector<Queued> batch) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++batches_;
  }
  // Memo-resolved jobs first: the reader already attached the finished
  // record, so these are pure sends (and the latency the client sees is
  // queue wait + one gather window, not a compile).
  for (const Queued& queued : batch) {
    if (!queued.memo_hit) continue;
    reply_record(queued, queued.memo_record, "incremental");
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++incremental_hits_;
  }
  // Group jobs that share every run option (config included) so each group
  // is exactly one run_fleet call.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].memo_hit) continue;
    groups[batch[i].job.class_key()].push_back(i);
  }

  for (const auto& [class_key, indices] : groups) {
    (void)class_key;
    const JobRequest& head = batch[indices.front()].job;

    // Parse + typecheck each job's source up front; per-job failures are
    // replied as failed records, never thrown at the batch.
    std::vector<minic::Program> programs;
    programs.reserve(indices.size());
    std::vector<driver::FleetUnit> units;
    std::vector<std::size_t> unit_to_batch;
    for (const std::size_t i : indices) {
      const JobRequest& job = batch[i].job;
      try {
        minic::Program program = minic::parse_program(job.source, job.name);
        minic::type_check(program);
        std::string entry = job.entry;
        if (entry == "auto") {
          entry = resolve_auto_entry(program);
          if (entry.empty())
            throw std::runtime_error(
                "entry 'auto' needs a single function (or a single *_step "
                "function)");
        } else if (!entry.empty() &&
                   program.find_function(entry) == nullptr) {
          throw std::runtime_error("no function '" + entry + "'");
        }
        programs.push_back(std::move(program));
        driver::FleetUnit unit;
        unit.name = job.name;
        unit.entry = entry;
        unit.input_seed = job.input_seed;
        units.push_back(std::move(unit));
        unit_to_batch.push_back(i);
      } catch (const std::exception& e) {
        driver::FleetRecord failed;
        failed.name = job.name;
        failed.config = job.config;
        failed.ok = false;
        failed.error = e.what();
        reply_record(batch[i], driver::record_core_json(failed), "miss");
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++misses_;
      }
    }
    if (units.empty()) continue;
    // programs stopped reallocating; wire the unit pointers up now.
    for (std::size_t u = 0; u < units.size(); ++u)
      units[u].program = &programs[u];

    driver::FleetOptions fleet;
    static_cast<driver::RunSpec&>(fleet) = head;
    fleet.jobs = options_.jobs;
    fleet.configs = {head.config};
    fleet.store = store_.get();
    validate::attach_campaign_validation(&fleet);

    driver::FleetReport report;
    try {
      report = driver::run_fleet(units, fleet);
    } catch (const std::exception& e) {
      // run_fleet only throws on option-validation errors; fail every job
      // in the group rather than the connection.
      for (const std::size_t u : unit_to_batch)
        reply(batch[u].conn, error_reply(e.what(), batch[u].job.id));
      continue;
    }

    for (std::size_t u = 0; u < units.size(); ++u) {
      const driver::FleetRecord& record = report.records[u];
      const Queued& queued = batch[unit_to_batch[u]];
      const char* cache_kind = record.cache_hit
                                   ? "full"
                                   : (record.cache_image_hit ? "image"
                                                             : "miss");
      const json::Value core = driver::record_core_json(record);
      // Memoize BEFORE replying: a client may resubmit the instant it sees
      // the reply, and that resubmission must find the memo populated.
      {
        std::lock_guard<std::mutex> lock(memo_mutex_);
        memo_.emplace(queued.job.request_hash().hex(), core);
      }
      reply_record(queued, core, cache_kind);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      if (record.cache_hit)
        ++full_hits_;
      else if (record.cache_image_hit)
        ++image_hits_;
      else
        ++misses_;
      monitored_steps_ += record.monitored_steps;
      monitor_violations_ += record.monitor_violations;
      for (const pass::PassStat& p : record.pass_stats.passes)
        validator_checks_ += p.checks;
    }
  }
}

void ServiceServer::reply(const std::shared_ptr<Connection>& conn,
                          const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->fd < 0) return;
  // A client that disconnected mid-campaign loses its replies; the daemon
  // shrugs (write failure is not an error worth more than dropping).
  (void)write_frame(conn->fd, payload);
}

void ServiceServer::note_latency(const std::string& job_class,
                                 double seconds) {
  // stats_mutex_ held by callers.
  latency_[job_class].push_back(seconds);
}

json::Value ServiceServer::status_json() {
  json::Value status;
  status["uptime_seconds"] = json::Value(seconds_since(started_));
  status["pid"] = json::Value(static_cast<std::int64_t>(::getpid()));
  if (options_.shard_index >= 0)
    status["shard_index"] =
        json::Value(static_cast<std::int64_t>(options_.shard_index));
  status["jobs"] = json::Value(static_cast<std::int64_t>(options_.jobs));
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    status["queue_depth"] = json::Value(
        static_cast<std::uint64_t>(queue_.size() + in_flight_));
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  status["queue_peak"] = json::Value(queue_peak_);
  status["requests"] = json::Value(requests_);
  status["job_requests"] = json::Value(job_requests_);
  status["jobs_completed"] = json::Value(jobs_completed_);
  status["batches"] = json::Value(batches_);
  const double uptime = seconds_since(started_);
  status["jobs_per_second"] = json::Value(
      uptime > 0.0 ? static_cast<double>(jobs_completed_) / uptime : 0.0);

  json::Value cache;
  cache["incremental"] = json::Value(incremental_hits_);
  cache["full"] = json::Value(full_hits_);
  cache["image"] = json::Value(image_hits_);
  cache["miss"] = json::Value(misses_);
  if (store_ != nullptr) {
    const artifact::StoreStats s = store_->stats();
    json::Value store;
    store["lookups"] = json::Value(s.lookups);
    store["hits"] = json::Value(s.hits);
    store["misses"] = json::Value(s.misses);
    store["publishes"] = json::Value(s.publishes);
    store["corrupt_dropped"] = json::Value(s.corrupt_dropped);
    store["evictions"] = json::Value(s.evictions);
    store["resident_entries"] = json::Value(s.resident_entries);
    store["resident_bytes"] = json::Value(s.resident_bytes);
    cache["store"] = std::move(store);
  }
  status["cache"] = std::move(cache);

  json::Value latency;
  for (const auto& [job_class, sample] : latency_) {
    json::Value l;
    l["count"] = json::Value(static_cast<std::uint64_t>(sample.size()));
    l["p50_ms"] = json::Value(1e3 * percentile(sample, 0.50));
    l["p99_ms"] = json::Value(1e3 * percentile(sample, 0.99));
    latency[job_class] = std::move(l);
  }
  status["latency"] = std::move(latency);

  status["validator_checks"] = json::Value(validator_checks_);
  status["monitored_steps"] = json::Value(monitored_steps_);
  status["monitor_violations"] = json::Value(monitor_violations_);
  status["arena_peak_bytes"] = json::Value(global_arena_peak_bytes());
  return status;
}

std::string ServiceServer::stats_summary() {
  const json::Value status = status_json();
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "vccd: served %llu job(s) in %llu batch(es) over %.1fs "
      "(%.1f jobs/s); cache: %llu incremental, %llu full, %llu image, "
      "%llu miss; queue peak %llu; monitor: %llu step(s), %llu violation(s); "
      "arena peak %llu bytes",
      static_cast<unsigned long long>(status.at("jobs_completed").as_u64()),
      static_cast<unsigned long long>(status.at("batches").as_u64()),
      status.at("uptime_seconds").as_double(),
      status.at("jobs_per_second").as_double(),
      static_cast<unsigned long long>(
          status.at("cache").at("incremental").as_u64()),
      static_cast<unsigned long long>(status.at("cache").at("full").as_u64()),
      static_cast<unsigned long long>(status.at("cache").at("image").as_u64()),
      static_cast<unsigned long long>(status.at("cache").at("miss").as_u64()),
      static_cast<unsigned long long>(status.at("queue_peak").as_u64()),
      static_cast<unsigned long long>(status.at("monitored_steps").as_u64()),
      static_cast<unsigned long long>(
          status.at("monitor_violations").as_u64()),
      static_cast<unsigned long long>(
          status.at("arena_peak_bytes").as_u64()));
  return buf;
}

}  // namespace vc::service
