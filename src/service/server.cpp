#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

#include "driver/fleet.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "validate/validate.hpp"

namespace vc::service {

namespace {

using Clock = std::chrono::steady_clock;

/// A batch that holds a memo miss gathers while more work may still join
/// it, checked again on every dispatch and at least this often, so bytes
/// that turn out to be a ping, a status or a dropped connection cannot
/// hold it...
constexpr auto kGatherRecheck = std::chrono::microseconds(100);
/// ...and never for longer than this from the batcher's wake-up.
constexpr auto kGatherCap = std::chrono::milliseconds(5);

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

ServiceServer::ServiceServer(Frontend* frontend, ServerOptions options)
    : frontend_(*frontend), options_(std::move(options)) {
  if (!options_.cache_dir.empty())
    store_ = std::make_unique<artifact::ArtifactStore>(
        artifact::ArtifactStore::Options{options_.cache_dir,
                                         options_.cache_budget_bytes});
  batcher_ = std::thread([this] { batch_loop(); });
}

ServiceServer::~ServiceServer() { stop_batcher(); }

void ServiceServer::stop_batcher() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_batcher_ = true;
  }
  queue_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

int ServiceServer::drain() {
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }
  stop_batcher();
  return 0;
}

void ServiceServer::dispatch(JobTicket ticket, JobRequest job) {
  // Incremental recompilation: an identical request (dependency hash over
  // source + config + pass-pipeline identity + run parameters) is resolved
  // straight from the memo — no store, no disk, no compile. The resolved
  // record still rides the queue so the BATCHER sends it.
  Queued queued{std::move(ticket), std::move(job), "", std::nullopt};
  queued.memo_key = queued.job.request_hash().hex();
  queued.memo_record = memo_lookup(queued.memo_key);
  std::lock_guard<std::mutex> lock(queue_mutex_);
  queue_.push_back(std::move(queued));
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
      // Pipelined clients enqueue bursts; taking a burst as one batch
      // amortizes the fleet fan-out. A batch that holds a miss gathers
      // while a queued job's connection is still being read. It closes at
      // the second check in a row, one re-check apart with no dispatch in
      // between, that finds them all idle: a client that writes each
      // request with its own write() leaves its socket empty for a moment
      // between two of them. A queue of memo hits only has sends to do, so
      // it goes at once.
      const bool has_miss =
          std::any_of(queue_.begin(), queue_.end(),
                      [](const Queued& q) { return !q.memo_record; });
      const Clock::time_point cap = Clock::now() + kGatherCap;
      for (int idle = 0; has_miss && Clock::now() < cap;) {
        const std::size_t queued = queue_.size();
        idle = queued_connection_is_read(lock) ? 0 : idle + 1;
        if (idle == 2 && queue_.size() == queued) break;
        if (queue_cv_.wait_for(lock, kGatherRecheck,
                               [&] { return queue_.size() != queued; }))
          idle = 0;
      }
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

bool ServiceServer::queued_connection_is_read(
    std::unique_lock<std::mutex>& lock) {
  std::vector<std::shared_ptr<Connection>> conns;
  for (const Queued& q : queue_)
    if (std::find(conns.begin(), conns.end(), q.ticket.conn) == conns.end())
      conns.push_back(q.ticket.conn);
  // The sockets are asked without the queue lock, so readers can still
  // dispatch meanwhile.
  lock.unlock();
  const bool reading =
      std::any_of(conns.begin(), conns.end(), [](const auto& conn) {
        return Frontend::has_unread_bytes(*conn);
      });
  lock.lock();
  return reading;
}

std::optional<json::Value> ServiceServer::memo_lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  const auto it = memo_.find(key);
  if (it == memo_.end()) return std::nullopt;
  memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second.lru);
  return it->second.record;
}

void ServiceServer::memoize(const std::string& key, const json::Value& record) {
  const std::uint64_t bytes = key.size() + record.dump().size();
  std::lock_guard<std::mutex> lock(memo_mutex_);
  if (memo_.contains(key)) return;  // the same job twice in one batch
  memo_lru_.push_front(key);
  memo_.emplace(key, MemoEntry{record, bytes, memo_lru_.begin()});
  memo_bytes_ += bytes;
  while (memo_bytes_ > options_.memo_budget_bytes) {
    const auto oldest = memo_.find(memo_lru_.back());
    memo_bytes_ -= oldest->second.bytes;
    memo_.erase(oldest);
    memo_lru_.pop_back();
    ++memo_evictions_;
  }
}

void ServiceServer::process_batch(std::vector<Queued> batch) {
  ++batches_;
  // Memo-resolved jobs first: the reader already attached the finished
  // record, so these are pure sends (and the latency the client sees is
  // queue wait plus the send, not a compile).
  for (Queued& queued : batch) {
    if (queued.memo_record)
      frontend_.complete(queued.ticket, std::move(*queued.memo_record),
                         "incremental");
  }
  // Group jobs that share every run option (config included) so each group
  // is exactly one run_fleet call.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].memo_record) continue;
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
        frontend_.complete(batch[i].ticket, driver::record_core_json(failed),
                           "miss");
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
        frontend_.fail(batch[u].ticket, e.what());
      continue;
    }

    for (std::size_t u = 0; u < units.size(); ++u) {
      const driver::FleetRecord& record = report.records[u];
      const Queued& queued = batch[unit_to_batch[u]];
      const json::Value core = driver::record_core_json(record);
      // Memoize BEFORE replying: a client may resubmit the instant it sees
      // the reply, and that resubmission must find the memo populated.
      memoize(queued.memo_key, core);
      monitored_steps_ += record.monitored_steps;
      monitor_violations_ += record.monitor_violations;
      for (const pass::PassStat& p : record.pass_stats.passes)
        validator_checks_ += p.checks;
      frontend_.complete(queued.ticket, core,
                         record.cache_hit         ? "full"
                         : record.cache_image_hit ? "image"
                                                  : "miss");
    }
  }
}

void ServiceServer::add_status(json::Value* status) {
  json::Value& doc = *status;
  if (options_.shard_index >= 0)
    doc["shard_index"] =
        json::Value(static_cast<std::int64_t>(options_.shard_index));
  doc["jobs"] = json::Value(static_cast<std::int64_t>(options_.jobs));
  doc["batches"] = json::Value(batches_.load());
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    doc["memo_entries"] =
        json::Value(static_cast<std::uint64_t>(memo_.size()));
    doc["memo_bytes"] = json::Value(memo_bytes_);
    doc["memo_evictions"] = json::Value(memo_evictions_);
  }
  if (store_ != nullptr) {
    const artifact::StoreStats s = store_->stats();
    json::Value& store = doc["cache"]["store"];
    store["lookups"] = json::Value(s.lookups);
    store["hits"] = json::Value(s.hits);
    store["misses"] = json::Value(s.misses);
    store["publishes"] = json::Value(s.publishes);
    store["corrupt_dropped"] = json::Value(s.corrupt_dropped);
    store["evictions"] = json::Value(s.evictions);
    store["resident_entries"] = json::Value(s.resident_entries);
    store["resident_bytes"] = json::Value(s.resident_bytes);
  }
  doc["validator_checks"] = json::Value(validator_checks_.load());
  doc["monitored_steps"] = json::Value(monitored_steps_.load());
  doc["monitor_violations"] = json::Value(monitor_violations_.load());
}

}  // namespace vc::service
