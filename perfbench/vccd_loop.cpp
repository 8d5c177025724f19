// vccd_edit_loop: one closed-loop client (no think time) against a
// single-process vccd (--jobs=1) over a fresh artifact store. Each replay
// spawns a fresh daemon and plays the same seeded request sequence:
//
//   edit   — every node of the suite carries one model-level edit, each
//            (node, config) request is a memo miss that compiles, runs the
//            IPET WCET, executes and publishes to the store;
//   memo   — the same requests again: incremental-memo hits;
//   store  — after a SIGTERM drain and a respawn over the same store, the
//            same requests again: artifact-store full hits.
//
// Every reply record must be byte-identical to an in-process serial
// run_fleet of the same jobs. Latencies are client send -> reply, each
// request's minimum over the replays.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>

#include "artifact/store.hpp"
#include "perfbench.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"

namespace perfbench {

using namespace vc;

namespace {

constexpr std::uint64_t kSuiteSeed = 20110318;
constexpr int kNodes = 10;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A vccd child process. The destructor SIGKILLs and reaps a daemon that
/// was not drained, so no exit path leaves one running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// fork/exec with the daemon's stdout sent to stderr: the benchmark's
  /// stdout ends with its result line and must carry nothing else.
  bool spawn(const std::string& vccd, const std::vector<std::string>& args) {
    std::vector<std::string> storage{vccd};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : storage) argv.push_back(s.data());
    argv.push_back(nullptr);
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(STDERR_FILENO, STDOUT_FILENO);
      ::execv(vccd.c_str(), argv.data());
      ::_exit(127);
    }
    return true;
  }

  /// Readiness by connect + ping every 100 us. service::wait_until_ready
  /// sleeps 20 ms between attempts, which would quantise set-up time.
  bool wait_ready(const std::string& socket_path, double timeout_s) {
    json::Value ping;
    ping["op"] = json::Value("ping");
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (Clock::now() < deadline) {
      service::ServiceClient client;
      if (client.connect(socket_path)) {
        const auto reply = client.call(ping);
        if (reply && reply->at("ok").as_bool()) return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;  // died during start-up
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  }

  /// SIGTERM drain; the daemon's exit code (0 = clean drain).
  int drain() {
    const int code = service::terminate_daemon(pid_, 30.0);
    pid_ = -1;
    return code;
  }

  void kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

json::Value op(const char* name) {
  json::Value doc;
  doc["op"] = json::Value(name);
  return doc;
}

}  // namespace

Outcome run_vccd_edit_loop(const RunArgs& args) {
  namespace fs = std::filesystem;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  JobSpec spec;
  spec.engine = wcet::WcetEngine::Both;
  spec.exec_cycles = 20;
  const std::uint64_t suite_seed = args.suite_seed.value_or(kSuiteSeed);
  Outcome outcome;

  // The edited suite: --seed picks which parameter each edit changes.
  const Suite suite = build_suite(suite_seed, kNodes, args.seed);
  const std::vector<Job> jobs = make_jobs(suite, args.seed);
  const std::size_t n = jobs.size();

  // In-process serial reference over the same jobs, plus the gate.
  std::vector<driver::FleetRecord> reference;
  std::vector<std::string> ref_dumps;
  for (std::size_t j = 0; j < n; ++j) {
    reference.push_back(run_fleet_job(jobs[j], spec));
    check_record(reference.back(), spec, &outcome);
    ref_dumps.push_back(driver::record_core_json(reference.back()).dump());
    std::string mismatch;
    const Decomposed d =
        run_decomposed(jobs[j], spec, nullptr, static_cast<int>(j), &mismatch);
    outcome.check(driver::record_core_json(d.record).dump() == ref_dumps[j],
                  jobs[j].name + ": decomposed record differs from run_fleet's");
    outcome.check(mismatch.empty(), "interpreter mismatch: " + mismatch);
  }
  const std::string ref_digest = records_digest(ref_dumps);
  std::printf("reference: %zu records, digest %s\n", n, ref_digest.c_str());

  std::vector<json::Value> requests;
  for (std::size_t j = 0; j < n; ++j) {
    service::JobRequest r;
    r.id = static_cast<std::int64_t>(j);
    r.name = jobs[j].name;
    r.source = suite.sources[j / std::size(driver::kAllConfigs)];
    r.entry = jobs[j].entry;
    r.config = jobs[j].config;
    r.target = spec.target;
    r.exec_cycles = spec.exec_cycles;
    r.wcet = true;
    r.wcet_engine = spec.engine;
    r.monitor = spec.monitor;
    r.ssa = spec.ssa;
    r.input_seed = jobs[j].input_seed;
    requests.push_back(service::job_to_json(r));
  }

  fs::create_directories(args.work_dir);
  const std::string tag = std::to_string(::getpid());
  const std::string socket_path = args.work_dir + "/vccd-" + tag + ".sock";
  const std::string store_dir = args.work_dir + "/store-" + tag;
  const std::vector<std::string> daemon_args{
      "--socket=" + socket_path, "--jobs=1", "--cache-dir=" + store_dir};

  std::optional<Tracer> tracer;
  std::optional<LayerBook> book;
  if (args.trace) {
    tracer.emplace();
    book.emplace(jobs, spec);
  }
  Tracer* tp = tracer ? &*tracer : nullptr;

  // Per-request minimums: [phase * n + j] for the daemon/transport split.
  std::vector<double> edit_best(n, kInf), memo_best(n, kInf), store_best(n, kInf);
  std::vector<double> daemon_best(3 * n, kInf), transport_best(3 * n, kInf);
  std::vector<double> setup_ms, generate_ms, parse_ms, reindex_ms, rss_mb;
  // Edit latency at the reference clock; the hit latencies stay wall time,
  // since the batcher's fixed 5 ms gather window dominates them.
  std::vector<double> ghz_samples, edit_ref_best(n, kInf);
  double memo_hits = 0, batches = 0, publishes = 0, store_hits = 0, arena_mb = 0;

  int replays = 0;
  for (;; ++replays) {
    const auto t_round = Clock::now();
    const int replay_span = tp ? tp->begin("vccd.replay", -1, -1) : -1;
    fs::remove_all(store_dir);
    Daemon daemon;

    // Set-up: the client's suite (generate, print -> parse -> type-check),
    // then the daemon from spawn until its first ping answers.
    const double setup_ghz = clock_ghz();
    const Suite fresh = build_suite(suite_seed, kNodes, args.seed);
    generate_ms.push_back(fresh.generate_ms);
    parse_ms.push_back(fresh.parse_ms);
    const auto t_spawn = Clock::now();
    bool ready = daemon.spawn(args.vccd_path, daemon_args) &&
                 daemon.wait_ready(socket_path, 30.0);
    outcome.check(ready, "vccd did not answer a ping: " + args.vccd_path);
    if (!ready) {
      if (tp != nullptr) tp->end(replay_span);
      break;
    }
    setup_ms.push_back(at_reference_clock(
        fresh.generate_ms + fresh.parse_ms + ms_between(t_spawn, Clock::now()),
        setup_ghz));

    service::ServiceClient client;
    const auto run_phase = [&](std::size_t phase, const char* want_cache,
                               const char* span_name,
                               std::vector<double>* best) {
      std::vector<std::string> dumps;
      for (std::size_t j = 0; j < n; ++j) {
        const std::string who = jobs[j].name + "/" +
                                driver::to_string(jobs[j].config) + " " +
                                span_name;
        const double ghz = clock_ghz();
        ghz_samples.push_back(ghz);
        ScopedSpan span(tp, span_name, replay_span, static_cast<int>(j));
        const auto t0 = Clock::now();
        std::optional<json::Value> reply;
        if (client.send(requests[j])) reply = client.recv();
        const double ms = ms_between(t0, Clock::now());
        const bool ok = reply && reply->at("ok").as_bool();
        outcome.check(ok, who + ": no ok reply");
        if (!ok) continue;
        dumps.push_back(reply->at("record").dump());
        outcome.check(dumps.back() == ref_dumps[j],
                      who + ": record differs from in-process run_fleet");
        const std::string cache = reply->at("cache").as_string();
        outcome.check(cache == want_cache,
                      who + ": served as '" + cache + "', want '" + want_cache + "'");
        (*best)[j] = std::min((*best)[j], ms);
        if (phase == 0)
          edit_ref_best[j] = std::min(edit_ref_best[j], at_reference_clock(ms, ghz));
        const double daemon_ms = reply->at("seconds").as_double() * 1e3;
        daemon_best[phase * n + j] = std::min(daemon_best[phase * n + j], daemon_ms);
        transport_best[phase * n + j] =
            std::min(transport_best[phase * n + j], ms - daemon_ms);
      }
      return dumps;
    };

    outcome.check(client.connect(socket_path), "cannot connect to vccd");
    const std::string digest =
        records_digest(run_phase(0, "miss", "vccd.edit", &edit_best));
    outcome.check(digest == ref_digest,
                  "replay " + std::to_string(replays) + " digest differs");
    run_phase(1, "incremental", "vccd.memo_hit", &memo_best);
    const json::Value status = client.call(op("status")).value_or(json::Value());
    memo_hits = static_cast<double>(status.at("status").at("cache").at("incremental").as_u64());
    batches = static_cast<double>(status.at("status").at("batches").as_u64());
    publishes = static_cast<double>(
        status.at("status").at("cache").at("store").at("publishes").as_u64());
    arena_mb = static_cast<double>(status.at("status").at("arena_peak_bytes").as_u64()) /
               (1024.0 * 1024.0);
    rss_mb.push_back(peak_rss_mb(daemon.pid()));
    client.close();
    {
      ScopedSpan span(tp, "vccd.drain", replay_span, -1);
      outcome.check(daemon.drain() == 0, "vccd SIGTERM drain did not exit 0");
    }
    if (tp != nullptr) {
      // The store index rebuild the respawned daemon pays, timed alone.
      const auto t0 = Clock::now();
      { artifact::ArtifactStore reopened({store_dir, 0}); }
      reindex_ms.push_back(ms_between(t0, Clock::now()));
    }

    {
      ScopedSpan span(tp, "vccd.respawn", replay_span, -1);
      ready = daemon.spawn(args.vccd_path, daemon_args) &&
              daemon.wait_ready(socket_path, 30.0);
    }
    outcome.check(ready, "respawned vccd did not answer a ping");
    if (!ready) {
      if (tp != nullptr) tp->end(replay_span);
      break;
    }
    outcome.check(client.connect(socket_path), "cannot reconnect to vccd");
    run_phase(2, "full", "vccd.store_hit", &store_best);
    const json::Value status2 = client.call(op("status")).value_or(json::Value());
    store_hits = static_cast<double>(
        status2.at("status").at("cache").at("store").at("hits").as_u64());
    client.close();
    outcome.check(daemon.drain() == 0, "respawned vccd drain did not exit 0");
    if (tp != nullptr) {
      tp->end(replay_span);
      outcome.check(book->round(tp, &outcome) == ref_digest,
                    "in-process traced round digest differs");
    }
    std::printf("replay %d: %zu requests x 3 phases, digest %s\n", replays, n,
                digest.c_str());
    const auto now = Clock::now();
    if (replays >= 2 && now + (now - t_round) / 2 >= deadline) break;
  }
  ++replays;
  fs::remove_all(store_dir);
  fs::remove(socket_path);

  double edit_total_ms = 0.0, edit_wall_ms = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    edit_total_ms += edit_ref_best[j];
    edit_wall_ms += edit_best[j];
  }
  const auto min_of = [](const std::vector<double>& v) {
    return v.empty() ? kInf : *std::min_element(v.begin(), v.end());
  };
  Metrics& e2e = outcome.end_to_end;
  e2e["jobs_per_s"] = static_cast<double>(n) / (edit_total_ms / 1e3);
  e2e["job_ms_p50"] = quantile(edit_ref_best, 0.50);
  e2e["job_ms_p75"] = quantile(edit_ref_best, 0.75);
  e2e["setup_s"] = min_of(setup_ms) / 1e3;
  e2e["peak_rss_mb"] = median(rss_mb);
  const Ratios ratios = o0_ratios(reference);
  e2e["wcet_ratio_to_o0"] = ratios.wcet;
  e2e["code_ratio_to_o0"] = ratios.code;
  e2e["cycles_ratio_to_o0"] = ratios.cycles;

  Metrics& layer = outcome.per_layer;
  if (book) book->emit(&layer);
  layer["dataflow.generate_ms"] = min_of(generate_ms);
  layer["minic.parse_ms"] = min_of(parse_ms);
  layer["artifact.reindex_ms"] = tp != nullptr ? min_of(reindex_ms) : 0.0;
  layer["artifact.hits"] = store_hits;
  layer["artifact.publishes"] = publishes;
  layer["artifact.store_hit_ms_p50"] = quantile(store_best, 0.50);
  layer["service.daemon_ms_p50"] = quantile(daemon_best, 0.50);
  layer["service.transport_ms_p50"] = quantile(transport_best, 0.50);
  layer["service.memo_hit_ms_p50"] = quantile(memo_best, 0.50);
  layer["service.memo_hits"] = memo_hits;
  layer["service.batches"] = batches;
  layer["service.arena_peak_mb"] = arena_mb;
  layer["host.clock_ghz"] = median(ghz_samples);
  layer["host.wall_jobs_per_s"] = static_cast<double>(n) / (edit_wall_ms / 1e3);

  std::printf("vccd_edit_loop: %d nodes x 4 configs, %d replays; wall %.2f "
              "edits/s at a median clock of %.2f GHz\n",
              kNodes, replays, layer["host.wall_jobs_per_s"],
              layer["host.clock_ghz"]);
  if (tracer) {
    const std::string path = args.work_dir + "/trace-" + args.workload + ".json";
    outcome.check(tracer->write_chrome_json(path), "cannot write " + path);
    std::printf("trace: %zu spans written to %s\n", tracer->size(), path.c_str());
  }
  return outcome;
}

}  // namespace perfbench
