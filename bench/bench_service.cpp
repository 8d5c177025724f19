// Service-mode campaign bench: the daemonized counterpart of
// bench_cache_warm. One serial in-process run_fleet pass is the reference;
// every daemon arm must reproduce its record set byte-for-byte
// (driver::record_core_json) while the latency/cache profile changes:
//
//   cold     — fresh daemon, empty store: every job compiles cold;
//   warm     — same daemon, same jobs: the incremental memo (dependency
//              hash over source + config + pass pipeline + run params)
//              answers everything without touching the queue or the disk;
//   restart  — SIGTERM the daemon (must drain and exit 0), respawn over
//              the same store directory, resubmit: the memo is gone, the
//              persistent artifact index serves what validation allows;
//   kill     — a sharded daemon (--shards=N); one shard is SIGKILLed while
//              the campaign streams in. The supervisor must restart it and
//              resubmit its pending jobs: every job answered exactly once,
//              records still identical, shard_restarts >= 1, and the final
//              SIGTERM drain still exits 0.
//
// Percentile latencies are the daemon-observed per-job seconds from the
// replies. Each single-daemon arm also reports how many batches the daemon
// ran for it (its status `batches`, read before and after the arm). --report-json=FILE writes the BENCH_service.json document
// (schema vcflight-bench-service-v1). Extra flags over the shared set:
// --clients=N concurrent submitting clients (default 4), --shards=N for
// the kill arm (default 2), --vccd=PATH daemon binary override, and
// --emit-suite=DIR which just writes the generated suite as .mc files
// (the input for CI's `vcc --connect --batch` smoke) and exits.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "bench_common.hpp"
#include "minic/printer.hpp"
#include "service/client.hpp"

#ifndef VCFLIGHT_VCCD_PATH
#define VCFLIGHT_VCCD_PATH "vccd"
#endif

using namespace vc;

namespace {

struct SuiteJob {
  std::string name;
  std::string source;
  std::string entry;
  std::uint64_t seed = 0;
};

struct ArmResult {
  std::string arm;
  double wall_seconds = 0.0;
  std::vector<double> latencies;  // daemon-reported seconds per job
  std::map<std::string, std::string> records;  // name -> core-record dump
  std::uint64_t incremental = 0, full = 0, image = 0, miss = 0;
  std::size_t protocol_errors = 0;  // ok=false replies / dead connections
  std::size_t duplicates = 0;       // same id answered twice
  /// Batches the daemon ran for this arm (its status `batches` counter);
  /// unset for a supervisor, which forwards jobs and batches nothing.
  std::optional<std::uint64_t> batches;
};

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t index =
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(values.size()));
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

json::Value query_status(const std::string& socket_path) {
  service::ServiceClient client;
  if (!client.connect(socket_path)) return {};
  json::Value request;
  request["op"] = json::Value("status");
  const auto reply = client.call(request);
  if (!reply) return {};
  return reply->at("status");
}

/// The daemon's `batches` counter; unset when the status has none.
std::optional<std::uint64_t> batches_of(const std::string& socket_path) {
  const json::Value batches = query_status(socket_path).at("batches");
  if (batches.is_null()) return std::nullopt;
  return batches.as_u64();
}

/// Submits every job over `clients` concurrent pipelined connections and
/// collects the replies (arrival order is arbitrary; ids route them).
ArmResult run_arm(const std::string& arm, const std::string& socket_path,
                  const std::vector<SuiteJob>& jobs,
                  const driver::RunSpec& spec, int clients) {
  ArmResult result;
  result.arm = arm;
  const std::optional<std::uint64_t> batches_before = batches_of(socket_path);
  std::mutex merge_mutex;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::size_t> mine;
      for (std::size_t i = static_cast<std::size_t>(c); i < jobs.size();
           i += static_cast<std::size_t>(clients))
        mine.push_back(i);
      if (mine.empty()) return;
      service::ServiceClient client;
      if (!client.connect(socket_path)) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        result.protocol_errors += mine.size();
        return;
      }
      for (const std::size_t i : mine) {
        service::JobRequest job;
        static_cast<driver::RunSpec&>(job) = spec;
        job.id = static_cast<std::int64_t>(i);
        job.name = jobs[i].name;
        job.source = jobs[i].source;
        job.entry = jobs[i].entry;
        job.config = driver::Config::Verified;
        job.input_seed = jobs[i].seed;
        if (!client.send(service::job_to_json(job))) {
          std::lock_guard<std::mutex> lock(merge_mutex);
          result.protocol_errors += mine.size();
          return;
        }
      }
      std::map<std::int64_t, json::Value> replies;
      std::size_t dead = 0;
      for (std::size_t n = 0; n < mine.size(); ++n) {
        auto reply = client.recv();
        if (!reply) {
          dead = mine.size() - n;
          break;
        }
        const std::int64_t id = reply->at("id").as_i64(-1);
        if (!replies.emplace(id, std::move(*reply)).second) {
          std::lock_guard<std::mutex> lock(merge_mutex);
          ++result.duplicates;
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      result.protocol_errors += dead;
      for (auto& [id, doc] : replies) {
        if (!doc.at("ok").as_bool(false)) {
          ++result.protocol_errors;
          continue;
        }
        const std::size_t index = static_cast<std::size_t>(id);
        result.records[jobs[index].name] = doc.at("record").dump();
        result.latencies.push_back(doc.at("seconds").as_double());
        const std::string cache = doc.at("cache").as_string("miss");
        if (cache == "incremental")
          ++result.incremental;
        else if (cache == "full")
          ++result.full;
        else if (cache == "image")
          ++result.image;
        else
          ++result.miss;
      }
    });
  }
  for (auto& t : threads) t.join();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::optional<std::uint64_t> batches_after = batches_of(socket_path);
  if (batches_before && batches_after)
    result.batches = *batches_after - *batches_before;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Bench-specific flags, stripped before the shared parser sees argv.
  int clients = 4;
  int shards = 2;
  std::string vccd_path = VCFLIGHT_VCCD_PATH;
  std::string emit_suite;
  std::vector<char*> pass_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--clients=", 0) == 0) {
      clients = std::atoi(arg.c_str() + 10);
      if (clients < 1 || clients > 64) {
        std::fprintf(stderr, "bench_service: bad --clients value\n");
        return 2;
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atoi(arg.c_str() + 9);
      if (shards < 1 || shards > 16) {
        std::fprintf(stderr, "bench_service: bad --shards value\n");
        return 2;
      }
    } else if (arg.rfind("--vccd=", 0) == 0) {
      vccd_path = arg.substr(7);
    } else if (arg.rfind("--emit-suite=", 0) == 0) {
      emit_suite = arg.substr(13);
    } else {
      pass_argv.push_back(argv[i]);
    }
  }
  const bench::BenchFlags flags = bench::parse_bench_flags(
      static_cast<int>(pass_argv.size()), pass_argv.data(), "bench_service");
  const int nodes = flags.nodes > 0 ? flags.nodes : 40;

  std::vector<bench::NodeBundle> suite = bench::make_suite(nodes);
  suite.push_back(bench::pitch_law());
  std::vector<SuiteJob> jobs;
  jobs.reserve(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    SuiteJob job;
    job.name = suite[i].node.name();
    job.source = minic::print_program(suite[i].program);
    job.entry = suite[i].step_fn;
    job.seed = driver::fleet_job_seed(7, i);
    jobs.push_back(std::move(job));
  }

  if (!emit_suite.empty()) {
    std::filesystem::create_directories(emit_suite);
    for (const SuiteJob& job : jobs) {
      std::ofstream out(std::filesystem::path(emit_suite) /
                        (job.name + ".mc"));
      out << job.source;
    }
    std::printf("bench_service: wrote %zu .mc files to %s\n", jobs.size(),
                emit_suite.c_str());
    return 0;
  }

  std::puts("=== vccd service campaign: daemon arms vs serial reference ===");
  std::printf("workload: %zu jobs (compile + 50 cycles + WCET), %d "
              "client(s), kill arm over %d shard(s)\n\n",
              jobs.size(), clients, shards);

  // --- serial in-process reference --------------------------------------
  std::vector<driver::FleetUnit> units;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    driver::FleetUnit unit;
    unit.name = suite[i].node.name();
    unit.program = &suite[i].program;
    unit.entry = suite[i].step_fn;
    unit.input_seed = jobs[i].seed;
    units.push_back(std::move(unit));
  }
  // One spec for the reference and every daemon arm: the arms submit the
  // reference's knobs verbatim, so every record must match byte for byte.
  driver::FleetOptions ref_options = bench::fleet_options(flags);
  ref_options.jobs = 1;
  ref_options.configs = {driver::Config::Verified};
  ref_options.exec_cycles = 50;
  ref_options.wcet = true;
  const driver::FleetReport reference = driver::run_fleet(units, ref_options);
  std::map<std::string, std::string> ref_records;
  for (const driver::FleetRecord& r : reference.records)
    ref_records[r.name] = driver::record_core_json(r).dump();
  std::printf("serial reference: %zu records in %.2fs\n\n",
              reference.records.size(), reference.wall_seconds);

  // --- daemon arms -------------------------------------------------------
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() / "vcflight-bench-service";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const std::string socket_path = (scratch / "vccd.sock").string();
  const std::string cache_dir = (scratch / "store").string();
  std::vector<std::string> daemon_args{"--socket=" + socket_path,
                                       "--cache-dir=" + cache_dir};
  if (flags.jobs > 0)
    daemon_args.push_back("--jobs=" + std::to_string(flags.jobs));

  // The reference must pass the campaign gate; every arm must reproduce its
  // records byte for byte, which carries the verdict over to the arms.
  bool failed = bench::gate(reference, "bench_service") != 0;
  const auto check_arm = [&](const ArmResult& arm) {
    const bool match = arm.records == ref_records;
    const std::string batches =
        arm.batches ? std::to_string(*arm.batches) : "-";
    std::printf("%-8s %8.2fs  p50 %8.2fms  p99 %8.2fms  "
                "inc/full/image/miss %llu/%llu/%llu/%llu  batches %s  %s\n",
                arm.arm.c_str(), arm.wall_seconds,
                percentile(arm.latencies, 50.0) * 1000.0,
                percentile(arm.latencies, 99.0) * 1000.0,
                static_cast<unsigned long long>(arm.incremental),
                static_cast<unsigned long long>(arm.full),
                static_cast<unsigned long long>(arm.image),
                static_cast<unsigned long long>(arm.miss), batches.c_str(),
                match ? "records=IDENTICAL" : "records=MISMATCH");
    if (!match || arm.protocol_errors != 0 || arm.duplicates != 0) {
      std::fprintf(stderr,
                   "bench_service: arm '%s' FAILED (match=%d errors=%zu "
                   "dups=%zu)\n",
                   arm.arm.c_str(), match ? 1 : 0, arm.protocol_errors,
                   arm.duplicates);
      failed = true;
    }
  };

  pid_t daemon = service::spawn_daemon(vccd_path, daemon_args);
  if (daemon <= 0 || !service::wait_until_ready(socket_path, 30.0)) {
    std::fprintf(stderr, "bench_service: cannot start %s\n",
                 vccd_path.c_str());
    return 1;
  }
  const ArmResult cold =
      run_arm("cold", socket_path, jobs, ref_options, clients);
  check_arm(cold);
  const ArmResult warm =
      run_arm("warm", socket_path, jobs, ref_options, clients);
  check_arm(warm);
  if (warm.incremental != jobs.size()) {
    std::fprintf(stderr,
                 "bench_service: warm arm must be all incremental hits "
                 "(%llu/%zu)\n",
                 static_cast<unsigned long long>(warm.incremental),
                 jobs.size());
    failed = true;
  }

  // Restart: graceful drain must exit 0; the respawned daemon rebuilds the
  // store index from disk (the in-memory memo does not survive).
  const int drain1 = service::terminate_daemon(daemon, 30.0);
  if (drain1 != 0) {
    std::fprintf(stderr, "bench_service: SIGTERM drain exited %d (want 0)\n",
                 drain1);
    failed = true;
  }
  daemon = service::spawn_daemon(vccd_path, daemon_args);
  if (daemon <= 0 || !service::wait_until_ready(socket_path, 30.0)) {
    std::fprintf(stderr, "bench_service: cannot restart daemon\n");
    return 1;
  }
  const ArmResult restart =
      run_arm("restart", socket_path, jobs, ref_options, clients);
  check_arm(restart);
  const int drain2 = service::terminate_daemon(daemon, 30.0);
  if (drain2 != 0) {
    std::fprintf(stderr, "bench_service: restart drain exited %d (want 0)\n",
                 drain2);
    failed = true;
  }

  // Kill-one-shard: a sharded daemon loses one worker mid-campaign. The
  // supervisor must respawn it and resubmit; no job lost or duplicated.
  std::vector<std::string> shard_args = daemon_args;
  shard_args.push_back("--shards=" + std::to_string(shards));
  daemon = service::spawn_daemon(vccd_path, shard_args);
  if (daemon <= 0 || !service::wait_until_ready(socket_path, 30.0)) {
    std::fprintf(stderr, "bench_service: cannot start sharded daemon\n");
    return 1;
  }
  const json::Value before = query_status(socket_path);
  std::atomic<bool> kill_done{false};
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const auto& list = before.at("shard_list").as_array();
    if (!list.empty()) {
      const pid_t victim =
          static_cast<pid_t>(list.front().at("pid").as_i64());
      if (victim > 0) ::kill(victim, SIGKILL);
    }
    kill_done.store(true);
  });
  const ArmResult kill =
      run_arm("kill", socket_path, jobs, ref_options, clients);
  killer.join();
  check_arm(kill);
  // The respawn may still be settling; poll for the restart counter.
  std::uint64_t restarts = 0;
  for (int i = 0; i < 100; ++i) {
    restarts = query_status(socket_path).at("shard_restarts").as_u64();
    if (restarts >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (restarts < 1) {
    std::fprintf(stderr,
                 "bench_service: supervisor recorded no shard restart\n");
    failed = true;
  }
  const int drain3 = service::terminate_daemon(daemon, 60.0);
  if (drain3 != 0) {
    std::fprintf(stderr, "bench_service: sharded drain exited %d (want 0)\n",
                 drain3);
    failed = true;
  }

  const double cold_p50 = percentile(cold.latencies, 50.0);
  const double warm_p50 = percentile(warm.latencies, 50.0);
  bench::print_rule(78);
  std::printf("warm p50 / cold p50 = %.4f (want <= 0.1)\n",
              cold_p50 > 0.0 ? warm_p50 / cold_p50 : 0.0);
  std::printf("shard restarts observed: %llu\n",
              static_cast<unsigned long long>(restarts));
  if (cold_p50 > 0.0 && warm_p50 > cold_p50 * 0.1) {
    std::fprintf(stderr,
                 "bench_service: warm p50 %.4fms not <= 1/10 of cold p50 "
                 "%.4fms\n",
                 warm_p50 * 1000.0, cold_p50 * 1000.0);
    failed = true;
  }

  if (!flags.report_json.empty()) {
    json::Value doc;
    doc["schema"] = json::Value("vcflight-bench-service-v1");
    doc["jobs"] = json::Value(static_cast<std::uint64_t>(jobs.size()));
    doc["clients"] = json::Value(static_cast<std::int64_t>(clients));
    doc["shards"] = json::Value(static_cast<std::int64_t>(shards));
    doc["wcet_engine"] = json::Value(wcet::to_string(flags.wcet_engine));
    doc["validate"] = json::Value(driver::to_string(flags.validate));
    doc["monitor"] = json::Value(machine::to_string(flags.monitor));
    doc["reference_wall_seconds"] = json::Value(reference.wall_seconds);
    doc["warm_p50_over_cold_p50"] =
        json::Value(cold_p50 > 0.0 ? warm_p50 / cold_p50 : 0.0);
    doc["shard_restarts"] = json::Value(restarts);
    json::Value arms;
    for (const ArmResult* arm : {&cold, &warm, &restart, &kill}) {
      json::Value entry;
      entry["wall_seconds"] = json::Value(arm->wall_seconds);
      entry["jobs"] =
          json::Value(static_cast<std::uint64_t>(arm->records.size()));
      entry["p50_ms"] = json::Value(percentile(arm->latencies, 50.0) * 1e3);
      entry["p99_ms"] = json::Value(percentile(arm->latencies, 99.0) * 1e3);
      entry["incremental_hits"] = json::Value(arm->incremental);
      entry["full_hits"] = json::Value(arm->full);
      entry["image_hits"] = json::Value(arm->image);
      entry["misses"] = json::Value(arm->miss);
      if (arm->batches) entry["batches"] = json::Value(*arm->batches);
      entry["records_match"] = json::Value(arm->records == ref_records);
      arms[arm->arm] = std::move(entry);
    }
    doc["arms"] = std::move(arms);
    std::ofstream out(flags.report_json);
    out << doc.dump(2) << "\n";
    std::fprintf(stderr, "bench_service: wrote %s\n",
                 flags.report_json.c_str());
  }

  std::filesystem::remove_all(scratch);
  if (failed) {
    std::fputs("bench_service: FAILED\n", stderr);
    return 1;
  }
  std::puts("bench_service: all arms byte-identical to the serial reference");
  return 0;
}
