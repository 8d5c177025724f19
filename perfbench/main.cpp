// perfbench — runs one named workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--suite-seed N] [--vccd PATH] [--work-dir DIR] [--rev REV]
//
// Workloads: campaign_validated, campaign_rv32_ssa, vccd_edit_loop. The
// last stdout line is one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exit status is 0 only when every correctness check passed.
// perfbench/run.py builds this binary and is the normal entry point.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "support/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metrics;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_schema() {
  static const std::vector<MetricDef> schema{
      {"jobs_per_s", "1/s"},         {"job_ms_p50", "ms"},
      {"job_ms_p75", "ms"},          {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},        {"wcet_ratio_to_o0", "ratio"},
      {"code_ratio_to_o0", "ratio"}, {"cycles_ratio_to_o0", "ratio"},
  };
  return schema;
}

/// Every per-layer metric, printed on every workload (0 where the layer is
/// idle on that workload — the "flat" prediction).
const std::vector<MetricDef>& per_layer_schema() {
  static const std::vector<MetricDef> schema = [] {
    std::vector<MetricDef> s{
        {"driver.compile_ms", "ms"},      {"validate.ms", "ms"},
        {"validate.cross_check_ms", "ms"}, {"validate.checks", "count"},
    };
    for (const char* step :
         {"lower", "constprop", "cse", "forward", "dce", "deadstore", "tunnel",
          "ssa-build", "ssa-gvn", "ssa-licm", "ssa-unroll", "ssa-rotate",
          "ssa-out", "regalloc", "emit", "selfmove", "peephole", "schedule"}) {
      s.push_back({std::string("pass.") + step + ".ms", "ms"});
      s.push_back({std::string("pass.") + step + ".rewrites", "count"});
    }
    for (const MetricDef& m : std::vector<MetricDef>{
             {"machine.exec_ms", "ms"},
             {"machine.monitor_ms", "ms"},
             {"machine.steps", "count"},
             {"machine.steps_per_s", "1/s"},
             {"wcet.cfg_ms", "ms"},
             {"wcet.values_ms", "ms"},
             {"wcet.cache_ms", "ms"},
             {"wcet.structural_ms", "ms"},
             {"wcet.ipet_ms", "ms"},
             {"wcet.ipet_ratio_to_structural", "ratio"},
             {"ilp.pivots", "count"},
             {"ilp.bnb_nodes", "count"},
             {"ilp.lp_constraints", "count"},
             {"artifact.reindex_ms", "ms"},
             {"artifact.hits", "count"},
             {"artifact.publishes", "count"},
             {"artifact.store_hit_ms_p50", "ms"},
             {"service.daemon_ms_p50", "ms"},
             {"service.transport_ms_p50", "ms"},
             {"service.memo_hit_ms_p50", "ms"},
             {"service.memo_hits", "count"},
             {"service.batches", "count"},
             {"service.arena_peak_mb", "MiB"},
             {"dataflow.generate_ms", "ms"},
             {"minic.parse_ms", "ms"},
             {"host.clock_ghz", "GHz"},
             {"host.wall_jobs_per_s", "1/s"},
             {"trace.unattributed_share", "share"},
             {"trace.overhead_share", "share"},
             {"trace.jobs_per_s", "1/s"},
         })
      s.push_back(m);
    return s;
  }();
  return schema;
}

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "campaign_validated|campaign_rv32_ssa|vccd_edit_loop --seed N "
               "--seconds S --trace 0|1 [--suite-seed N] [--vccd PATH] "
               "[--work-dir DIR] [--rev REV]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || text[0] == '-')
    usage("bad " + flag + " value '" + text + "'");
  return v;
}

perfbench::RunArgs parse_args(int argc, char** argv) {
  perfbench::RunArgs args;
  args.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + flag);
    }
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--suite-seed") {
      args.suite_seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      args.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--vccd") {
      args.vccd_path = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--rev") {
      args.rev = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "campaign_validated" &&
      args.workload != "campaign_rv32_ssa" && args.workload != "vccd_edit_loop")
    usage("unknown workload '" + args.workload + "'");
  if (args.workload == "vccd_edit_loop" && args.vccd_path.empty())
    usage("vccd_edit_loop needs --vccd PATH");
  return args;
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

std::string format_value(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15)
    std::snprintf(buf, sizeof buf, "%.0f", v);
  else
    std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = parse_args(argc, argv);

  vc::json::Value fingerprint;
  fingerprint["workload"] = vc::json::Value(args.workload);
  fingerprint["seed"] = vc::json::Value(args.seed);
  fingerprint["suite_seed"] = args.suite_seed
                                  ? vc::json::Value(*args.suite_seed)
                                  : vc::json::Value("default");
  fingerprint["seconds"] = vc::json::Value(args.seconds);
  fingerprint["trace"] = vc::json::Value(args.trace);
  fingerprint["nproc"] = vc::json::Value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  fingerprint["compiler"] = vc::json::Value(std::string("gcc ") + __VERSION__);
  fingerprint["build_type"] = vc::json::Value(PERFBENCH_BUILD_TYPE);
  fingerprint["rev"] = vc::json::Value(args.rev.empty() ? "unknown" : args.rev);
  fingerprint["loadavg"] = vc::json::Value(loadavg());
  std::printf("fingerprint: %s\n", fingerprint.dump().c_str());

  perfbench::Outcome outcome;
  try {
    outcome = args.workload == "vccd_edit_loop"
                  ? perfbench::run_vccd_edit_loop(args)
                  : perfbench::run_campaign(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::vector<MetricDef>& schema =
      args.trace ? per_layer_schema() : end_to_end_schema();
  const Metrics& values = args.trace ? outcome.per_layer : outcome.end_to_end;
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& m : schema) known = known || m.name == name;
    outcome.check(known, "metric '" + name + "' is not in the schema");
  }

  std::string metrics;
  for (const MetricDef& m : schema) {
    const auto it = values.find(m.name);
    double v = it == values.end() ? 0.0 : it->second;
    // End-to-end metrics are never 0; a missing or non-finite one means a
    // measurement failed.
    const bool valid = std::isfinite(v) && (args.trace || v > 0.0);
    outcome.check(valid, "metric " + m.name + " not measured");
    if (!std::isfinite(v)) v = 0.0;
    if (args.trace)
      std::printf("  %-32s %16.4f %s\n", m.name.c_str(), v, m.unit.c_str());
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + format_value(v) + ", \"unit\": \"" +
               m.unit + "\"}";
  }

  for (const std::string& f : outcome.failures)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  const bool correct = outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return correct ? 0 : 1;
}
