// Cross-target WCET tightness: the same generated campaign compiled,
// executed, analyzed and fully monitored for every registered target, side
// by side. The per-target tightness (static bound / max observed cycles on
// that target's own timing model) shows how much of the bound quality is
// analysis and how much is ISA: the analyses are shared code, so the ratios
// should land in the same band on both machines.
//
// Doubles as the cross-target soundness gate: a record whose observed
// maximum exceeds its bound, an unverified IPET certificate, or a monitor
// violation on either target fails the bench. With --report-json the two
// campaign reports are written as one document keyed by target
// ({"schema": "vcflight-crosstarget-v1", "campaigns": {...}}), which CI
// uploads as BENCH_crosstarget.json.
#include <cstdio>
#include <fstream>
#include <map>

#include "bench_common.hpp"
#include "mach/target.hpp"

using namespace vc;

int main(int argc, char** argv) {
  const bench::BenchFlags flags =
      bench::parse_bench_flags(argc, argv, "bench_crosstarget");
  const int nodes = flags.nodes > 0 ? flags.nodes : 24;
  const std::vector<std::string> targets = mach::target_names();

  std::puts("=== Cross-target WCET tightness: bound / max observed ===");
  std::printf("workload: %d generated nodes x %zu targets, 30 cold-cache "
              "runs each, full monitor\n\n",
              nodes, targets.size());

  const std::vector<bench::NodeBundle> suite = bench::make_suite(nodes);

  int unsound = 0;
  int uncertified = 0;
  std::uint64_t violations = 0;
  json::Value campaigns;
  // target -> config -> mean ratios over the suite.
  std::map<std::string, std::map<driver::Config, double>> ratio;
  std::map<std::string, std::map<driver::Config, double>> ratio_ipet;

  for (const std::string& target : targets) {
    driver::FleetOptions options = bench::fleet_options(flags);
    options.target = target;
    options.exec_cycles = 30;
    options.cold_caches = true;
    options.wcet = true;
    options.monitor = machine::MonitorMode::Full;
    options.suite_seed = 5150;
    const driver::FleetReport report =
        driver::run_fleet(bench::to_fleet_units(suite), options);
    violations += report.monitor_violations;

    for (const driver::FleetRecord& r : report.records) {
      if (!r.ok) {
        ++unsound;
        std::printf("FAILED: %s %s on %s: %s\n", r.name.c_str(),
                    driver::to_string(r.config).c_str(), target.c_str(),
                    r.error.c_str());
        continue;
      }
      if (r.observed_max_cycles > r.wcet_cycles) {
        ++unsound;
        std::printf("UNSOUND: %s %s on %s observed %llu > bound %llu\n",
                    r.name.c_str(), driver::to_string(r.config).c_str(),
                    target.c_str(),
                    static_cast<unsigned long long>(r.observed_max_cycles),
                    static_cast<unsigned long long>(r.wcet_cycles));
      }
      if (r.wcet_ipet_cycles > 0) {
        if (!r.wcet_ipet_certified) {
          ++uncertified;
          std::printf("UNCERTIFIED: %s %s on %s\n", r.name.c_str(),
                      driver::to_string(r.config).c_str(), target.c_str());
        }
        if (r.observed_max_cycles > r.wcet_ipet_cycles) {
          ++unsound;
          std::printf("UNSOUND: %s %s on %s observed %llu > ipet %llu\n",
                      r.name.c_str(), driver::to_string(r.config).c_str(),
                      target.c_str(),
                      static_cast<unsigned long long>(r.observed_max_cycles),
                      static_cast<unsigned long long>(r.wcet_ipet_cycles));
        }
        ratio_ipet[target][r.config] +=
            static_cast<double>(r.wcet_ipet_cycles) /
            static_cast<double>(r.observed_max_cycles);
      }
      ratio[target][r.config] += static_cast<double>(r.wcet_cycles) /
                                 static_cast<double>(r.observed_max_cycles);
    }
    campaigns[target] = driver::to_json(report);
  }

  const double n = static_cast<double>(suite.size());
  std::printf("%-16s", "configuration");
  for (const std::string& t : targets)
    std::printf(" %10s %10s", (t + " struct").c_str(), (t + " ipet").c_str());
  std::printf("\n");
  bench::print_rule(16 + static_cast<int>(targets.size()) * 22);
  for (driver::Config config : driver::kAllConfigs) {
    std::printf("%-16s", driver::to_string(config).c_str());
    for (const std::string& t : targets) {
      std::printf(" %10.2f", ratio[t][config] / n);
      if (ratio_ipet[t].count(config))
        std::printf(" %10.2f", ratio_ipet[t][config] / n);
      else
        std::printf(" %10s", "-");
    }
    std::printf("\n");
  }
  bench::print_rule(16 + static_cast<int>(targets.size()) * 22);
  std::printf("\nsoundness violations: %d, certificate failures: %d, "
              "monitor violations: %llu (all must be 0)\n",
              unsound, uncertified,
              static_cast<unsigned long long>(violations));
  std::puts("expected: per-target ratios in the same modest band — the "
            "analyses are shared; only the timing facts differ.");

  if (!flags.report_json.empty()) {
    json::Value doc;
    doc["schema"] = json::Value(std::string("vcflight-crosstarget-v1"));
    doc["nodes"] = json::Value(static_cast<std::int64_t>(nodes));
    doc["campaigns"] = std::move(campaigns);
    std::ofstream out(flags.report_json, std::ios::binary | std::ios::trunc);
    if (out && (out << doc.dump(1) << "\n").good())
      std::fprintf(stderr, "bench_crosstarget: wrote %s\n",
                   flags.report_json.c_str());
    else
      std::fprintf(stderr, "bench_crosstarget: cannot write %s\n",
                   flags.report_json.c_str());
  }

  return (unsound == 0 && uncertified == 0 && violations == 0) ? 0 : 1;
}
