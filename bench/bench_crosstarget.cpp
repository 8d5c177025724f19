// Cross-target WCET tightness: the same generated campaign compiled,
// executed, analyzed and fully monitored for every registered target, side
// by side. The per-target tightness (static bound / max observed cycles on
// that target's own timing model) shows how much of the bound quality is
// analysis and how much is ISA: the analyses are shared code, so the ratios
// should land in the same band on both machines.
//
// Doubles as the cross-target soundness gate: the campaign gate
// (bench_common.hpp) runs on each target's report, so a failed record on
// either target fails the bench. With --report-json the two
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
  // The bench iterates every target under the full monitor.
  bench::reject_flag(flags.target != driver::PipelineSpec{}.target,
                     "--target", "bench_crosstarget");
  bench::reject_flag(flags.monitor != machine::MonitorMode::Off, "--monitor",
                     "bench_crosstarget");
  const int nodes = flags.nodes > 0 ? flags.nodes : 24;
  const std::vector<std::string> targets = mach::target_names();

  std::puts("=== Cross-target WCET tightness: bound / max observed ===");
  std::printf("workload: %d generated nodes x %zu targets, 30 cold-cache "
              "runs each, full monitor\n\n",
              nodes, targets.size());

  const std::vector<bench::NodeBundle> suite = bench::make_suite(nodes);

  int status = 0;
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
    status |= bench::gate(report, "bench_crosstarget");

    for (const driver::FleetRecord& r : report.records) {
      if (!r.ok) continue;
      const auto observed = static_cast<double>(r.observed_max_cycles);
      if (r.wcet_ipet_cycles > 0)
        ratio_ipet[target][r.config] +=
            static_cast<double>(r.wcet_ipet_cycles) / observed;
      ratio[target][r.config] += static_cast<double>(r.wcet_cycles) / observed;
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
  std::puts("\nexpected: per-target ratios in the same modest band — the "
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

  return status;
}
