// Fully-monitored campaign lane: every (node, config) job executes with the
// runtime execution monitor armed, so every simulated instruction is checked
// against the statically claimed facts — reconstructed CFG edges, annotation
// intervals, and the loop-bound rows the WCET path analyses consume
// (machine/monitor.hpp). This is the dynamic soundness oracle for the fleet:
// both WCET engines share the reconstructed CFG, so their agreement proves
// nothing about reconstruction bugs; a monitored campaign with zero
// violations does.
//
// Any MonitorError is a refuted static claim: the record fails, the refuted
// fact is printed, and the bench exits non-zero. --monitor=cfg narrows the
// checks to control flow only; the lane's default is full.
#include <cstdio>
#include <map>

#include "bench_common.hpp"

using namespace vc;

int main(int argc, char** argv) {
  const bench::BenchFlags flags =
      bench::parse_bench_flags(argc, argv, "bench_monitor");
  const int nodes = flags.nodes > 0 ? flags.nodes : 24;
  // The lane exists to monitor; an explicit --monitor=cfg narrows it, but
  // "off" (the shared-flag default) means "the lane's own default": full.
  const machine::MonitorMode mode = flags.monitor == machine::MonitorMode::Off
                                        ? machine::MonitorMode::Full
                                        : flags.monitor;

  std::puts("=== Monitored campaign: every step checked against the static "
            "claims ===");
  std::printf("workload: %d generated nodes, 30 runs each with cold caches, "
              "monitor mode %s\n\n",
              nodes, machine::to_string(mode).c_str());

  const std::vector<bench::NodeBundle> suite = bench::make_suite(nodes);

  const auto store = bench::open_bench_store(flags);
  driver::FleetOptions options = bench::fleet_options(flags);
  options.exec_cycles = 30;
  options.cold_caches = true;
  options.wcet = true;
  options.monitor = mode;
  options.suite_seed = 5150;  // same input streams as the tightness sweep
  options.store = store.get();
  const driver::FleetReport report =
      driver::run_fleet(bench::to_fleet_units(suite), options);
  bench::write_bench_report(report, flags, "bench_monitor");

  std::map<driver::Config, std::uint64_t> steps_by_config;
  std::uint64_t violations = 0;
  int failed = 0;
  for (const driver::FleetRecord& r : report.records) {
    steps_by_config[r.config] += r.monitored_steps;
    violations += r.monitor_violations;
    if (r.monitor_violations > 0)
      std::printf("REFUTED: %s %s: %s\n", r.name.c_str(),
                  driver::to_string(r.config).c_str(), r.error.c_str());
    else if (!r.ok) {
      ++failed;
      std::printf("%-10s failed (%s): %s\n", r.name.c_str(),
                  driver::to_string(r.config).c_str(), r.error.c_str());
    }
  }

  std::printf("%-16s %22s\n", "configuration", "monitored steps");
  bench::print_rule(40);
  for (driver::Config config : driver::kAllConfigs)
    std::printf("%-16s %22llu\n", driver::to_string(config).c_str(),
                static_cast<unsigned long long>(steps_by_config[config]));
  bench::print_rule(40);
  std::puts(report.throughput_summary().c_str());
  std::printf("\nrefuted static claims: %llu (must be 0), other failures: %d "
              "(must be 0)\n",
              static_cast<unsigned long long>(violations), failed);
  std::puts("expected: zero violations — the reconstructed CFG, the "
            "annotation intervals, and the\nloop-bound rows all hold on every "
            "step of every monitored execution.");
  return (violations == 0 && failed == 0) ? 0 : 1;
}
