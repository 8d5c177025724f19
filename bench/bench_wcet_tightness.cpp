// WCET bound quality: static bound vs highest observed execution time on the
// cycle-level simulator (the bound/observed ratio aiT users care about), and
// the contribution of the cache analysis (must + persistence) to tightness.
// Also doubles as a large-scale soundness sweep: the fleet runner fails any
// job whose observed maximum exceeds a bound it computed, and the bench exits
// with the campaign gate's verdict (bench_common.hpp).
//
// The per-(node, config) chains — compile, 30 cold-cache runs, bound with
// and without cache analysis — run through the fleet runner; --jobs=N sets
// the worker count and --nodes=N scales the generated suite. --monitor=full
// (or cfg) is the fully-monitored campaign lane: every simulated step is
// checked against the static claims the bounds rest on (reconstructed CFG
// edges, annotation intervals, loop-bound rows; machine/monitor.hpp), and a
// monitored-steps column joins the table. Both WCET engines share the
// reconstructed CFG, so their agreement proves nothing about reconstruction
// bugs; a monitored campaign with zero violations does.
#include <cstdio>
#include <map>

#include "bench_common.hpp"

using namespace vc;

int main(int argc, char** argv) {
  const bench::BenchFlags flags =
      bench::parse_bench_flags(argc, argv, "bench_wcet_tightness");
  const int nodes = flags.nodes > 0 ? flags.nodes : 24;

  std::puts("=== WCET bound tightness: bound / max observed cycles ===");
  std::printf("workload: %d generated nodes, 30 runs each with cold caches, "
              "seed 20110318\n\n", nodes);

  const std::vector<bench::NodeBundle> suite = bench::make_suite(nodes);

  const auto store = bench::open_bench_store(flags);
  driver::FleetOptions options = bench::fleet_options(flags);
  options.exec_cycles = 30;
  options.cold_caches = true;  // unknown initial cache state, like the analysis
  options.wcet = true;
  options.wcet_nocache = true;
  options.suite_seed = 5150;
  options.store = store.get();
  const driver::FleetReport report =
      driver::run_fleet(bench::to_fleet_units(suite), options);
  bench::write_bench_report(report, flags, "bench_wcet_tightness");

  std::map<driver::Config, double> ratio_sum;
  std::map<driver::Config, double> ratio_nocache_sum;
  std::map<driver::Config, double> ratio_ipet_sum;
  std::map<driver::Config, std::uint64_t> steps;
  for (const driver::FleetRecord& r : report.records) {
    if (!r.ok) continue;
    const auto observed = static_cast<double>(r.observed_max_cycles);
    ratio_sum[r.config] += static_cast<double>(r.wcet_cycles) / observed;
    ratio_nocache_sum[r.config] +=
        static_cast<double>(r.wcet_nocache_cycles) / observed;
    if (r.wcet_ipet_cycles > 0)
      ratio_ipet_sum[r.config] +=
          static_cast<double>(r.wcet_ipet_cycles) / observed;
    steps[r.config] += r.monitored_steps;
  }

  const bool with_ipet = report.ipet_records > 0;
  const bool monitored = options.monitor != machine::MonitorMode::Off;
  const int width = 76 + (with_ipet ? 26 : 0) + (monitored ? 23 : 0);
  std::printf("%-16s %26s %30s%s%s\n", "configuration",
              "mean bound/observed (cache)", "mean bound/observed (no cache)",
              with_ipet ? "        mean ipet/observed" : "",
              monitored ? "        monitored steps" : "");
  bench::print_rule(width);
  for (driver::Config config : driver::kAllConfigs) {
    std::printf("%-16s %26.2f %30.2f", driver::to_string(config).c_str(),
                ratio_sum[config] / static_cast<double>(suite.size()),
                ratio_nocache_sum[config] / static_cast<double>(suite.size()));
    if (with_ipet)
      std::printf(" %25.2f",
                  ratio_ipet_sum[config] / static_cast<double>(suite.size()));
    if (monitored)
      std::printf(" %22llu", static_cast<unsigned long long>(steps[config]));
    std::printf("\n");
  }
  bench::print_rule(width);
  std::puts(report.throughput_summary().c_str());
  std::puts("\nexpected: ratios modestly above 1 with cache analysis; several "
            "times larger without it\n(every access then pays the full miss "
            "penalty on every execution).");
  return bench::gate(report, "bench_wcet_tightness");
}
