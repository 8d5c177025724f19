// Reproduces Figure 2 and the §3.3 WCET means of the paper: per-node static
// WCET for the four compiler configurations, one series per configuration,
// plus the mean WCET change relative to the non-optimized default compiler.
//
// Paper reference values (mean WCET delta vs non-optimized default):
//   optimized w/o register allocation:  -0.5%
//   CompCert ('verified'):             -12.0%
//   fully optimized ('O2-full'):       -18.4%
// The per-node spread matters too: nodes dominated by hardware signal
// acquisition improve much less than pure symbol-chain nodes.
//
// All compile + WCET chains run through the fleet runner; --jobs=N sets the
// worker count and --nodes=N scales the generated suite up to the paper's
// full ~2500 ACG files (--nodes=2500). --cache-dir=DIR attaches the
// content-addressed artifact store and --report-json=FILE emits the full
// record array as JSON.
#include <cstdio>
#include <map>

#include "bench_common.hpp"

using namespace vc;
using bench::NodeBundle;

int main(int argc, char** argv) {
  const bench::BenchFlags flags =
      bench::parse_bench_flags(argc, argv, "bench_fig2_wcet");
  const int nodes = flags.nodes > 0 ? flags.nodes : 40;

  std::puts("=== Figure 2: per-node WCET by compiler configuration ===");
  std::printf("workload: %d generated nodes + pitch-axis law, seed "
              "20110318\n\n", nodes);

  std::vector<NodeBundle> suite = bench::make_suite(nodes);
  suite.push_back(bench::pitch_law());

  const auto store = bench::open_bench_store(flags);
  driver::FleetOptions options = bench::fleet_options(flags);
  options.wcet = true;
  options.store = store.get();
  const driver::FleetReport report =
      driver::run_fleet(bench::to_fleet_units(suite), options);
  bench::write_bench_report(report, flags, "bench_fig2_wcet");

  std::printf("%-10s %10s %14s %12s %10s   %s\n", "node", "O0-pattern",
              "O1-noregalloc", "verified", "O2-full",
              "delta vs O0 (O1 / verified / O2)");
  bench::print_rule(100);

  std::map<driver::Config, double> sum_ratio;
  int analyzed = 0;

  for (std::size_t u = 0; u < report.units; ++u) {
    std::map<driver::Config, std::uint64_t> wcet;
    bool ok = true;
    for (std::size_t c = 0; c < report.configs; ++c) {
      const driver::FleetRecord& r = report.at(u, c);
      if (!r.ok) {
        ok = false;
        break;
      }
      wcet[r.config] = r.wcet_cycles;
    }
    if (!ok) continue;
    ++analyzed;
    const auto o0 = static_cast<double>(wcet[driver::Config::O0Pattern]);
    for (driver::Config config : driver::kAllConfigs)
      sum_ratio[config] += static_cast<double>(wcet[config]) / o0;
    std::printf(
        "%-10s %10llu %14llu %12llu %10llu   %s / %s / %s\n",
        report.at(u, 0).name.c_str(),
        static_cast<unsigned long long>(wcet[driver::Config::O0Pattern]),
        static_cast<unsigned long long>(wcet[driver::Config::O1NoRegalloc]),
        static_cast<unsigned long long>(wcet[driver::Config::Verified]),
        static_cast<unsigned long long>(wcet[driver::Config::O2Full]),
        bench::fmt_pct(
            bench::pct_delta(
                static_cast<double>(wcet[driver::Config::O1NoRegalloc]), o0),
            6)
            .c_str(),
        bench::fmt_pct(
            bench::pct_delta(
                static_cast<double>(wcet[driver::Config::Verified]), o0),
            6)
            .c_str(),
        bench::fmt_pct(
            bench::pct_delta(static_cast<double>(wcet[driver::Config::O2Full]),
                             o0),
            6)
            .c_str());
  }
  bench::print_rule(100);
  std::puts(report.throughput_summary().c_str());

  std::printf("\nanalyzed %d/%zu nodes\n", analyzed, suite.size());
  std::puts("mean WCET change vs O0-pattern (mean of per-node ratios):");
  for (driver::Config config :
       {driver::Config::O1NoRegalloc, driver::Config::Verified,
        driver::Config::O2Full}) {
    const double mean = sum_ratio[config] / analyzed;
    std::printf("  %-16s %+6.1f%%\n", driver::to_string(config).c_str(),
                (mean - 1.0) * 100.0);
  }
  std::puts("\npaper (§3.3): O1-noregalloc -0.5%, CompCert/verified -12.0%, "
            "fully optimized -18.4%");
  return bench::gate(report, "bench_fig2_wcet");
}
