// Reproduces Table 1 of the paper: variation in data-cache reads, data-cache
// writes and code size for each compiler configuration, relative to the
// non-optimized default compiler (O0-pattern).
//
// Paper reference values (CompCert vs non-optimized default):
//   cache reads  -76%,  cache writes  -65%,  code size  -26%.
// The other configurations bracket it: "optimized without register
// allocation" changes little; "fully optimized" is comparable to CompCert.
//
// All (node, config) chains run through the fleet runner; --jobs=N sets the
// worker count and --nodes=N scales the generated suite up to the paper's
// full ~2500 ACG files (--nodes=2500). --cache-dir=DIR attaches the
// content-addressed artifact store (warm reruns replay cached results) and
// --report-json=FILE emits the full record array as JSON.
#include <cstdio>
#include <map>

#include "bench_common.hpp"

using namespace vc;
using bench::NodeBundle;

namespace {

struct Totals {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t code_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags =
      bench::parse_bench_flags(argc, argv, "bench_table1");
  const int nodes = flags.nodes > 0 ? flags.nodes : 40;

  std::puts("=== Table 1: memory accesses and code size vs non-optimized "
            "default compiler ===");
  std::printf("workload: %d generated nodes + pitch-axis law, 50 cycles "
              "each, seed 20110318\n\n", nodes);

  std::vector<NodeBundle> suite = bench::make_suite(nodes);
  suite.push_back(bench::pitch_law());

  const auto store = bench::open_bench_store(flags);
  driver::FleetOptions options = bench::fleet_options(flags);
  options.exec_cycles = 50;
  options.store = store.get();
  const driver::FleetReport report =
      driver::run_fleet(bench::to_fleet_units(suite), options);
  bench::write_bench_report(report, flags, "bench_table1");

  std::map<driver::Config, Totals> totals;
  for (const driver::FleetRecord& r : report.records) {
    if (!r.ok) continue;
    totals[r.config].reads += r.exec.dcache_reads;
    totals[r.config].writes += r.exec.dcache_writes;
    totals[r.config].code_bytes += r.code_bytes;
  }

  const Totals& ref = totals[driver::Config::O0Pattern];
  std::printf("%-16s %14s %14s %12s %9s %9s %9s\n", "configuration",
              "dcache reads", "dcache writes", "code bytes", "d-reads",
              "d-writes", "size");
  bench::print_rule(92);
  for (driver::Config config : driver::kAllConfigs) {
    const Totals& t = totals[config];
    std::printf("%-16s %14llu %14llu %12llu %s %s %s\n",
                driver::to_string(config).c_str(),
                static_cast<unsigned long long>(t.reads),
                static_cast<unsigned long long>(t.writes),
                static_cast<unsigned long long>(t.code_bytes),
                bench::fmt_pct(bench::pct_delta(static_cast<double>(t.reads),
                                                static_cast<double>(ref.reads)))
                    .c_str(),
                bench::fmt_pct(
                    bench::pct_delta(static_cast<double>(t.writes),
                                     static_cast<double>(ref.writes)))
                    .c_str(),
                bench::fmt_pct(
                    bench::pct_delta(static_cast<double>(t.code_bytes),
                                     static_cast<double>(ref.code_bytes)))
                    .c_str());
  }
  bench::print_rule(92);
  std::puts(report.throughput_summary().c_str());
  std::puts("\npaper (CompCert ~ 'verified' row):  reads -76%, writes -65%, "
            "code size -26%");
  std::puts("expected shape: 'O1-noregalloc' changes little; 'verified' and "
            "'O2-full' remove most stack traffic.");
  return bench::gate(report, "bench_table1");
}
