// WCET bound quality: static bound vs highest observed execution time on the
// cycle-level simulator (the bound/observed ratio aiT users care about), and
// the contribution of the cache analysis (must + persistence) to tightness.
// Also doubles as a large-scale soundness sweep: any node whose observed
// maximum exceeds its bound is reported as UNSOUND.
//
// The per-(node, config) chains — compile, 30 cold-cache runs, bound with
// and without cache analysis — run through the fleet runner; --jobs=N sets
// the worker count and --nodes=N scales the generated suite.
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
  int unsound = 0;
  int uncertified = 0;
  int ipet_records = 0;

  for (const driver::FleetRecord& r : report.records) {
    if (!r.ok) {
      std::printf("%-10s failed (%s): %s\n", r.name.c_str(),
                  driver::to_string(r.config).c_str(), r.error.c_str());
      continue;
    }
    if (r.observed_max_cycles > r.wcet_cycles) {
      ++unsound;
      std::printf("UNSOUND: %s %s observed %llu > bound %llu\n",
                  r.name.c_str(), driver::to_string(r.config).c_str(),
                  static_cast<unsigned long long>(r.observed_max_cycles),
                  static_cast<unsigned long long>(r.wcet_cycles));
    }
    // The IPET bound must be independently sound and certificate-verified.
    if (r.wcet_ipet_cycles > 0) {
      ++ipet_records;
      if (!r.wcet_ipet_certified) {
        ++uncertified;
        std::printf("UNCERTIFIED: %s %s ipet bound lacks a verified "
                    "certificate\n",
                    r.name.c_str(), driver::to_string(r.config).c_str());
      }
      if (r.observed_max_cycles > r.wcet_ipet_cycles) {
        ++unsound;
        std::printf("UNSOUND: %s %s observed %llu > ipet bound %llu\n",
                    r.name.c_str(), driver::to_string(r.config).c_str(),
                    static_cast<unsigned long long>(r.observed_max_cycles),
                    static_cast<unsigned long long>(r.wcet_ipet_cycles));
      }
      ratio_ipet_sum[r.config] += static_cast<double>(r.wcet_ipet_cycles) /
                                  static_cast<double>(r.observed_max_cycles);
    }
    ratio_sum[r.config] += static_cast<double>(r.wcet_cycles) /
                           static_cast<double>(r.observed_max_cycles);
    ratio_nocache_sum[r.config] += static_cast<double>(r.wcet_nocache_cycles) /
                                   static_cast<double>(r.observed_max_cycles);
  }

  const bool with_ipet = ipet_records > 0;
  std::printf("%-16s %26s %30s%s\n", "configuration",
              "mean bound/observed (cache)", "mean bound/observed (no cache)",
              with_ipet ? "        mean ipet/observed" : "");
  bench::print_rule(with_ipet ? 102 : 76);
  for (driver::Config config : driver::kAllConfigs) {
    std::printf("%-16s %26.2f %30.2f", driver::to_string(config).c_str(),
                ratio_sum[config] / static_cast<double>(suite.size()),
                ratio_nocache_sum[config] / static_cast<double>(suite.size()));
    if (with_ipet)
      std::printf(" %25.2f",
                  ratio_ipet_sum[config] / static_cast<double>(suite.size()));
    std::printf("\n");
  }
  bench::print_rule(with_ipet ? 102 : 76);
  std::puts(report.throughput_summary().c_str());
  std::printf("\nsoundness violations: %d (must be 0)\n", unsound);
  if (with_ipet)
    std::printf("ipet bounds: %d, certificate failures: %d (must be 0)\n",
                ipet_records, uncertified);
  std::puts("expected: ratios modestly above 1 with cache analysis; several "
            "times larger without it\n(every access then pays the full miss "
            "penalty on every execution).");
  return (unsound == 0 && uncertified == 0) ? 0 : 1;
}
