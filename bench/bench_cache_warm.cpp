// Cold vs. warm campaign wall time through the content-addressed artifact
// store: the paper's experiment (CompCert + aiT over ~2500 ACG files) is a
// pure function of (source, config, tool version), so a warm restart of the
// campaign must collapse to hash lookups. This bench runs the Table-1-shaped
// workload (compile + 50 execution cycles + WCET) three times over one store:
//
//   cold   — empty store: every job compiles, executes, analyzes, publishes;
//   warm   — same process, populated store: every job replays cached results;
//   rewarm — fresh store object over the same directory, simulating a
//            campaign *restart* (the persistent index is rebuilt from disk).
//
// It verifies that warm records are bit-identical to cold ones
// (driver::record_core_json) and prints the speedup. --nodes=N scales the
// suite (default 40; the paper-scale campaign is --nodes=2500), --jobs=N the
// workers. --cache-dir=DIR keeps the store after the run (NOTE: it is
// cleared first — the cold phase must be genuinely cold; do not point it at
// a store you want to keep). Default is a throwaway under the system temp
// dir. --report-json=FILE dumps the warm run's records.
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"

using namespace vc;

int main(int argc, char** argv) {
  const bench::BenchFlags flags =
      bench::parse_bench_flags(argc, argv, "bench_cache_warm");
  const int nodes = flags.nodes > 0 ? flags.nodes : 40;

  std::string cache_dir = flags.cache_dir;
  const bool throwaway = cache_dir.empty();
  if (throwaway)
    cache_dir = (std::filesystem::temp_directory_path() /
                 "vcflight-bench-cache-warm")
                    .string();
  std::filesystem::remove_all(cache_dir);  // measure a genuinely cold start

  std::puts("=== Artifact store: cold vs. warm campaign wall time ===");
  std::printf("workload: %d generated nodes + pitch-axis law, 50 cycles each "
              "+ WCET, seed 20110318\ncache: %s\n\n", nodes,
              cache_dir.c_str());

  std::vector<bench::NodeBundle> suite = bench::make_suite(nodes);
  suite.push_back(bench::pitch_law());
  const std::vector<driver::FleetUnit> units = bench::to_fleet_units(suite);

  // The store is what this bench measures and validated compiles bypass
  // it, so --validate (which the smoke lanes pass to every bench) does not
  // apply here; every other knob flag does.
  bench::BenchFlags run_flags = flags;
  run_flags.validate = driver::ValidateLevel::Off;
  driver::FleetOptions options = bench::fleet_options(run_flags);
  options.exec_cycles = 50;
  options.wcet = true;

  const auto run_with = [&](artifact::ArtifactStore* store) {
    options.store = store;
    return driver::run_fleet(units, options);
  };

  artifact::ArtifactStore store({cache_dir, static_cast<std::uint64_t>(
                                                flags.cache_budget_mb) *
                                                1024 * 1024});
  const driver::FleetReport cold = run_with(&store);
  const driver::FleetReport warm = run_with(&store);
  // A fresh store over the same directory = a campaign restart: the index
  // is rebuilt from whatever survived on disk.
  artifact::ArtifactStore restarted({cache_dir, 0});
  const driver::FleetReport rewarm = run_with(&restarted);
  options.store = nullptr;

  // The warm-rerun determinism contract of FleetOptions::store: every
  // record's semantic core is byte-identical to the cold run's.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < cold.records.size(); ++i) {
    const std::string core = driver::record_core_json(cold.records[i]).dump();
    for (const driver::FleetReport* rerun : {&warm, &rewarm})
      if (driver::record_core_json(rerun->records[i]).dump() != core)
        ++mismatches;
  }

  std::printf("%-28s %10s %12s %12s %12s\n", "phase", "wall s", "full hits",
              "image hits", "misses");
  bench::print_rule(78);
  const auto row = [](const char* name, const driver::FleetReport& r) {
    std::printf("%-28s %10.2f %12llu %12llu %12llu\n", name, r.wall_seconds,
                static_cast<unsigned long long>(r.cache_full_hits),
                static_cast<unsigned long long>(r.cache_image_hits),
                static_cast<unsigned long long>(r.cache_misses));
  };
  row("cold (empty store)", cold);
  row("warm (same process)", warm);
  row("rewarm (restarted store)", rewarm);
  bench::print_rule(78);

  const double speedup = warm.wall_seconds > 0.0
                             ? cold.wall_seconds / warm.wall_seconds
                             : 0.0;
  const double re_speedup = rewarm.wall_seconds > 0.0
                                ? cold.wall_seconds / rewarm.wall_seconds
                                : 0.0;
  std::printf("warm speedup: %.1fx, rewarm speedup: %.1fx\n", speedup,
              re_speedup);
  std::printf("record mismatches cold vs warm/rewarm: %zu (must be 0)\n",
              mismatches);
  std::puts(warm.throughput_summary().c_str());
  bench::write_bench_report(warm, flags, "bench_cache_warm");

  if (throwaway) std::filesystem::remove_all(cache_dir);

  // Exit non-zero on a failed cold record (the campaign gate), a broken
  // determinism contract or a cache that failed to serve the rerun.
  const int status = bench::gate(cold, "bench_cache_warm");
  const bool all_hits =
      warm.cache_full_hits == warm.records.size() &&
      rewarm.cache_full_hits == rewarm.records.size();
  if (mismatches != 0 || !all_hits) {
    std::fprintf(stderr, "bench_cache_warm: FAILED (%zu mismatches, warm "
                         "hits %llu/%zu, rewarm hits %llu/%zu)\n",
                 mismatches,
                 static_cast<unsigned long long>(warm.cache_full_hits),
                 warm.records.size(),
                 static_cast<unsigned long long>(rewarm.cache_full_hits),
                 rewarm.records.size());
    return 1;
  }
  return status;
}
