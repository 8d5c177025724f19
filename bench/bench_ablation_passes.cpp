// Ablation of the verified configuration's optimizations (DESIGN.md):
// contribution of each pass to the WCET gain. The paper's §3.3 emphasises
// that "a good register allocation" carries most of the improvement and that
// other optimizations are hampered without it — this bench quantifies that
// claim on our suite.
//
// Every arm is expressed through the pass framework's own ablation surface:
// the verified configuration with CompileOptions::disable_passes removing one
// pass (exactly what `vcc --disable-pass=NAME` wires up), plus the O1 and O0
// configurations as the no-regalloc / no-anything endpoints. There is no
// hand-rolled pipeline here — the bench measures the pipelines users can
// actually select. Each arm is one fleet campaign, so --jobs, --validate,
// --target and --wcet-engine apply to every arm; the arms set --ssa and
// --disable-pass themselves and execute nothing, so those flags and
// --monitor exit 2.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace vc;

namespace {

struct Arm {
  const char* label;
  driver::Config config;
  std::vector<std::string> disable;  // --disable-pass list for this arm
  bool ssa = false;                  // run the arm with --ssa
};

const std::vector<Arm>& arms() {
  static const std::vector<Arm> kArms = {
      {"verified (all passes)", driver::Config::Verified, {}},
      {"  - constprop", driver::Config::Verified, {"constprop"}},
      {"  - cse", driver::Config::Verified, {"cse"}},
      {"  - forwarding", driver::Config::Verified, {"forward"}},
      {"  - dce", driver::Config::Verified, {"dce"}},
      {"  - deadstore", driver::Config::Verified, {"deadstore"}},
      {"  - tunnel", driver::Config::Verified, {"tunnel"}},
      {"  - regalloc (= O1 config)", driver::Config::O1NoRegalloc, {}},
      {"  - everything (= O0 config)", driver::Config::O0Pattern, {}},
      // SSA bracket arms: the full bracket, then the bracket minus one SSA
      // optimization each — quantifying what GVN / LICM / rotation /
      // annotated unrolling individually buy on top of the scalar pipeline.
      {"verified --ssa (full bracket)", driver::Config::Verified, {}, true},
      {"  - ssa-gvn", driver::Config::Verified, {"ssa-gvn"}, true},
      {"  - ssa-licm", driver::Config::Verified, {"ssa-licm"}, true},
      {"  - ssa-rotate", driver::Config::Verified, {"ssa-rotate"}, true},
      {"  - ssa-unroll", driver::Config::Verified, {"ssa-unroll"}, true},
  };
  return kArms;
}

}  // namespace

int main(int argc, char** argv) {
  const char* const name = "bench_ablation_passes";
  const bench::BenchFlags flags = bench::parse_bench_flags(argc, argv, name);
  bench::reject_flag(flags.ssa, "--ssa", name);
  bench::reject_flag(!flags.disable_passes.empty(), "--disable-pass", name);
  bench::reject_flag(flags.monitor != machine::MonitorMode::Off, "--monitor",
                     name);
  const int n_nodes = flags.nodes > 0 ? flags.nodes : 24;
  std::puts("=== Ablation: contribution of each verified-pipeline pass to "
            "the WCET gain ===");
  std::printf("workload: %d generated nodes, seed 20110318; baseline = full "
              "verified pipeline;\narms built with --disable-pass over the "
              "verified configuration\n\n", n_nodes);

  const std::vector<bench::NodeBundle> suite = bench::make_suite(n_nodes);
  const std::vector<driver::FleetUnit> units = bench::to_fleet_units(suite);

  // bounds[arm][unit]: the bound of the engine --wcet-engine selects (the
  // IPET one when it ran).
  std::vector<std::vector<std::uint64_t>> bounds;
  int status = 0;
  for (const Arm& arm : arms()) {
    driver::FleetOptions options = bench::fleet_options(flags);
    options.configs = {arm.config};
    options.disable_passes = arm.disable;
    options.ssa = arm.ssa;
    options.wcet = true;
    const driver::FleetReport report = driver::run_fleet(units, options);
    status |= bench::gate(report, name);
    std::vector<std::uint64_t>& arm_bounds = bounds.emplace_back();
    for (const driver::FleetRecord& r : report.records)
      arm_bounds.push_back(r.wcet_ipet_cycles > 0 ? r.wcet_ipet_cycles
                                                  : r.wcet_cycles);
  }

  std::printf("%-30s %16s %18s\n", "variant", "node0 WCET",
              "mean WCET vs full");
  bench::print_rule(68);
  for (std::size_t a = 0; a < arms().size(); ++a) {
    double ratio_sum = 0.0;
    std::uint64_t example = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
      ratio_sum += static_cast<double>(bounds[a][u]) /
                   static_cast<double>(bounds.front()[u]);
      if (units[u].name == "node0") example = bounds[a][u];
    }
    std::printf("%-30s %16llu %+17.1f%%\n", arms()[a].label,
                static_cast<unsigned long long>(example),
                (ratio_sum / static_cast<double>(units.size()) - 1.0) * 100.0);
  }
  bench::print_rule(68);
  std::puts("\nexpected: removing register allocation dominates every other "
            "ablation (paper §3.3:\n\"the importance of a good register "
            "allocation and how other optimizations are\nhampered without "
            "it\").");
  return status;
}
