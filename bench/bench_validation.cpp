// Evaluates the translation-validation stand-in (paper §3.2/§3.5, §4): cost
// of validated compilation vs plain compilation, and the checkers' defect
// detection rate under seeded miscompilation.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "mutate.hpp"
#include "rtl/analysis.hpp"
#include "rtl/lower.hpp"
#include "validate/validate.hpp"

using namespace vc;

namespace {

double seconds_for(const std::function<void()>& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags =
      bench::parse_bench_flags(argc, argv, "bench_validation");
  bench::reject_flag(flags.monitor != machine::MonitorMode::Off, "--monitor",
                     "bench_validation");
  bench::reject_flag(flags.wcet_engine != wcet::WcetEngine::Structural,
                     "--wcet-engine", "bench_validation");
  // The knob flags shape both arms' compiles (target, SSA mid-end, disabled
  // passes); --validate picks the validated arm's level (rtl when off).
  driver::CompileOptions copts;
  static_cast<driver::PipelineSpec&>(copts) = flags;
  const driver::ValidateLevel level =
      flags.validate == driver::ValidateLevel::Off ? driver::ValidateLevel::Rtl
                                                   : flags.validate;
  std::puts("=== Translation validation: overhead and seeded-defect "
            "detection ===\n");
  std::printf("target %s, ssa %s, validated arm at --validate=%s\n\n",
              flags.target.c_str(), flags.ssa ? "on" : "off",
              driver::to_string(level).c_str());

  std::vector<bench::NodeBundle> suite =
      bench::make_suite(flags.nodes > 0 ? flags.nodes : 12);

  // --- overhead ------------------------------------------------------------
  for (driver::Config config :
       {driver::Config::Verified, driver::Config::O2Full}) {
    const double plain = seconds_for([&] {
      for (const auto& b : suite)
        driver::compile_program(b.program, config, copts);
    });
    const double validated = seconds_for([&] {
      for (const auto& b : suite)
        validate::validated_compile(b.program, config, 8, 99, level, copts);
    });
    std::printf(
        "%-12s plain compile: %6.1f ms   validated: %7.1f ms   (x%.1f)\n",
        driver::to_string(config).c_str(), plain * 1e3, validated * 1e3,
        validated / plain);
  }

  // --- detection rate --------------------------------------------------
  std::puts("\nseeded miscompilation detection (mutations injected after "
            "lowering):");
  Rng rng(123456);
  int injected = 0;
  int caught_differential = 0;
  int caught_structural = 0;
  for (const auto& bundle : suite) {
    const minic::Function& src = bundle.program.functions.back();
    for (int trial = 0; trial < 8; ++trial) {
      rtl::Function fn = rtl::lower_function(bundle.program, src,
                                             rtl::LowerMode::Value);
      rtl::remove_unreachable_blocks(fn);
      rtl::Function bad = fn;
      if (!bench::mutate(bad, rng)) continue;
      ++injected;
      if (!validate::differential_check(bundle.program, fn, bad, 24, trial)
               .ok)
        ++caught_differential;
      if (!validate::check_structure_preserving(fn, bad).ok)
        ++caught_structural;
    }
  }
  std::printf("  injected:                %d\n", injected);
  std::printf("  caught by differential:  %d (%.1f%%)\n", caught_differential,
              100.0 * caught_differential / injected);
  std::printf("  caught by structural:    %d (%.1f%%)\n", caught_structural,
              100.0 * caught_structural / injected);
  std::puts("\nnote: the structural checker targets CFG-preserving rewrites "
            "and flags any value change;\nthe differential checker is "
            "probabilistic (some mutations are semantically neutral on\n"
            "sampled inputs, e.g. swapped operands of a commutative op are "
            "never defects).");
  return 0;
}
