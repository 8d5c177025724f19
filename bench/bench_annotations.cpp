// Reproduces the §3.4 annotation experiment: the `__builtin_annotation`
// mechanism transports loop bounds and value constraints through compilation
// to the WCET analyzer at final code addresses / operand locations.
//
// Three measurements:
//   1. Coverage: how many suite nodes are analyzable at all with and without
//      the annotation table (loops whose bound cannot be derived from the
//      binary alone need it — especially in the pattern configurations where
//      counters live in stack slots).
//   2. Automatic bound derivation: how many loop bounds the analyzer derives
//      from the binary itself per configuration (register-allocated counters
//      are derivable; slot-based ones typically are not).
//   3. Precision: WCET of a data-dependent-loop kernel with a manual
//      annotation vs the analysis failing/defaulting without it.
#include <cstdio>

#include "bench_common.hpp"
#include "minic/parser.hpp"
#include "wcet/wcet.hpp"

using namespace vc;

int main(int argc, char** argv) {
  const bench::BenchFlags flags =
      bench::parse_bench_flags(argc, argv, "bench_annotations");
  bench::reject_flag(flags.monitor != machine::MonitorMode::Off, "--monitor",
                     "bench_annotations");
  // The knob flags shape every compile: target, SSA mid-end, disabled
  // passes, and --validate (the campaigns' validated compile).
  driver::CompileOptions copts;
  static_cast<driver::PipelineSpec&>(copts) = flags;
  const auto compile = [&](const minic::Program& program,
                           driver::Config config) {
    return validate::validated_compile(program, config, /*n_tests=*/6,
                                       /*seed=*/1, flags.validate, copts);
  };
  std::puts("=== §3.4: annotation transport and its effect on WCET analysis "
            "===\n");

  // --- 1 & 2: suite coverage --------------------------------------------
  std::vector<bench::NodeBundle> suite =
      bench::make_suite(flags.nodes > 0 ? flags.nodes : 40);
  std::printf("%-16s %22s %25s %28s\n", "configuration",
              "analyzable w/ annots", "analyzable w/o annots",
              "bounds derived from binary");
  bench::print_rule(96);
  for (driver::Config config : driver::kAllConfigs) {
    int with_annots = 0;
    int without_annots = 0;
    int derived = 0;
    int total_loops = 0;
    for (const auto& bundle : suite) {
      const driver::Compiled compiled = compile(bundle.program, config);
      wcet::WcetOptions with;
      wcet::WcetOptions without;
      with.engine = flags.wcet_engine;
      without.use_annotations = false;
      without.engine = flags.wcet_engine;
      try {
        const wcet::WcetResult r =
            wcet::analyze_wcet(compiled.image, bundle.step_fn, with);
        ++with_annots;
        for (const auto& loop : r.loops) {
          ++total_loops;
          if (loop.derived) ++derived;
        }
      } catch (const wcet::WcetError&) {
      }
      try {
        wcet::analyze_wcet(compiled.image, bundle.step_fn, without);
        ++without_annots;
      } catch (const wcet::WcetError&) {
      }
    }
    std::printf("%-16s %15d/%zu %19d/%zu %20d/%d loops\n",
                driver::to_string(config).c_str(), with_annots, suite.size(),
                without_annots, suite.size(), derived, total_loops);
  }
  bench::print_rule(96);
  std::puts("expected: all nodes analyzable with the annotation table; "
            "optimizing configs derive\nregister-counter loop bounds from the "
            "binary, pattern configs cannot (slot counters).\n");

  // --- 3: value-annotation precision on a data-dependent loop -------------
  minic::Program program = minic::parse_program(R"(
    global f64 table[32] = {0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,
                            16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31};
    func f64 scan(i32 n, f64 x) {
      local f64 acc;
      local i32 i;
      __annot("0 <= %1 <= 8", n);
      acc = 0.0;
      i = 0;
      while (i < n) {
        __annot("loop <= 8");
        acc = acc + table[i] * x;
        i = i + 1;
      }
      return acc;
    }
  )",
                                                "annot_demo");
  minic::type_check(program);
  std::puts("data-dependent loop kernel (bound known only via annotation):");
  std::printf("%-16s %18s %22s\n", "configuration", "WCET w/ annots",
              "WCET w/o annots");
  bench::print_rule(60);
  for (driver::Config config : driver::kAllConfigs) {
    const driver::Compiled compiled = compile(program, config);
    wcet::WcetOptions with;
    wcet::WcetOptions without;
    with.engine = flags.wcet_engine;
    without.use_annotations = false;
    without.engine = flags.wcet_engine;
    std::uint64_t w = 0;
    std::string wo = "analysis fails (no loop bound)";
    w = wcet::analyze_wcet(compiled.image, "scan", with).wcet_cycles;
    try {
      wo = std::to_string(
          wcet::analyze_wcet(compiled.image, "scan", without).wcet_cycles);
    } catch (const wcet::WcetError&) {
    }
    std::printf("%-16s %18llu %22s\n", driver::to_string(config).c_str(),
                static_cast<unsigned long long>(w), wo.c_str());
  }
  bench::print_rule(60);
  std::puts("\npaper §3.4: annotations compiled as pro-forma effects; the %i "
            "tokens resolve to the final\nmachine register / stack slot, and "
            "the generated annotation file feeds the a3 analyzer.");
  return 0;
}
