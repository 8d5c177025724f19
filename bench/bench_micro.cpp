// Micro benchmarks (google-benchmark): toolchain throughput — compilation
// per configuration, static WCET analysis, cycle-level simulation, and the
// translation validator. These measure the *tool*, complementing the
// paper-table benches that measure the *generated code*.
//
// The BM_Phase* lanes isolate the cold-campaign pipeline stages
// (parse -> RTL+opt -> machine -> WCET structural/IPET) so a throughput
// regression can be blamed on a stage without re-profiling the whole fleet.
// Every lane also reports allocs/op — heap allocations per iteration from
// the support/alloccount counters — because most past regressions here were
// allocation regressions before they were time regressions.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "mach/target.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "minic/typecheck.hpp"
#include "opt/opt.hpp"
#include "regalloc/regalloc.hpp"
#include "support/alloccount.hpp"
#include "validate/validate.hpp"
#include "wcet/monitor_spec.hpp"
#include "wcet/wcet.hpp"

using namespace vc;

namespace {

const bench::NodeBundle& medium_node() {
  static const bench::NodeBundle bundle = [] {
    dataflow::GeneratorOptions options;
    options.min_blocks = 50;
    options.max_blocks = 60;
    return bench::bundle_node(
        dataflow::generate_node(424242, "micro", options));
  }();
  return bundle;
}

/// Adds allocs/op (heap allocations per iteration on this thread) to the
/// lane's counters. Construct before the loop, call report() after it.
class AllocCounter {
 public:
  AllocCounter() : start_(alloc::snapshot()) {}
  void report(benchmark::State& state) const {
    const alloc::Counters now = alloc::snapshot();
    state.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(now.allocations - start_.allocations),
        benchmark::Counter::kAvgIterations);
  }

 private:
  alloc::Counters start_;
};

void BM_PhaseParse(benchmark::State& state) {
  const std::string source = minic::print_program(medium_node().program);
  const AllocCounter allocs;
  for (auto _ : state) {
    minic::Program program = minic::parse_program(source, "micro.mc");
    minic::type_check(program);
    benchmark::DoNotOptimize(program);
  }
  allocs.report(state);
}
BENCHMARK(BM_PhaseParse);

void BM_CompileO0(benchmark::State& state) {
  const AllocCounter allocs;
  for (auto _ : state)
    benchmark::DoNotOptimize(driver::compile_program(
        medium_node().program, driver::Config::O0Pattern));
  allocs.report(state);
}
BENCHMARK(BM_CompileO0);

void BM_CompileVerified(benchmark::State& state) {
  const AllocCounter allocs;
  for (auto _ : state)
    benchmark::DoNotOptimize(driver::compile_program(
        medium_node().program, driver::Config::Verified));
  allocs.report(state);
}
BENCHMARK(BM_CompileVerified);

void BM_CompileO2(benchmark::State& state) {
  const AllocCounter allocs;
  for (auto _ : state)
    benchmark::DoNotOptimize(driver::compile_program(medium_node().program,
                                                     driver::Config::O2Full));
  allocs.report(state);
}
BENCHMARK(BM_CompileO2);

// One validated compile of the medium node under the verified config at
// --validate=full, with the campaigns' test count and seed, per target
// (0 ppc, 1 rv32): every per-step checker plus the end-to-end cross-check.
void BM_ValidatedCompile(benchmark::State& state) {
  static constexpr const char* kTargets[] = {"ppc", "rv32"};
  driver::CompileOptions options;
  options.target = kTargets[state.range(0)];
  state.SetLabel(options.target);
  const AllocCounter allocs;
  for (auto _ : state)
    benchmark::DoNotOptimize(validate::validated_compile(
        medium_node().program, driver::Config::Verified, 6, 1,
        driver::ValidateLevel::Full, options));
  allocs.report(state);
}
BENCHMARK(BM_ValidatedCompile)->Arg(0)->Arg(1);

void BM_WcetAnalysis(benchmark::State& state) {
  const driver::Compiled compiled = driver::compile_program(
      medium_node().program, driver::Config::Verified);
  const AllocCounter allocs;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        wcet::analyze_wcet(compiled.image, medium_node().step_fn));
  allocs.report(state);
}
BENCHMARK(BM_WcetAnalysis);

void BM_WcetIpet(benchmark::State& state) {
  const driver::Compiled compiled = driver::compile_program(
      medium_node().program, driver::Config::Verified);
  wcet::WcetOptions options;
  options.engine = wcet::WcetEngine::Ipet;
  const AllocCounter allocs;
  for (auto _ : state)
    benchmark::DoNotOptimize(wcet::analyze_wcet(
        compiled.image, medium_node().step_fn, options));
  allocs.report(state);
}
BENCHMARK(BM_WcetIpet);

// The scalar passes that cost the compile most, one lane each
// (0 constprop, 1 dce, 2 regalloc), on the medium node's step function:
// constprop and dce on its freshly lowered RTL, regalloc on its optimized
// RTL under the ppc register file. The input is restored outside the timed
// region into the same buffers, so allocs/op is the pass's own traffic.
void BM_ScalarPasses(benchmark::State& state) {
  static constexpr const char* kNames[] = {"constprop", "dce", "regalloc"};
  const auto lane = static_cast<std::size_t>(state.range(0));
  state.SetLabel(kNames[lane]);
  const driver::Compiled compiled = driver::compile_program(
      medium_node().program, driver::Config::Verified);
  const driver::FunctionArtifact& art =
      compiled.artifacts.at(medium_node().step_fn);
  const rtl::Function& input = lane == 2 ? art.rtl_optimized : art.rtl_lowered;
  const mach::TargetDesc& ppc = mach::target_by_name("ppc");
  rtl::Function work = input;
  const AllocCounter allocs;
  for (auto _ : state) {
    state.PauseTiming();
    work = input;
    state.ResumeTiming();
    switch (lane) {
      case 0:
        benchmark::DoNotOptimize(opt::constant_propagation(work));
        break;
      case 1:
        benchmark::DoNotOptimize(opt::dead_code_elimination(work));
        break;
      default:
        benchmark::DoNotOptimize(regalloc::allocate_registers(
            work, ppc.n_int_colors(), ppc.n_float_colors()));
        break;
    }
  }
  allocs.report(state);
}
BENCHMARK(BM_ScalarPasses)->Arg(0)->Arg(1)->Arg(2);

/// Simulates the medium node's step function in a loop, with the execution
/// monitor armed at `mode` (Off: plain simulation); `cold_caches` clears
/// the caches before every call.
void simulate_steps(benchmark::State& state, machine::MonitorMode mode,
                    bool cold_caches = false) {
  const driver::Compiled compiled = driver::compile_program(
      medium_node().program, driver::Config::Verified);
  machine::Machine m(compiled.image);
  const machine::MonitorSpec spec =
      mode == machine::MonitorMode::Off
          ? machine::MonitorSpec{}
          : wcet::build_monitor_spec(compiled.image, medium_node().step_fn,
                                     mode);
  m.arm_monitor(spec, mode);
  const minic::Function* fn =
      medium_node().program.find_function(medium_node().step_fn);
  std::vector<minic::Value> args;
  for (const auto& p : fn->params)
    args.push_back(p.type == minic::Type::F64 ? minic::Value::of_f64(1.25)
                                              : minic::Value::of_i32(1));
  std::uint64_t instructions = 0;
  const AllocCounter allocs;
  for (auto _ : state) {
    if (cold_caches) m.clear_caches();
    m.call(medium_node().step_fn, args, minic::Type::I32);
    instructions += m.stats().instructions;
  }
  allocs.report(state);
  state.counters["insns/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void BM_SimulatedStep(benchmark::State& state) {
  simulate_steps(state, machine::MonitorMode::Off);
}
BENCHMARK(BM_SimulatedStep);

// The same node under the Full monitor (spec built once, outside the loop),
// so the per-step monitor cost is the gap between the two insns/s numbers.
void BM_SimulatedStepMonitored(benchmark::State& state) {
  simulate_steps(state, machine::MonitorMode::Full);
}
BENCHMARK(BM_SimulatedStepMonitored);

// The plain simulation from empty caches on every call, as the cold-cache
// campaigns run it: a straight-line run that misses in either cache is
// timed by replaying the issue model over its words.
void BM_SimulatedStepColdCaches(benchmark::State& state) {
  simulate_steps(state, machine::MonitorMode::Off, true);
}
BENCHMARK(BM_SimulatedStepColdCaches);

}  // namespace

BENCHMARK_MAIN();
