// Execution-monitor tests: the dynamic soundness oracle (machine/monitor.hpp)
// against real compiled executions.
//
// The load-bearing cases are the seeded *mutation* tests: corrupt one fact of
// the statically-built MonitorSpec — a CFG edge, an annotation interval, a
// loop-bound row — and prove the armed simulator refutes it with a
// MonitorError naming the right function and pc. A monitor that cannot catch
// a planted lie proves nothing when a campaign reports zero violations.
//
// Also here: the FuelExhausted error taxonomy (a truncated run is not an
// observation), the fleet's discard-on-failure audit, thread-count
// determinism of monitored campaigns, uint64 counter-width pinning, and
// specs built from shared flow facts against the self-contained builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/compiler.hpp"
#include "driver/fleet.hpp"
#include "machine/machine.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "mach/timing.hpp"
#include "mach/target.hpp"
#include "reference_campaign.hpp"
#include "wcet/monitor_spec.hpp"

namespace vc {
namespace {

using minic::Value;

/// The workhorse program: an annotated parameter and a bounded loop, so a
/// Full spec carries all three fact kinds (edges, intervals, loop rows).
constexpr const char* kLoopSource = R"(
  func i32 f(i32 n) {
    local i32 i;
    local i32 acc;
    __annot("0 <= %1 <= 6", n);
    i = 0;
    acc = 0;
    while (i < n) {
      __annot("loop <= 6");
      acc = acc + i;
      i = i + 1;
    }
    return acc;
  }
)";

driver::Compiled compile(const std::string& source,
                         driver::Config config = driver::Config::Verified) {
  minic::Program program = minic::parse_program(source);
  minic::type_check(program);
  return driver::compile_program(program, config);
}

machine::MonitorSpec full_spec(const driver::Compiled& compiled,
                               const std::string& fn = "f") {
  return wcet::build_monitor_spec(compiled.image, fn,
                                  machine::MonitorMode::Full);
}

std::int32_t run_monitored(const driver::Compiled& compiled,
                           const machine::MonitorSpec& spec,
                           machine::MonitorMode mode, std::int32_t arg) {
  machine::Machine m(compiled.image);
  m.arm_monitor(spec, mode);
  return m.call("f", {Value::of_i32(arg)}, minic::Type::I32).i;
}

TEST(MonitorChain, IndependentParserMatchesTheGrammar) {
  const auto r = machine::monitor_parse_chain("0 <= %1 <= %2 < 360");
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].operand, 1);
  EXPECT_EQ((*r)[0].lo, 0);
  EXPECT_EQ((*r)[0].hi, 359);
  EXPECT_EQ((*r)[1].lo, 0);
  EXPECT_EQ((*r)[1].hi, 359);

  // Strict links tighten by one per hop (integer anchors).
  const auto s = machine::monitor_parse_chain("-5 < %1 < 5");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ((*s)[0].lo, -4);
  EXPECT_EQ((*s)[0].hi, 4);

  // Loop rows and junk are not value chains.
  EXPECT_FALSE(machine::monitor_parse_chain("loop <= 6").has_value());
  EXPECT_FALSE(machine::monitor_parse_chain("mode is cruise").has_value());
  EXPECT_FALSE(machine::monitor_parse_chain("%1 >= 0").has_value());
}

TEST(Monitor, CleanRunChecksEveryStepAndFindsNothing) {
  const driver::Compiled compiled = compile(kLoopSource);
  const machine::MonitorSpec spec = full_spec(compiled);

  // The spec is non-trivial: it really carries all three fact kinds.
  EXPECT_FALSE(spec.branch_targets.empty());
  EXPECT_FALSE(spec.value_checks.empty());
  ASSERT_EQ(spec.loops.size(), 1u);
  EXPECT_EQ(spec.loops[0].bound, 6);

  machine::Machine m(compiled.image);
  m.arm_monitor(spec, machine::MonitorMode::Full);
  const Value result = m.call("f", {Value::of_i32(5)}, minic::Type::I32);
  EXPECT_EQ(result.i, 0 + 1 + 2 + 3 + 4);
  ASSERT_NE(m.monitor(), nullptr);
  // Every executed instruction passed through the monitor.
  EXPECT_EQ(m.monitor()->steps(), m.stats().instructions);
  EXPECT_GT(m.monitor()->steps(), 0u);
}

TEST(Monitor, MutatedCfgEdgeFiresWithFunctionAndPc) {
  const driver::Compiled compiled = compile(kLoopSource);
  machine::MonitorSpec spec = full_spec(compiled);
  ASSERT_EQ(spec.loops.size(), 1u);
  const machine::MonitorLoopRow& row = spec.loops[0];

  // Corrupt the back edge: find the branch inside the loop body that targets
  // the header and delete the header from its legal-successor list.
  std::uint32_t latch_pc = 0;
  for (auto& [pc, targets] : spec.branch_targets) {
    if (!row.contains(pc)) continue;
    const auto it = std::find(targets.begin(), targets.end(), row.header_pc);
    if (it == targets.end()) continue;
    targets.erase(it);
    latch_pc = pc;
    break;
  }
  ASSERT_NE(latch_pc, 0u) << "no back-edge branch found to mutate";

  try {
    run_monitored(compiled, spec, machine::MonitorMode::Full, 5);
    FAIL() << "planted CFG lie was not refuted";
  } catch (const machine::MonitorError& e) {
    EXPECT_EQ(e.function(), "f");
    EXPECT_EQ(e.pc(), latch_pc);
    EXPECT_NE(e.fact().find("not an edge"), std::string::npos) << e.fact();
  }
}

TEST(Monitor, MutatedAnnotationBoundFiresAtItsAnchor) {
  const driver::Compiled compiled = compile(kLoopSource);
  machine::MonitorSpec spec = full_spec(compiled);
  ASSERT_FALSE(spec.value_checks.empty());
  // Tighten the claimed interval of n from [0, 6] to [0, 2]; calling with
  // n = 5 then refutes the (now false) claim at its anchor.
  spec.value_checks[0].hi = 2;
  const std::uint32_t anchor = spec.value_checks[0].pc;

  try {
    run_monitored(compiled, spec, machine::MonitorMode::Full, 5);
    FAIL() << "planted annotation lie was not refuted";
  } catch (const machine::MonitorError& e) {
    EXPECT_EQ(e.function(), "f");
    EXPECT_EQ(e.pc(), anchor);
    EXPECT_NE(e.fact().find("annotation"), std::string::npos) << e.fact();
  }
}

TEST(Monitor, MutatedLoopBoundRowFires) {
  const driver::Compiled compiled = compile(kLoopSource);
  machine::MonitorSpec spec = full_spec(compiled);
  ASSERT_EQ(spec.loops.size(), 1u);
  // Claim at most 3 back edges per entry; n = 5 takes 5.
  spec.loops[0].bound = 3;

  try {
    run_monitored(compiled, spec, machine::MonitorMode::Full, 5);
    FAIL() << "planted loop-bound lie was not refuted";
  } catch (const machine::MonitorError& e) {
    EXPECT_EQ(e.function(), "f");
    EXPECT_NE(e.fact().find("back edge"), std::string::npos) << e.fact();
  }
}

TEST(Monitor, CfgModeIgnoresValueAndLoopFacts) {
  const driver::Compiled compiled = compile(kLoopSource);
  machine::MonitorSpec spec = full_spec(compiled);
  ASSERT_FALSE(spec.value_checks.empty());
  ASSERT_EQ(spec.loops.size(), 1u);
  // Both lies planted — but Cfg mode only checks control flow.
  spec.value_checks[0].hi = -1;
  spec.loops[0].bound = 0;
  EXPECT_EQ(run_monitored(compiled, spec, machine::MonitorMode::Cfg, 5), 10);
}

TEST(Monitor, BrokenCallerContractIsRefutedWithoutAnyMutation) {
  // f claims 0 <= n <= 6; calling with n = 9 makes the *genuine* annotation
  // false on the live trace. The monitor exists to catch exactly this: a
  // static fact base the real execution does not honour.
  const driver::Compiled compiled = compile(kLoopSource);
  const machine::MonitorSpec spec = full_spec(compiled);
  EXPECT_THROW(run_monitored(compiled, spec, machine::MonitorMode::Full, 9),
               machine::MonitorError);
  // Unmonitored, the same call runs to completion — the lie goes unnoticed.
  machine::Machine m(compiled.image);
  EXPECT_EQ(m.call("f", {Value::of_i32(9)}, minic::Type::I32).i, 36);
}

TEST(Monitor, MonitoredRunMatchesUnmonitoredResultsAndTiming) {
  const driver::Compiled compiled = compile(kLoopSource);
  const machine::MonitorSpec spec = full_spec(compiled);

  machine::Machine plain(compiled.image);
  const Value want = plain.call("f", {Value::of_i32(6)}, minic::Type::I32);
  const std::uint64_t want_cycles = plain.stats().cycles;

  machine::Machine monitored(compiled.image);
  monitored.arm_monitor(spec, machine::MonitorMode::Full);
  const Value got = monitored.call("f", {Value::of_i32(6)}, minic::Type::I32);
  EXPECT_EQ(got.i, want.i);
  // The monitor observes; it must not perturb the timing model.
  EXPECT_EQ(monitored.stats().cycles, want_cycles);
}

TEST(Monitor, FuelExhaustionIsADistinctError) {
  const driver::Compiled compiled = compile(kLoopSource);
  machine::Machine m(compiled.image);
  m.set_fuel(10);
  EXPECT_THROW(m.call("f", {Value::of_i32(6)}, minic::Type::I32),
               machine::FuelExhausted);
  // Still a MachineError, so existing catch-all harnesses keep working.
  static_assert(
      std::is_base_of_v<machine::MachineError, machine::FuelExhausted>);
}

TEST(Monitor, FleetNeverRecordsStatsFromFailedExecution) {
  // divw by zero faults at runtime under O0 (no folding); the job must fail
  // AND carry no execution observations — stats from a truncated or faulted
  // run would fake out the WCET soundness comparison.
  minic::Program program = minic::parse_program(R"(
    func i32 bad(i32 a) {
      return 7 / (a - a);
    }
  )");
  minic::type_check(program);

  driver::FleetOptions options;
  options.jobs = 1;
  options.exec_cycles = 3;
  options.configs = {driver::Config::O0Pattern};
  const driver::FleetReport report =
      driver::run_fleet({{"bad", &program, "bad", std::nullopt}}, options);
  ASSERT_EQ(report.records.size(), 1u);
  const driver::FleetRecord& r = report.records[0];
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("divw"), std::string::npos) << r.error;
  EXPECT_EQ(r.exec.cycles, 0u);
  EXPECT_EQ(r.exec.instructions, 0u);
  EXPECT_EQ(r.observed_max_cycles, 0u);
}

/// Owns the generated programs (FleetUnit only points at them).
struct Suite {
  std::vector<minic::Program> programs;
  std::vector<driver::FleetUnit> units;
};

Suite small_suite(int count) {
  Suite s;
  const std::vector<dataflow::Node> nodes =
      dataflow::generate_suite(20110318, count);
  for (const dataflow::Node& node : nodes) {
    minic::Program program;
    program.name = node.name();
    dataflow::generate_node(node, &program);
    minic::type_check(program);
    s.programs.push_back(std::move(program));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i)
    s.units.push_back({nodes[i].name(), &s.programs[i],
                       dataflow::step_function_name(nodes[i]), std::nullopt});
  return s;
}

TEST(Monitor, MonitoredFleetIsThreadCountInvariant) {
  const Suite suite = small_suite(4);
  driver::FleetOptions options;
  options.exec_cycles = 5;
  options.wcet = true;
  options.monitor = machine::MonitorMode::Full;

  options.jobs = 1;
  const driver::FleetReport serial = driver::run_fleet(suite.units, options);
  options.jobs = 8;
  const driver::FleetReport parallel = driver::run_fleet(suite.units, options);

  EXPECT_EQ(serial.spec.monitor, machine::MonitorMode::Full);
  EXPECT_EQ(serial.monitor_violations, 0u);
  EXPECT_EQ(serial.monitored_records, serial.records.size());
  EXPECT_GT(serial.monitored_steps, 0u);

  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const driver::FleetRecord& a = serial.records[i];
    const driver::FleetRecord& b = parallel.records[i];
    SCOPED_TRACE(a.name + "/" + driver::to_string(a.config));
    EXPECT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.monitored_steps, b.monitored_steps);
    EXPECT_EQ(a.monitor_violations, b.monitor_violations);
    EXPECT_EQ(a.exec.cycles, b.exec.cycles);
    EXPECT_EQ(a.observed_max_cycles, b.observed_max_cycles);
    // The armed monitor checked exactly the executed instructions.
    EXPECT_EQ(a.monitored_steps, a.exec.instructions);
  }
  EXPECT_EQ(serial.monitored_steps, parallel.monitored_steps);
}

TEST(CounterWidth, ExecStatsAndIssueModelAreUint64Clean) {
  // Pin the accumulator widths: a 2500-node campaign at ~30 runs per job can
  // push cycle totals far past 2^32; any uint32 intermediate would wrap
  // silently.
  static_assert(std::is_same_v<decltype(machine::ExecStats::cycles),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(machine::ExecStats::instructions),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(machine::ExecStats::dcache_reads),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(machine::ExecStats::taken_branches),
                               std::uint64_t>);

  // The pipeline's cycle counter must keep counting past uint32 range even
  // when fed uint32-sized stalls.
  mach::IssueModel pipe(mach::target_by_name("ppc"));
  pipe.reset();
  const std::uint32_t big = 0xFFFFFFFFu;
  pipe.add_stall(big);
  pipe.add_stall(big);
  pipe.add_stall(big);
  EXPECT_GE(pipe.current_cycle(),
            3u * static_cast<std::uint64_t>(big));
}

void expect_same_spec(const machine::MonitorSpec& a,
                      const machine::MonitorSpec& b) {
  EXPECT_EQ(a.function, b.function);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.branch_targets, b.branch_targets);
  ASSERT_EQ(a.value_checks.size(), b.value_checks.size());
  for (std::size_t i = 0; i < a.value_checks.size(); ++i) {
    const machine::MonitorValueCheck& x = a.value_checks[i];
    const machine::MonitorValueCheck& y = b.value_checks[i];
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.loc.kind, y.loc.kind);
    EXPECT_EQ(x.loc.index, y.loc.index);
    EXPECT_EQ(x.loc.offset, y.loc.offset);
    EXPECT_EQ(x.loc.is_f64, y.loc.is_f64);
    EXPECT_EQ(x.lo, y.lo);
    EXPECT_EQ(x.hi, y.hi);
    EXPECT_EQ(x.text, y.text);
  }
  ASSERT_EQ(a.loops.size(), b.loops.size());
  for (std::size_t l = 0; l < a.loops.size(); ++l) {
    EXPECT_EQ(a.loops[l].header_pc, b.loops[l].header_pc);
    EXPECT_EQ(a.loops[l].bound, b.loops[l].bound);
    EXPECT_EQ(a.loops[l].body, b.loops[l].body);
  }
}

// A spec built from the job's shared flow facts (the deepest the fleet
// computes, also feeding its WCET bounds) equals the self-contained
// wrapper's: every function of the reference suite, both targets, both
// monitoring modes.
TEST(MonitorSpec, SharedFactsMatchTheWrapperOnTheReferenceSuite) {
  int specs = 0;
  for (const char* target : {"ppc", "rv32"}) {
    driver::CompileOptions copts;
    copts.target = target;
    for (const bench::NodeBundle& b : bench::reference_suite()) {
      const driver::Compiled compiled =
          driver::compile_program(b.program, driver::Config::Verified, copts);
      for (const minic::Function& fn : b.program.functions) {
        SCOPED_TRACE(std::string(target) + " " + b.program.name + "/" + fn.name);
        const wcet::FlowFacts facts = wcet::flow_facts(
            compiled.image, fn.name, wcet::FlowDepth::Reducible);
        for (const machine::MonitorMode mode :
             {machine::MonitorMode::Cfg, machine::MonitorMode::Full}) {
          const machine::MonitorSpec shared =
              wcet::build_monitor_spec(compiled.image, facts, mode);
          expect_same_spec(shared, wcet::build_monitor_spec(compiled.image,
                                                            fn.name, mode));
          if (mode == machine::MonitorMode::Full) {
            EXPECT_EQ(shared.loops.size(), facts.cfg.loops.size());
          }
          ++specs;
        }
      }
    }
  }
  EXPECT_GE(specs, 2 * 41 * 2);
}

}  // namespace
}  // namespace vc
