// Pass-framework tests: configuration-name round-tripping, pipeline
// resolution (--passes / --disable-pass), per-pass telemetry, dump-after,
// the machine fixpoint bound, the RTL round group's exit on a repeated
// round, and thread-count invariance of the hook sequence (the fleet's
// determinism contract extended to per-pass events).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "pass/pass.hpp"
#include "rtl/analysis.hpp"
#include "rtl/lower.hpp"
#include "rtl/rtl.hpp"
#include "support/diagnostics.hpp"
#include "support/threadpool.hpp"

namespace vc {
namespace {

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

const char* kCseSource = R"(
  func f64 chain(f64 a, f64 b, f64 c) {
    local f64 t1; local f64 t2;
    t1 = a * 2.0 + b;
    t2 = a * 2.0 + c;
    return t1 + t2 + (1.5 + 2.5) * t1;
  }
)";

TEST(ConfigNames, RoundTripOverAllConfigs) {
  // kConfigNames is the single source of truth: both spellings of every
  // configuration must parse back to it, and to_string must render the full
  // spelling listed in the table.
  for (const driver::ConfigName& entry : driver::kConfigNames) {
    EXPECT_EQ(driver::to_string(entry.config), entry.full);
    const auto from_cli = driver::parse_config(entry.cli);
    ASSERT_TRUE(from_cli.has_value()) << entry.cli;
    EXPECT_EQ(*from_cli, entry.config);
    const auto from_full = driver::parse_config(entry.full);
    ASSERT_TRUE(from_full.has_value()) << entry.full;
    EXPECT_EQ(*from_full, entry.config);
    // The round trip the reports rely on.
    EXPECT_EQ(*driver::parse_config(driver::to_string(entry.config)),
              entry.config);
  }
  // Every configuration appears in the table exactly once.
  std::size_t covered = 0;
  for (driver::Config c : driver::kAllConfigs)
    for (const driver::ConfigName& entry : driver::kConfigNames)
      if (entry.config == c) ++covered;
  EXPECT_EQ(covered, std::size(driver::kAllConfigs));
  EXPECT_FALSE(driver::parse_config("O3").has_value());
  EXPECT_FALSE(driver::parse_config("").has_value());
}

TEST(ConfigNames, ValidateLevelToString) {
  EXPECT_EQ(driver::to_string(driver::ValidateLevel::Off), "off");
  EXPECT_EQ(driver::to_string(driver::ValidateLevel::Rtl), "rtl");
  EXPECT_EQ(driver::to_string(driver::ValidateLevel::Full), "full");
}

TEST(PassPipeline, NoHardWiredSequencePerConfig) {
  // Every configuration's pipeline resolves against the builtin registry and
  // contains the structural skeleton in order.
  const pass::Registry registry = pass::Registry::builtin();
  for (driver::Config c : driver::kAllConfigs) {
    const std::vector<std::string> names = driver::pipeline_names(c);
    std::size_t lower_at = names.size(), regalloc_at = 0, emit_at = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
      ASSERT_NE(registry.find(names[i]), nullptr) << names[i];
      if (names[i] == "lower") lower_at = i;
      if (names[i] == "regalloc") regalloc_at = i;
      if (names[i] == "emit") emit_at = i;
    }
    EXPECT_EQ(lower_at, 0u);
    EXPECT_LT(regalloc_at, emit_at);
  }
  // O2-full strictly extends verified with the machine optimizers.
  const auto o2 = driver::pipeline_names(driver::Config::O2Full);
  EXPECT_NE(std::find(o2.begin(), o2.end(), "peephole"), o2.end());
  EXPECT_NE(std::find(o2.begin(), o2.end(), "schedule"), o2.end());
  const auto verified = driver::pipeline_names(driver::Config::Verified);
  EXPECT_EQ(std::find(verified.begin(), verified.end(), "peephole"),
            verified.end());
}

TEST(PassPipeline, DisableAndSelectResolve) {
  driver::CompileOptions disable;
  disable.disable_passes = {"cse"};
  const auto without_cse =
      driver::resolve_pipeline(driver::Config::Verified, disable);
  EXPECT_EQ(std::find(without_cse.begin(), without_cse.end(), "cse"),
            without_cse.end());
  EXPECT_NE(std::find(without_cse.begin(), without_cse.end(), "constprop"),
            without_cse.end());

  driver::CompileOptions select;
  select.passes = {"cse"};
  const auto only_cse =
      driver::resolve_pipeline(driver::Config::Verified, select);
  EXPECT_NE(std::find(only_cse.begin(), only_cse.end(), "cse"),
            only_cse.end());
  EXPECT_EQ(std::find(only_cse.begin(), only_cse.end(), "constprop"),
            only_cse.end());
  // The skeleton survives selection.
  EXPECT_NE(std::find(only_cse.begin(), only_cse.end(), "regalloc"),
            only_cse.end());

  driver::CompileOptions bad_disable;
  bad_disable.disable_passes = {"regalloc"};  // structural: not ablatable
  EXPECT_THROW(driver::resolve_pipeline(driver::Config::Verified, bad_disable),
               CompileError);
  driver::CompileOptions unknown;
  unknown.disable_passes = {"no-such-pass"};
  EXPECT_THROW(driver::resolve_pipeline(driver::Config::Verified, unknown),
               CompileError);
  driver::CompileOptions select_structural;
  select_structural.passes = {"emit"};
  EXPECT_THROW(
      driver::resolve_pipeline(driver::Config::Verified, select_structural),
      CompileError);
}

TEST(PassPipeline, DisabledPassNeverFires) {
  const minic::Program program = parse(kCseSource);
  driver::CompileOptions copts;
  copts.disable_passes = {"cse"};
  std::vector<std::string> fired;
  copts.hook = [&fired](const pass::StepTrace& t) {
    fired.push_back(t.pass);
    return 0;
  };
  driver::compile_program(program, driver::Config::Verified, copts);
  EXPECT_EQ(std::find(fired.begin(), fired.end(), "cse"), fired.end());
  EXPECT_NE(std::find(fired.begin(), fired.end(), "regalloc"), fired.end());
}

TEST(PassTelemetry, StatsCountRunsAndDeltas) {
  const minic::Program program = parse(kCseSource);
  pass::PipelineStats stats;
  driver::CompileOptions copts;
  copts.stats = &stats;
  driver::compile_program(program, driver::Config::O2Full, copts);
  ASSERT_FALSE(stats.passes.empty());
  // Structural steps ran exactly once per function.
  const pass::PassStat* lower = stats.find("lower");
  ASSERT_NE(lower, nullptr);
  EXPECT_EQ(lower->runs, 1u);
  EXPECT_GT(lower->ir_delta, 0);  // lowering creates the instructions
  const pass::PassStat* cse = stats.find("cse");
  ASSERT_NE(cse, nullptr);
  EXPECT_GE(cse->runs, 1u);
  EXPECT_GE(cse->rewrites, 1);  // the kernel has a textbook CSE target
  EXPECT_GE(stats.total_seconds(), 0.0);

  // Aggregation is per-name addition, as the fleet runner uses it.
  pass::PipelineStats sum;
  sum += stats;
  sum += stats;
  EXPECT_EQ(sum.find("lower")->runs, 2u);
}

TEST(PassTelemetry, DumpAfterFiresOnApply) {
  const minic::Program program = parse(kCseSource);
  driver::CompileOptions copts;
  copts.dump_after = "cse";
  int dumps = 0;
  copts.dump = [&dumps](const std::string& pass,
                        const pass::FunctionState& state) {
    EXPECT_EQ(pass, "cse");
    EXPECT_FALSE(state.rtl.blocks.empty());
    ++dumps;
  };
  driver::compile_program(program, driver::Config::Verified, copts);
  EXPECT_GE(dumps, 1);
}

TEST(PassManager, MachineFixpointCapIsAnInternalError) {
  // An oscillating machine rewrite (always reports one more rewrite) must be
  // caught by the bounded fixpoint, naming the function — a diverging rewrite
  // system is a compiler bug, not an input to loop on forever.
  const minic::Program program = parse("func i32 f() { return 1; }");
  pass::Registry registry = pass::Registry::builtin();
  pass::StepDef osc;
  osc.name = "osc";
  osc.level = pass::Level::Machine;
  osc.fixpoint = true;
  osc.run = [](pass::FunctionState&) { return 1; };
  registry.add(std::move(osc));

  pass::FunctionState state;
  state.program = &program;
  state.source = &program.functions[0];
  state.emitted = true;

  pass::ManagerOptions mopts;
  mopts.machine_fixpoint_cap = 8;
  const pass::PassManager manager(registry, {"osc"}, std::move(mopts));
  try {
    manager.run(state);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("osc"), std::string::npos) << what;
    EXPECT_NE(what.find("f"), std::string::npos) << what;
    EXPECT_NE(what.find("8"), std::string::npos) << what;
  }
}

TEST(PassManager, ConvergentFixpointStaysUnderTheCap) {
  // A rewrite that runs dry after three iterations converges normally and
  // reports the summed rewrite count.
  const minic::Program program = parse("func i32 f() { return 1; }");
  pass::Registry registry = pass::Registry::builtin();
  int budget = 3;
  pass::StepDef shrink;
  shrink.name = "shrink";
  shrink.level = pass::Level::Machine;
  shrink.fixpoint = true;
  shrink.run = [&budget](pass::FunctionState&) {
    return budget > 0 ? (--budget, 1) : 0;
  };
  registry.add(std::move(shrink));

  pass::FunctionState state;
  state.program = &program;
  state.source = &program.functions[0];
  state.emitted = true;

  pass::PipelineStats stats;
  pass::ManagerOptions mopts;
  mopts.machine_fixpoint_cap = 8;
  mopts.stats = &stats;
  const pass::PassManager manager(registry, {"shrink"}, std::move(mopts));
  EXPECT_NO_THROW(manager.run(state));
  EXPECT_EQ(budget, 0);
  ASSERT_NE(stats.find("shrink"), nullptr);
  EXPECT_EQ(stats.find("shrink")->rewrites, 3);
}

/// The first integer constant of `fn` (the test kernels have one).
rtl::Instr& first_ldi(rtl::Function& fn) {
  for (rtl::BasicBlock& bb : fn.blocks)
    for (rtl::Instr& ins : bb.instrs)
      if (ins.op == rtl::Opcode::LdI) return ins;
  throw InternalError("no LdI in the test kernel");
}

pass::StepDef rtl_fixpoint_step(const char* name, int (*fn)(rtl::Function&)) {
  pass::StepDef d;
  d.name = name;
  d.level = pass::Level::Rtl;
  d.fixpoint = true;
  d.run = [fn](pass::FunctionState& s) { return fn(s.rtl); };
  return d;
}

// Two steps that undo each other, as CSE and constprop do on a repeated
// LdI: `up` makes an odd constant even, `down` makes an even one odd (and
// folds constants above 10 down by 11, so the first round moves 11 to 1).
int step_up(rtl::Function& fn) {
  rtl::Instr& ldi = first_ldi(fn);
  if (ldi.int_imm % 2 == 0) return 0;
  ++ldi.int_imm;
  return 1;
}
int step_down(rtl::Function& fn) {
  rtl::Instr& ldi = first_ldi(fn);
  if (ldi.int_imm % 2 != 0) return 0;
  ldi.int_imm -= ldi.int_imm > 10 ? 11 : 1;
  return 1;
}
// Two steps that change the constant in every round: +2, then -1.
int step_tick(rtl::Function& fn) {
  first_ldi(fn).int_imm += 2;
  return 1;
}
int step_tock(rtl::Function& fn) {
  first_ldi(fn).int_imm -= 1;
  return 1;
}

/// The round-group cap the manager applies (kRtlRounds in pass.cpp).
constexpr int kRoundCap = 4;

/// Runs `names` over the single function of `program` with the four test
/// steps registered, recording the hook sequence and per-pass stats.
rtl::Function run_round_group(const minic::Program& program,
                              const std::vector<std::string>& names,
                              std::vector<std::string>* fired,
                              pass::PipelineStats* stats) {
  pass::Registry registry = pass::Registry::builtin();
  registry.add(rtl_fixpoint_step("up", step_up));
  registry.add(rtl_fixpoint_step("down", step_down));
  registry.add(rtl_fixpoint_step("tick", step_tick));
  registry.add(rtl_fixpoint_step("tock", step_tock));

  pass::FunctionState state;
  state.program = &program;
  state.source = &program.functions[0];
  pass::ManagerOptions mopts;
  mopts.stats = stats;
  mopts.hook = [fired](const pass::StepTrace& t) {
    fired->push_back(t.pass);
    return 0;
  };
  const pass::PassManager manager(registry, names, std::move(mopts));
  manager.run(state);
  return state.rtl;
}

TEST(PassManager, RoundGroupStopsOnARepeatedRound) {
  const minic::Program program = parse("func i32 f() { return 11; }");
  std::vector<std::string> fired;
  pass::PipelineStats stats;
  const rtl::Function out =
      run_round_group(program, {"lower", "up", "down"}, &fired, &stats);

  // Round 0 moves 11 -> 12 -> 1; round 1 moves 1 -> 2 -> 1, its own input,
  // so the group stops there instead of at the cap of 4 rounds.
  EXPECT_EQ(fired, (std::vector<std::string>{"lower", "up", "down", "up",
                                             "down"}));
  EXPECT_EQ(stats.find("up")->runs, 2u);
  EXPECT_EQ(stats.find("down")->runs, 2u);

  // The output is the one running every round up to the cap produces.
  rtl::Function capped = rtl::lower_function(program, program.functions[0],
                                             rtl::LowerMode::Value);
  rtl::remove_unreachable_blocks(capped);
  for (int round = 0; round < kRoundCap; ++round) {
    step_up(capped);
    step_down(capped);
  }
  EXPECT_TRUE(rtl::identical(out, capped)) << rtl::print_function(out);
  EXPECT_EQ(first_ldi(capped).int_imm, 1);
}

TEST(PassManager, RoundGroupThatKeepsChangingRunsToTheCap) {
  const minic::Program program = parse("func i32 f() { return 11; }");
  std::vector<std::string> fired;
  pass::PipelineStats stats;
  rtl::Function out =
      run_round_group(program, {"lower", "tick", "tock"}, &fired, &stats);
  const int rounds = kRoundCap;
  EXPECT_EQ(stats.find("tick")->runs, static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(stats.find("tock")->runs, static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(fired.size(), 1u + 2u * static_cast<std::size_t>(rounds));
  EXPECT_EQ(first_ldi(out).int_imm, 11 + rounds);
}

TEST(PassManager, UnknownPipelineNameThrows) {
  EXPECT_THROW(pass::PassManager(pass::Registry::builtin(), {"nope"}),
               CompileError);
}

TEST(PassHooks, SequenceIsThreadCountInvariant) {
  // The per-program hook sequence (pass firing order) must be identical
  // whether compiles run serially or on eight workers: hooks observe only
  // their own job's state, never scheduling order.
  std::vector<minic::Program> programs;
  for (int i = 0; i < 12; ++i) {
    std::string src = "global f64 s" + std::to_string(i) +
                      " = 0.5;\n"
                      "func f64 job" +
                      std::to_string(i) + "(f64 x, f64 y) {\n  local f64 a;\n";
    for (int k = 0; k <= i % 4; ++k)
      src += "  a = x * " + std::to_string(k + 2) + ".0 + y;\n  s" +
             std::to_string(i) + " = s" + std::to_string(i) + " + a;\n";
    src += "  return a + x * 2.0 + (x * 2.0);\n}\n";
    programs.push_back(parse(src));
  }

  const auto sequences_at = [&](std::size_t jobs) {
    std::vector<std::vector<std::string>> seqs(programs.size());
    parallel_for(programs.size(), jobs, [&](std::size_t i) {
      driver::CompileOptions copts;
      copts.hook = [&seqs, i](const pass::StepTrace& t) {
        seqs[i].push_back(t.pass);
        return 0;
      };
      driver::compile_program(programs[i], driver::Config::O2Full, copts);
    });
    return seqs;
  };

  const auto serial = sequences_at(1);
  const auto parallel8 = sequences_at(8);
  ASSERT_EQ(serial.size(), parallel8.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty()) << i;
    EXPECT_EQ(serial[i], parallel8[i]) << "hook sequence diverged for job "
                                       << i;
  }
}

}  // namespace
}  // namespace vc
