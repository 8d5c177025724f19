// Parity of the scalar passes with their dense references
// (reference_scalar_passes.hpp): constant propagation with one cell per
// dominating single definition and live-in per-block state, and dead code
// elimination by in-place deletion. On every input both must leave the
// same function dump and return the same value as the dense solvers.
//
// Two input families: every constprop/dce execution of the generated
// 10-node suite compiled under all four configurations, on both targets,
// with and without the SSA mid-end; and seeded random RTL functions whose
// registers are defined several times, read before any definition, carried
// around loops and tested by constant branches.
#include <gtest/gtest.h>

#include "bench_common.hpp"
#include "driver/compiler.hpp"
#include "mach/target.hpp"
#include "opt/opt.hpp"
#include "pass/pass.hpp"
#include "reference_scalar_passes.hpp"
#include "rtl/analysis.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

using rtl::Opcode;
using rtl::RegClass;
using rtl::VReg;

using PassFn = bool (*)(rtl::Function&);

/// Runs `pass` on `fn` and `reference` on a copy of the input; both must
/// return the same value and leave the same function. Returns the pass's
/// result.
bool expect_parity(const char* name, rtl::Function& fn, PassFn pass,
                   PassFn reference) {
  rtl::Function expected = fn;
  const std::string input = rtl::print_function(fn);
  const bool want = reference(expected);
  const bool got = pass(fn);
  EXPECT_EQ(got, want) << name << " on\n" << input;
  EXPECT_EQ(rtl::print_function(fn), rtl::print_function(expected))
      << name << " on\n" << input;
  EXPECT_EQ(fn.vregs.size(), expected.vregs.size()) << name;
  return got;
}

struct ParityCounts {
  int runs = 0;
  int changed = 0;
};

/// A pipeline step that checks `pass` against `reference` on every call.
pass::StepDef parity_step(const char* name, PassFn pass, PassFn reference,
                          ParityCounts* counts) {
  pass::StepDef d = *pass::Registry::builtin().find(name);
  d.run = [=](pass::FunctionState& s) {
    const bool changed = expect_parity(name, s.rtl, pass, reference);
    ++counts->runs;
    counts->changed += changed ? 1 : 0;
    return changed ? 1 : 0;
  };
  return d;
}

/// Compiles every function of `program` the way driver::compile_program
/// does, but through a registry whose constprop and dce steps are parity
/// checks.
void compile_checked(const minic::Program& program, driver::Config config,
                     const std::string& target, bool ssa,
                     ParityCounts* constprop, ParityCounts* dce) {
  driver::CompileOptions options;
  options.target = target;
  options.ssa = ssa;
  const std::vector<std::string> names =
      driver::resolve_pipeline(config, options);
  pass::Registry registry = pass::Registry::builtin();
  registry.add(parity_step("constprop", opt::constant_propagation,
                           reference::dense_constant_propagation, constprop));
  registry.add(parity_step("dce", opt::dead_code_elimination,
                           reference::iterated_dead_code_elimination, dce));
  pass::ManagerOptions manager_options;
  manager_options.snapshots = false;
  const pass::PassManager manager(registry, names, manager_options);

  const bool pattern = config == driver::Config::O0Pattern ||
                       config == driver::Config::O1NoRegalloc;
  mach::DataLayout layout(program);
  for (const minic::Function& fn : program.functions) {
    pass::FunctionState state;
    state.program = &program;
    state.source = &fn;
    state.layout = &layout;
    state.lower_mode =
        pattern ? rtl::LowerMode::PatternStack : rtl::LowerMode::Value;
    state.small_data_area = config != driver::Config::Verified;
    state.spread_colors = config == driver::Config::O2Full;
    state.target = &mach::target_by_name(target);
    manager.run(state);
  }
}

TEST(ScalarPassParityTest, AgreesOnTheSuiteUnderEveryConfig) {
  const std::vector<bench::NodeBundle> suite = bench::make_suite(10);
  ParityCounts constprop;
  ParityCounts dce;
  for (const char* target : {"ppc", "rv32"})
    for (const bool ssa : {false, true})
      for (const driver::Config config : driver::kAllConfigs)
        for (const bench::NodeBundle& b : suite) {
          SCOPED_TRACE(b.node.name() + " " + driver::to_string(config) + " " +
                       target + (ssa ? " ssa" : ""));
          compile_checked(b.program, config, target, ssa, &constprop, &dce);
          if (HasFailure()) return;
        }
  // The comparison means something only if both passes rewrote. (Every
  // constprop run here rewrites something: see the random test for runs
  // that change nothing.)
  EXPECT_GT(constprop.changed, 0);
  EXPECT_GT(dce.changed, 0);
  EXPECT_GT(dce.runs, dce.changed);
}

/// A random well-formed RTL function: a handful of registers per class,
/// each written in several places, read before any write, across blocks
/// that jump, loop, branch on constants and return.
rtl::Function random_function(Rng& rng) {
  rtl::Function fn;
  fn.name = "rnd";
  fn.params = {{"p", RegClass::I32}};
  fn.has_return = true;
  fn.ret_class = RegClass::I32;
  const std::size_t n_int = 4 + rng.next_below(8);
  const std::size_t n_f64 = 2 + rng.next_below(3);
  for (std::size_t i = 0; i < n_int; ++i) fn.new_vreg(RegClass::I32);
  for (std::size_t i = 0; i < n_f64; ++i) fn.new_vreg(RegClass::F64);
  const rtl::Slot slot = fn.new_slot(RegClass::I32);
  auto int_reg = [&] { return static_cast<VReg>(rng.next_below(n_int)); };
  auto f64_reg = [&] {
    return static_cast<VReg>(n_int + rng.next_below(n_f64));
  };
  const std::size_t n_blocks = 2 + rng.next_below(7);
  auto block = [&] { return static_cast<rtl::BlockId>(rng.next_below(n_blocks)); };

  constexpr std::int32_t kImms[] = {-1, 0, 1, 2, 3, 7};
  constexpr minic::BinOp kIntOps[] = {
      minic::BinOp::IAdd,   minic::BinOp::ISub,   minic::BinOp::IMul,
      minic::BinOp::IDiv,   minic::BinOp::IRem,   minic::BinOp::IAnd,
      minic::BinOp::IShl,   minic::BinOp::ICmpLt, minic::BinOp::ICmpEq};
  constexpr minic::BinOp kCmpOps[] = {minic::BinOp::ICmpLt,
                                      minic::BinOp::ICmpEq,
                                      minic::BinOp::ICmpNe};
  for (std::size_t b = 0; b < n_blocks; ++b) {
    rtl::BasicBlock bb;
    const std::size_t n = rng.next_below(7);
    for (std::size_t k = 0; k < n; ++k) {
      rtl::Instr ins;
      switch (rng.next_below(9)) {
        case 0:
        case 1:
          ins.op = Opcode::LdI;
          ins.dst = int_reg();
          ins.int_imm = kImms[rng.next_below(std::size(kImms))];
          break;
        case 2:
          ins.op = Opcode::LdF;
          ins.dst = f64_reg();
          ins.f64_imm = rng.next_below(2) == 0 ? 0.5 : -3.0;
          break;
        case 3:
          ins.op = Opcode::Mov;
          if (rng.next_below(3) == 0) {
            ins.dst = f64_reg();
            ins.src1 = f64_reg();
          } else {
            ins.dst = int_reg();
            ins.src1 = int_reg();
          }
          break;
        case 4:
          ins.op = Opcode::Bin;
          ins.bin_op = kIntOps[rng.next_below(std::size(kIntOps))];
          ins.dst = int_reg();
          ins.src1 = int_reg();
          ins.src2 = int_reg();
          break;
        case 5:
          ins.op = Opcode::Bin;
          ins.src1 = f64_reg();
          ins.src2 = f64_reg();
          if (rng.next_below(2) == 0) {
            ins.bin_op = minic::BinOp::FMul;
            ins.dst = f64_reg();
          } else {
            ins.bin_op = minic::BinOp::FCmpLt;
            ins.dst = int_reg();
          }
          break;
        case 6:
          ins.op = Opcode::Un;
          if (rng.next_below(2) == 0) {
            ins.un_op = minic::UnOp::INeg;
            ins.dst = int_reg();
            ins.src1 = int_reg();
          } else {
            ins.un_op = minic::UnOp::I2F;
            ins.dst = f64_reg();
            ins.src1 = int_reg();
          }
          break;
        case 7:
          if (rng.next_below(2) == 0) {
            ins.op = Opcode::GetParam;
            ins.dst = int_reg();
          } else {
            ins.op = Opcode::LoadStack;
            ins.dst = int_reg();
            ins.slot = slot;
          }
          break;
        default:
          if (rng.next_below(2) == 0) {
            ins.op = Opcode::StoreStack;
            ins.slot = slot;
            ins.src1 = int_reg();
          } else {
            ins.op = Opcode::Annot;
            ins.annot_format = "%1";
            ins.annot_args = {rtl::AnnotOperand::of_vreg(int_reg())};
          }
          break;
      }
      bb.instrs.push_back(std::move(ins));
    }
    rtl::Instr t;
    switch (rng.next_below(4)) {
      case 0:
        t.op = Opcode::Jump;
        t.target = block();
        break;
      case 1: {
        // Often a constant condition set right here.
        t.op = Opcode::Branch;
        t.src1 = int_reg();
        if (rng.next_below(2) == 0) {
          rtl::Instr c;
          c.op = Opcode::LdI;
          c.dst = t.src1;
          c.int_imm = static_cast<std::int32_t>(rng.next_below(2));
          bb.instrs.push_back(c);
        }
        t.target = block();
        t.target2 = block();
        break;
      }
      case 2:
        t.op = Opcode::BranchCmp;
        t.bin_op = kCmpOps[rng.next_below(std::size(kCmpOps))];
        t.src1 = int_reg();
        t.src2 = int_reg();
        t.target = block();
        t.target2 = block();
        break;
      default:
        t.op = Opcode::Ret;
        t.src1 = int_reg();
        break;
    }
    bb.instrs.push_back(t);
    fn.blocks.push_back(std::move(bb));
  }
  fn.validate();
  return fn;
}

TEST(ScalarPassParityTest, AgreesOnSeededRandomFunctions) {
  Rng rng(0x5CA1AB1E);
  int runs = 0;
  int constprop_changed = 0;
  int dce_changed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    rtl::Function fn = random_function(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Alternate the two passes as the round group does, so each also sees
    // the other's output.
    for (int round = 0; round < 3; ++round) {
      constprop_changed +=
          expect_parity("constprop", fn, opt::constant_propagation,
                        reference::dense_constant_propagation);
      dce_changed += expect_parity("dce", fn, opt::dead_code_elimination,
                                   reference::iterated_dead_code_elimination);
      ++runs;
      if (HasFailure()) return;
    }
  }
  // Both outcomes, for both passes, many times over.
  EXPECT_GT(constprop_changed, runs / 10);
  EXPECT_LT(constprop_changed, runs - runs / 10);
  EXPECT_GT(dce_changed, runs / 10);
  EXPECT_LT(dce_changed, runs - runs / 10);
}

}  // namespace
}  // namespace vc
