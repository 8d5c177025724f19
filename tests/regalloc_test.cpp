// Register allocator tests: coloring validity (interfering vregs never share
// a color), spilling under artificially small register files, semantic
// preservation of spill rewriting, and move-biased coalescing.
#include <gtest/gtest.h>

#include <set>

#include "driver/compiler.hpp"
#include "machine/machine.hpp"
#include "minic/interp.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "regalloc/regalloc.hpp"
#include "rtl/analysis.hpp"
#include "rtl/exec.hpp"
#include "rtl/lower.hpp"
#include "support/rng.hpp"

namespace vc {
namespace {

using minic::Value;

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

/// Recomputes interference on the final function and checks that no two
/// interfering vregs of the same class share a color.
void expect_valid_coloring(const rtl::Function& fn,
                           const regalloc::Allocation& alloc) {
  const rtl::Liveness lv = rtl::compute_liveness(fn);
  for (rtl::BlockId b = 0; b < fn.blocks.size(); ++b) {
    DenseBitset live = lv.live_out[b];
    const auto& instrs = fn.blocks[b].instrs;
    for (std::size_t i = instrs.size(); i-- > 0;) {
      const rtl::Instr& ins = instrs[i];
      if (auto d = ins.def()) {
        live.for_each([&](std::size_t lbit) {
          const auto l = static_cast<rtl::VReg>(lbit);
          if (l == *d) return;
          if (fn.vregs[l] != fn.vregs[*d]) return;
          if (ins.op == rtl::Opcode::Mov && l == ins.src1) return;
          ASSERT_TRUE(alloc.locs[*d].in_reg);
          ASSERT_TRUE(alloc.locs[l].in_reg);
          ASSERT_NE(alloc.locs[*d].color, alloc.locs[l].color)
              << "vregs " << *d << " and " << l << " interfere";
        });
        live.reset(*d);
      }
      rtl::for_each_use(ins, [&](rtl::VReg u) { live.set(u); });
    }
  }
}

const char* kPressureSource = R"(
  func f64 pressure(f64 a, f64 b, f64 c, f64 d) {
    local f64 t1; local f64 t2; local f64 t3; local f64 t4;
    local f64 t5; local f64 t6; local f64 t7; local f64 t8;
    t1 = a + b;  t2 = a - b;  t3 = c + d;  t4 = c - d;
    t5 = t1 * t3;  t6 = t2 * t4;  t7 = t1 * t4;  t8 = t2 * t3;
    return ((t1 + t2) * (t3 + t4) + (t5 + t6) * (t7 + t8)) /
           (t5 - t6 + t7 - t8 + 1000.0);
  }
)";

TEST(Regalloc, ValidColoringWithAmpleRegisters) {
  const auto program = parse(kPressureSource);
  rtl::Function fn = rtl::lower_function(program, program.functions[0],
                                         rtl::LowerMode::Value);
  rtl::remove_unreachable_blocks(fn);
  const regalloc::Allocation alloc = regalloc::allocate_registers(fn, 18, 18);
  EXPECT_EQ(alloc.spill_count, 0);
  expect_valid_coloring(fn, alloc);
}

TEST(Regalloc, SpillsUnderPressureAndStaysCorrect) {
  const auto program = parse(kPressureSource);
  for (int k : {3, 4, 5}) {
    rtl::Function fn = rtl::lower_function(program, program.functions[0],
                                           rtl::LowerMode::Value);
    rtl::remove_unreachable_blocks(fn);
    const rtl::Function original = fn;
    const regalloc::Allocation alloc = regalloc::allocate_registers(fn, k, k);
    EXPECT_GT(alloc.spill_count, 0) << "k=" << k;
    expect_valid_coloring(fn, alloc);
    // Spill rewriting preserves semantics.
    rtl::Executor exec_a(program);
    rtl::Executor exec_b(program);
    Rng rng(k);
    for (int t = 0; t < 10; ++t) {
      std::vector<Value> args;
      for (int i = 0; i < 4; ++i)
        args.push_back(Value::of_f64(rng.next_double(-9, 9)));
      ASSERT_EQ(exec_a.call(original, args), exec_b.call(fn, args));
    }
    // And every color fits the budget.
    for (const auto& loc : alloc.locs) {
      if (loc.in_reg) {
        EXPECT_LT(loc.color, k);
      }
    }
  }
}

TEST(Regalloc, LoopCarriedValuesSurviveAllocation) {
  const auto program = parse(R"(
    func f64 horner(f64 x) {
      local f64 acc;
      local i32 i;
      acc = 1.0;
      for (i = 0; i < 8; i = i + 1) {
        acc = acc * x + 0.5;
      }
      return acc;
    }
  )");
  for (int k : {2, 3, 8}) {
    rtl::Function fn = rtl::lower_function(program, program.functions[0],
                                           rtl::LowerMode::Value);
    rtl::remove_unreachable_blocks(fn);
    const rtl::Function original = fn;
    const regalloc::Allocation alloc = regalloc::allocate_registers(fn, k, k);
    expect_valid_coloring(fn, alloc);
    rtl::Executor exec_a(program);
    rtl::Executor exec_b(program);
    const std::vector<Value> args{Value::of_f64(1.5)};
    ASSERT_EQ(exec_a.call(original, args), exec_b.call(fn, args));
  }
}

TEST(Regalloc, MoveBiasedColoringCoalescesCopies) {
  // A chain of moves should collapse onto one color when possible.
  const auto program = parse(R"(
    func f64 passthrough(f64 x) {
      local f64 a; local f64 b; local f64 c;
      a = x;
      b = a;
      c = b;
      return c;
    }
  )");
  rtl::Function fn = rtl::lower_function(program, program.functions[0],
                                         rtl::LowerMode::Value);
  rtl::remove_unreachable_blocks(fn);
  const regalloc::Allocation alloc = regalloc::allocate_registers(fn, 18, 18);
  // Collect colors of all F64 vregs involved in moves; biased coloring
  // should give most of them the same color.
  std::set<int> colors;
  for (const auto& bb : fn.blocks)
    for (const auto& ins : bb.instrs)
      if (ins.op == rtl::Opcode::Mov && fn.vregs[ins.dst] == rtl::RegClass::F64)
        colors.insert(alloc.locs[ins.dst].color);
  EXPECT_LE(colors.size(), 2u);
}

// A function with `n` i32 locals that are all live at once: each is set
// from the parameter, and only then are they summed.
std::string wide_source(int n) {
  std::string src = "func i32 wide(i32 x) {\n  local i32 s;\n";
  for (int i = 0; i < n; ++i)
    src += "  local i32 v" + std::to_string(i) + ";\n";
  for (int i = 0; i < n; ++i)
    src += "  v" + std::to_string(i) + " = x * " + std::to_string(i + 3) +
           " + " + std::to_string(i) + ";\n";
  src += "  s = 0;\n";
  for (int i = 0; i < n; ++i) src += "  s = s + v" + std::to_string(i) + ";\n";
  return src + "  return s;\n}\n";
}

// Every failed coloring round spills one register of the input function,
// so the allocator finishes in at most that many rounds. A hundred or more
// simultaneously live locals need far more rounds than a fixed cap allows.
// rv32 reaches its frame slots through 12-bit immediates, so the ~290 spill
// slots of the 300-local case do not fit: allocation finishes and emission
// then rejects the frame with a named CompileError.
TEST(Regalloc, WideFunctionCompiles) {
  for (const int n : {100, 300}) {
    const auto program = parse(wide_source(n));
    minic::Interpreter interp(program);
    const std::vector<Value> args{Value::of_i32(5)};
    const Value expected = interp.call("wide", args);
    for (const char* target : {"ppc", "rv32"})
      for (const driver::Config config :
           {driver::Config::Verified, driver::Config::O2Full}) {
        SCOPED_TRACE(std::to_string(n) + " locals, " + target + " " +
                     driver::to_string(config));
        driver::CompileOptions options;
        options.target = target;
        if (n == 300 && std::string(target) == "rv32") {
          try {
            (void)driver::compile_program(program, config, options);
            ADD_FAILURE() << "a 2320-byte frame compiled on rv32";
          } catch (const CompileError& e) {
            EXPECT_NE(std::string(e.what()).find("2047-byte immediate limit"),
                      std::string::npos)
                << e.what();
          }
          continue;
        }
        const driver::Compiled compiled =
            driver::compile_program(program, config, options);
        EXPECT_GT(compiled.artifacts.at("wide").spill_count, n / 2);
        machine::Machine m(compiled.image);
        EXPECT_EQ(m.call("wide", args, minic::Type::I32), expected);
      }
  }
}

}  // namespace
}  // namespace vc
