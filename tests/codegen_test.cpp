// Backend tests: emission structure, addressing modes (small-data vs
// absolute), peephole rewrites (semantic preservation + actual firing), the
// list scheduler (dependence preservation), linking, and disassembly.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "mach/codegen.hpp"
#include "machine/machine.hpp"
#include "minic/interp.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace vc {
namespace {

using minic::Value;
using mach::MOp;

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

int count_pop(const mach::Image& image, MOp op) {
  int n = 0;
  for (std::uint32_t w : image.words)
    if (mach::decode(w).op == op) ++n;
  return n;
}

TEST(Codegen, SmallDataVsAbsoluteAddressing) {
  const auto program = parse(R"(
    global f64 g = 1.5;
    func f64 f(f64 x) { g = g + x; return g; }
  )");
  const auto sda = driver::compile_program(program, driver::Config::O2Full);
  const auto abs = driver::compile_program(program, driver::Config::Verified);
  // The verified configuration pays lis (@ha) instructions; SDA does not.
  EXPECT_EQ(count_pop(sda.image, MOp::Lis), 0);
  EXPECT_GT(count_pop(abs.image, MOp::Lis), 0);
  EXPECT_LT(sda.image.code_size_bytes(), abs.image.code_size_bytes());
  // Both compute the same result.
  machine::Machine m1(sda.image);
  machine::Machine m2(abs.image);
  const Value r1 = m1.call("f", {Value::of_f64(2.25)}, minic::Type::F64);
  const Value r2 = m2.call("f", {Value::of_f64(2.25)}, minic::Type::F64);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, Value::of_f64(3.75));
}

TEST(Codegen, PeepholeFusesMultiplyAdd) {
  const auto program = parse(R"(
    func f64 mac(f64 a, f64 b, f64 c) {
      return a * b + c;
    }
  )");
  const auto o2 = driver::compile_program(program, driver::Config::O2Full);
  const auto verified =
      driver::compile_program(program, driver::Config::Verified);
  EXPECT_GE(count_pop(o2.image, MOp::Fmadd), 1);
  EXPECT_EQ(count_pop(verified.image, MOp::Fmadd), 0);
  // Fusion preserves the (unfused, double-rounded) result.
  machine::Machine m1(o2.image);
  machine::Machine m2(verified.image);
  Rng rng(4);
  for (int t = 0; t < 20; ++t) {
    const std::vector<Value> args{Value::of_f64(rng.next_double(-1e3, 1e3)),
                                  Value::of_f64(rng.next_double(-1e3, 1e3)),
                                  Value::of_f64(rng.next_double(-1e3, 1e3))};
    ASSERT_EQ(m1.call("mac", args, minic::Type::F64),
              m2.call("mac", args, minic::Type::F64));
  }
}

TEST(Codegen, PeepholeFoldsImmediates) {
  const auto program = parse(R"(
    func i32 f(i32 x) {
      local i32 i; local i32 s;
      s = 0;
      for (i = 0; i < 9; i = i + 1) { s = s + x; }
      return s;
    }
  )");
  const auto o2 = driver::compile_program(program, driver::Config::O2Full);
  // The loop increment should fold into addi under O2.
  EXPECT_GE(count_pop(o2.image, MOp::Addi), 1);
  machine::Machine m(o2.image);
  EXPECT_EQ(m.call("f", {Value::of_i32(3)}, minic::Type::I32),
            Value::of_i32(27));
}

TEST(Codegen, SchedulerPreservesSemantics) {
  // Two interleavable chains; O2's scheduler reorders within blocks.
  const auto program = parse(R"(
    global f64 out1 = 0.0;
    global f64 out2 = 0.0;
    func void twochains(f64 a, f64 b) {
      local f64 x; local f64 y;
      x = a * a;
      x = x * a;
      x = x * a;
      y = b + b;
      y = y + b;
      y = y + b;
      out1 = x;
      out2 = y;
    }
  )");
  const auto o2 = driver::compile_program(program, driver::Config::O2Full);
  machine::Machine m(o2.image);
  minic::Interpreter interp(program);
  Rng rng(8);
  for (int t = 0; t < 10; ++t) {
    const std::vector<Value> args{Value::of_f64(rng.next_double(-4, 4)),
                                  Value::of_f64(rng.next_double(-4, 4))};
    interp.call("twochains", args);
    m.call("twochains", args, minic::Type::I32);
    ASSERT_EQ(interp.read_global("out1"),
              m.read_global("out1", 0, minic::Type::F64));
    ASSERT_EQ(interp.read_global("out2"),
              m.read_global("out2", 0, minic::Type::F64));
  }
}

TEST(Codegen, ConstantPoolIsDeduplicated) {
  const auto program = parse(R"(
    func f64 f(f64 x) {
      return (x * 2.5) + (x / 2.5) - 2.5;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  // 2.5 appears three times in the source but once in the pool; the data
  // segment holds exactly one 8-byte constant (no globals declared).
  EXPECT_EQ(compiled.image.data_init.size(), 8u);
}

TEST(Linker, FunctionLayoutAndSymbols) {
  const auto program = parse(R"(
    global f64 a = 1.0;
    global i32 b[3] = {1, 2, 3};
    func f64 one() { return a; }
    func i32 two() { return b[1]; }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::O2Full);
  const mach::Image& image = compiled.image;
  EXPECT_EQ(image.fn_entry.at("one"), mach::Image::kCodeBase);
  EXPECT_EQ(image.fn_entry.at("two"), image.fn_end.at("one"));
  EXPECT_EQ(image.global_addr.at("a"), mach::Image::kDataBase);
  EXPECT_EQ(image.global_addr.at("b"), mach::Image::kDataBase + 8);
  // Initializers are big-endian in the data image.
  EXPECT_EQ(image.data_init[8 + 3], 1);   // b[0] low byte
  EXPECT_EQ(image.data_init[12 + 3], 2);  // b[1]
  machine::Machine m(image);
  EXPECT_EQ(m.call("two", {}, minic::Type::I32), Value::of_i32(2));
}

TEST(Disassembly, ListsFunctionsAndAnnotations) {
  const auto program = parse(R"(
    func i32 f(i32 x) {
      __annot("0 <= %1 <= 7", x);
      return x + 1;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  const std::string listing = compiled.image.disassemble();
  EXPECT_NE(listing.find("f:"), std::string::npos);
  EXPECT_NE(listing.find("# annotation: 0 <= %1 <= 7"), std::string::npos);
  EXPECT_NE(listing.find("blr"), std::string::npos);
}

TEST(Codegen, EveryBlockEndsInABranch) {
  // The timing-composability invariant: no fall-through into a leader.
  const auto nodes_program = parse(R"(
    func f64 f(f64 x, i32 m) {
      local f64 r;
      local i32 i;
      r = 0.0;
      for (i = 0; i < 5; i = i + 1) {
        if (m > i) { r = r + x; } else { r = r - x; }
      }
      return r;
    }
  )");
  for (driver::Config config : driver::kAllConfigs) {
    const auto compiled = driver::compile_program(nodes_program, config);
    // Decode and verify: an instruction followed by a branch target must be
    // a branch itself. Collect branch targets first.
    std::vector<mach::MInstr> instrs;
    for (std::uint32_t w : compiled.image.words)
      instrs.push_back(mach::decode(w));
    std::set<std::size_t> leaders;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (instrs[i].op == MOp::B || instrs[i].op == MOp::Bc)
        leaders.insert(i + static_cast<std::size_t>(instrs[i].disp));
    }
    for (std::size_t leader : leaders) {
      if (leader == 0) continue;
      const MOp prev = instrs[leader - 1].op;
      EXPECT_TRUE(prev == MOp::B || prev == MOp::Bc || prev == MOp::Blr)
          << "fall-through into leader at index " << leader << " under "
          << driver::to_string(config);
    }
  }
}

// --- Named limits of the shared lowering skeleton ---------------------------

class LoweringLimits : public ::testing::TestWithParam<const char*> {};

/// A function holding nothing but `n_slots` i32 stack slots and a return.
rtl::Function slot_function(std::size_t n_slots) {
  rtl::Function fn;
  fn.name = "big";
  for (std::size_t i = 0; i < n_slots; ++i) fn.new_slot(rtl::RegClass::I32);
  rtl::Instr ret;
  ret.op = rtl::Opcode::Ret;
  fn.blocks.emplace_back();
  fn.blocks[0].instrs.push_back(ret);
  return fn;
}

/// The CompileError message lowering `fn` raises ("" when it lowers).
std::string lowering_error(const rtl::Function& fn,
                           const mach::TargetDesc& desc) {
  const minic::Program empty;
  mach::DataLayout layout(empty);
  try {
    mach::emit_function(fn, regalloc::Allocation{}, layout, desc);
  } catch (const CompileError& e) {
    return e.what();
  }
  return "";
}

TEST_P(LoweringLimits, OversizedFrameIsANamedCompileError) {
  const mach::TargetDesc& desc = mach::target_by_name(GetParam());
  const auto frame_of = [](std::size_t n) { return (8 + 8 * n + 15) / 16 * 16; };
  // The most slots whose 16-byte-aligned frame fits the short immediates
  // still lower; one more slot is a CompileError naming the function, the
  // frame size and the target's limit.
  const std::size_t fit =
      (static_cast<std::size_t>(desc.imm_max) / 16 * 16 - 8) / 8;
  ASSERT_LE(frame_of(fit), static_cast<std::size_t>(desc.imm_max));
  EXPECT_EQ(lowering_error(slot_function(fit), desc), "");
  const std::string err = lowering_error(slot_function(fit + 1), desc);
  EXPECT_EQ(err, "function 'big': stack frame of " +
                     std::to_string(frame_of(fit + 1)) + " bytes exceeds " +
                     desc.name + "'s " + std::to_string(desc.imm_max) +
                     "-byte immediate limit");
}

TEST_P(LoweringLimits, TooManyRegisterParametersIsANamedCompileError) {
  driver::CompileOptions options;
  options.target = GetParam();
  const int limit = mach::target_by_name(GetParam()).n_arg_gprs;
  ASSERT_EQ(limit, 8);
  const std::string params =
      "i32 p0, i32 p1, i32 p2, i32 p3, i32 p4, i32 p5, i32 p6, i32 p7, i32 p8";
  const auto used = parse("func i32 f(" + params + ") { return p0 + p8; }");
  for (const driver::ConfigName& c : driver::kConfigNames) {
    SCOPED_TRACE(c.cli);
    try {
      driver::compile_program(used, c.config, options);
      ADD_FAILURE() << "9 register parameters compiled";
    } catch (const CompileError& e) {
      EXPECT_EQ(std::string(e.what()),
                "function 'f': parameter 'p8' exceeds " +
                    std::string(GetParam()) + "'s 8 integer argument registers");
    }
  }
  // Only a parameter that is read needs a register: with p8 dead, the
  // optimizing configuration never asks for one and still compiles.
  const auto unused = parse("func i32 f(" + params + ") { return p0; }");
  EXPECT_NO_THROW(
      driver::compile_program(unused, driver::Config::Verified, options));
  // The float argument registers are counted separately.
  const auto floats = parse(
      "func f64 g(f64 a0, f64 a1, f64 a2, f64 a3, f64 a4, f64 a5, f64 a6, "
      "f64 a7, f64 a8) { return a0 + a8; }");
  try {
    driver::compile_program(floats, driver::Config::O0Pattern, options);
    ADD_FAILURE() << "9 float register parameters compiled";
  } catch (const CompileError& e) {
    EXPECT_EQ(std::string(e.what()),
              "function 'g': parameter 'a8' exceeds " +
                  std::string(GetParam()) + "'s 8 float argument registers");
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, LoweringLimits,
                         ::testing::Values("ppc", "rv32"));

}  // namespace
}  // namespace vc
