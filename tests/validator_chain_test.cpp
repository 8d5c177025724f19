// Scaling tests for the symbolic validators: a chain of n self-additions
// denotes an expression tree of 2^n leaves. Over hash-consed terms it is n
// table nodes, so both checkers below must finish a depth-64 chain at once;
// a checker that builds its terms as flat strings doubles its time and
// memory per link and cannot (ctest gives this binary a timeout so such a
// regression fails instead of hanging).
#include <gtest/gtest.h>

#include "mach/codegen.hpp"
#include "mach/isa.hpp"
#include "mach/target.hpp"
#include "rtl/rtl.hpp"
#include "validate/validate.hpp"

namespace vc {
namespace {

constexpr int kDepth = 64;

mach::AsmOp op3(mach::MOp op, int rd, int ra, int rb) {
  mach::AsmOp a;
  a.ins.op = op;
  a.ins.rd = static_cast<std::uint8_t>(rd);
  a.ins.ra = static_cast<std::uint8_t>(ra);
  a.ins.rb = static_cast<std::uint8_t>(rb);
  return a;
}

/// add r14,r14,r14 (kDepth times), one self-move, then r14 stored to the
/// frame (an event carrying the whole chain) and returned.
mach::AsmFunction add_chain() {
  mach::AsmFunction fn;
  fn.name = "chain";
  for (int k = 0; k < kDepth; ++k)
    fn.ops.push_back(op3(mach::MOp::Add, 14, 14, 14));
  fn.ops.push_back(op3(mach::MOp::Mr, 5, 5, 0));
  mach::AsmOp store = op3(mach::MOp::Stw, 14, 1, 0);
  store.ins.imm = 8;
  fn.ops.push_back(store);
  fn.ops.push_back(op3(mach::MOp::Blr, 0, 0, 0));
  return fn;
}

TEST(ValidatorChains, MachineCheckerAcceptsDeepChain) {
  const mach::AsmFunction before = add_chain();
  mach::AsmFunction after = before;
  ASSERT_EQ(mach::remove_self_moves(after), 1);
  const validate::CheckResult r = validate::check_machine_equivalence(
      before, mach::target_by_name("ppc"), after);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(ValidatorChains, MachineCheckerBoundsDeepChainMessages) {
  // Storing another register instead: the rejection renders both store
  // events, each capped, so the message stays small however deep the term.
  const mach::AsmFunction before = add_chain();
  mach::AsmFunction after = before;
  after.ops[kDepth + 1].ins.rd = 15;
  const validate::CheckResult r = validate::check_machine_equivalence(
      before, mach::target_by_name("ppc"), after);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("event 0 differs: s4[add(c8,init0:1)]=add(add("),
            std::string::npos)
      << r.message.substr(0, 200);
  EXPECT_NE(r.message.find(" vs s4[add(c8,init0:1)]=init0:15"),
            std::string::npos);
  EXPECT_LT(r.message.size(), 2500u);
}

TEST(ValidatorChains, SsaCheckerAcceptsDeepChain) {
  // v0 = x; v(k+1) = v(k) + v(k); return v(kDepth).
  rtl::Function fn;
  fn.name = "chain";
  fn.params.push_back({"x", rtl::RegClass::I32});
  fn.has_return = true;
  fn.ret_class = rtl::RegClass::I32;
  fn.blocks.resize(1);
  auto& instrs = fn.blocks[0].instrs;
  rtl::Instr i;
  i.op = rtl::Opcode::GetParam;
  i.dst = fn.new_vreg(rtl::RegClass::I32);
  instrs.push_back(i);
  for (int k = 0; k < kDepth; ++k) {
    const rtl::VReg prev = instrs.back().dst;
    i = {};
    i.op = rtl::Opcode::Bin;
    i.bin_op = minic::BinOp::IAdd;
    i.dst = fn.new_vreg(rtl::RegClass::I32);
    i.src1 = prev;
    i.src2 = prev;
    instrs.push_back(i);
  }
  i = {};
  i.op = rtl::Opcode::Ret;
  i.src1 = instrs.back().dst;
  instrs.push_back(i);
  fn.validate();

  const validate::CheckResult wf = validate::check_ssa_wellformed(fn);
  ASSERT_TRUE(wf.ok) << wf.message;
  const validate::CheckResult r = validate::check_ssa_equivalence(fn, fn);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace vc
