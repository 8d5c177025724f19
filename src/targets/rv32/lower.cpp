// RV32 RTL lowering: the hooks of the shared mach::Emitter skeleton. No
// condition register: integer compares materialize through slt/sltu/sltiu
// (+ xori to invert), float compares through feq/flt/fle into a GPR, and
// integer two-way branches fuse into compare-and-branch (beq/bne/blt/bge).
// Wide constants are lui+addi pairs, absolute addresses lui %hi / %lo pairs,
// and indexed array accesses scale with slli and add the base explicitly
// since there are no indexed loads.
#include <utility>

#include "mach/emitter.hpp"
#include "targets/rv32/target.hpp"

namespace vc::targets {
namespace {

using mach::MOp;
using mach::RelocKind;
using minic::BinOp;
using minic::UnOp;
using rtl::VReg;

class Rv32Emitter final : public mach::Emitter {
 public:
  Rv32Emitter(const rtl::Function& fn, const regalloc::Allocation& alloc,
              mach::DataLayout& layout, const mach::TargetDesc& desc,
              const mach::EmitOptions& options)
      : Emitter(fn, alloc, layout, desc, options,
                {MOp::Lui, RelocKind::AbsHi20, RelocKind::AbsLo12}) {}

 private:
  void load_wide_imm(int rd, std::int32_t value) override {
    // lui hi / addi lo, with the +0x800 rounding that makes the
    // sign-extended 12-bit low part recombine exactly.
    const std::int32_t hi = (value + 0x800) >> 12;
    const std::int32_t lo = value - (hi << 12);
    push(make_regimm(MOp::Lui, rd, 0, hi));
    if (lo != 0) push(make_regimm(MOp::Addi, rd, rd, lo));
  }

  /// Integer eq/ne route through the scratch register; every other
  /// comparison is one set-less-than (operands swapped for gt/le), inverted
  /// with xori where it computes the complement.
  void compare_into(BinOp op, VReg a, VReg b, int rd) override {
    const int t = desc_.scratch_gpr0;
    if (op == BinOp::ICmpEq || op == BinOp::ICmpNe) {
      push(make_reg3(MOp::Xor, t, gpr_of(a), gpr_of(b)));
      push(op == BinOp::ICmpEq ? make_regimm(MOp::Sltiu, rd, t, 1)
                               : make_reg3(MOp::Sltu, rd, desc_.zero_gpr, t));
      return;
    }
    MOp set = MOp::Slt;
    bool swap = false, invert = false;
    switch (op) {
      case BinOp::ICmpLt: set = MOp::Slt; break;
      case BinOp::ICmpGe: set = MOp::Slt; invert = true; break;
      case BinOp::ICmpGt: set = MOp::Slt; swap = true; break;
      case BinOp::ICmpLe: set = MOp::Slt; swap = invert = true; break;
      case BinOp::FCmpEq: set = MOp::Feq; break;
      case BinOp::FCmpNe: set = MOp::Feq; invert = true; break;
      case BinOp::FCmpLt: set = MOp::Flt; break;
      case BinOp::FCmpLe: set = MOp::Fle; break;
      case BinOp::FCmpGt: set = MOp::Flt; swap = true; break;
      case BinOp::FCmpGe: set = MOp::Fle; swap = true; break;
      default: throw vc::InternalError("compare_into on non-comparison");
    }
    if (swap) std::swap(a, b);
    if (set == MOp::Slt)
      push(make_reg3(set, rd, gpr_of(a), gpr_of(b)));
    else
      push(make_reg3(set, rd, fpr_of(a), fpr_of(b)));
    if (invert) push(make_regimm(MOp::Xori, rd, rd, 1));
  }

  void branch_nonzero(VReg cond, int label) override {
    push_branch(make_reg3(MOp::Bne, 0, gpr_of(cond), desc_.zero_gpr), label);
  }

  /// Integer compares fuse directly into beq/bne/blt/bge (swapping operands
  /// for gt/le); float compares materialize into the scratch register and
  /// branch on it being nonzero.
  void branch_compare(BinOp op, VReg a, VReg b, int label) override {
    const auto fused = [&](MOp bop, VReg lhs, VReg rhs) {
      push_branch(make_reg3(bop, 0, gpr_of(lhs), gpr_of(rhs)), label);
    };
    switch (op) {
      case BinOp::ICmpEq: fused(MOp::Beq, a, b); return;
      case BinOp::ICmpNe: fused(MOp::Bne, a, b); return;
      case BinOp::ICmpLt: fused(MOp::Blt, a, b); return;
      case BinOp::ICmpGe: fused(MOp::Bge, a, b); return;
      case BinOp::ICmpGt: fused(MOp::Blt, b, a); return;
      case BinOp::ICmpLe: fused(MOp::Bge, b, a); return;
      default:
        compare_into(op, a, b, desc_.scratch_gpr0);
        push_branch(
            make_reg3(MOp::Bne, 0, desc_.scratch_gpr0, desc_.zero_gpr),
            label);
        return;
    }
  }

  void indexed_access(MOp dform, int value_reg, int index_reg,
                      std::uint32_t esz, const std::string& sym) override {
    push(make_regimm(MOp::Slli, desc_.scratch_gpr0, index_reg,
                     esz == 8 ? 3 : 2));
    if (options_.small_data_area) {
      // address = gp + scaled index; the displacement carries sym's
      // small-data offset via the reloc.
      push(make_reg3(MOp::Add, desc_.scratch_gpr0, desc_.data_base,
                     desc_.scratch_gpr0));
      push_reloc(make_regimm(dform, value_reg, desc_.scratch_gpr0, 0), sym,
                 0);
    } else {
      load_global_address(desc_.scratch_gpr1, sym, 0);
      push(make_reg3(MOp::Add, desc_.scratch_gpr0, desc_.scratch_gpr1,
                     desc_.scratch_gpr0));
      push(make_regimm(dform, value_reg, desc_.scratch_gpr0, 0));
    }
  }

  void int_binary(BinOp op, int rd, int a, int b) override {
    switch (op) {
      case BinOp::IRem: push(make_reg3(MOp::Rem, rd, a, b)); return;
      case BinOp::IShl: push(make_reg3(MOp::Sll, rd, a, b)); return;
      case BinOp::IShr: push(make_reg3(MOp::Sra, rd, a, b)); return;
      default: throw vc::InternalError("bad BinOp in rv32 int_binary");
    }
  }

  void int_unary(UnOp op, int rd, int a) override {
    switch (op) {
      case UnOp::INeg:
        // rd = x0 - a (subf rd, ra, rb computes rb - ra).
        push(make_reg3(MOp::Subf, rd, a, desc_.zero_gpr));
        return;
      case UnOp::INot:
        // rd = -1 - a == ~a. (xori's 16-bit immediate field is unsigned in
        // the shared encoding, so xori rd, a, -1 cannot encode.)
        push(make_regimm(MOp::Li, desc_.scratch_gpr0, 0, -1));
        push(make_reg3(MOp::Subf, rd, a, desc_.scratch_gpr0));
        return;
      default:
        throw vc::InternalError("bad UnOp in rv32 int_unary");
    }
  }
};

}  // namespace

mach::AsmFunction rv32_lower(const rtl::Function& fn,
                             const regalloc::Allocation& alloc,
                             mach::DataLayout& layout,
                             const mach::TargetDesc& desc,
                             const mach::EmitOptions& options) {
  return Rv32Emitter(fn, alloc, layout, desc, options).run();
}

}  // namespace vc::targets
