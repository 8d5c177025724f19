// PPC RTL lowering: the hooks of the shared mach::Emitter skeleton. Compares
// go through the condition register (cmpw/fcmpu [+ cror], then bc or
// mfcr+rlwinm), wide constants are lis/ori pairs, absolute addresses lis @ha
// / @l pairs, and indexed array accesses use the x-form loads and stores.
#include "mach/emitter.hpp"
#include "targets/ppc/target.hpp"

namespace vc::targets {
namespace {

using mach::MInstr;
using mach::MOp;
using mach::RelocKind;
using minic::BinOp;
using minic::UnOp;
using rtl::VReg;

/// CR bit indices (whole-CR numbering): integer compares use cr0, float
/// compares cr1; cr1's FU bit doubles as the cror scratch bit.
constexpr int kCr0Lt = 0, kCr0Gt = 1, kCr0Eq = 2;
constexpr int kCr1Lt = 4, kCr1Gt = 5, kCr1Eq = 6, kCr1Scratch = 7;

struct CmpPlan {
  bool is_float = false;
  int bit = 0;        // CR bit to test after the compare (and optional cror)
  bool expect = true; // branch/set when CR[bit] == expect
  bool need_cror = false;
  int cror_a = 0, cror_b = 0;  // OR'ed into kCr1Scratch when need_cror
};

CmpPlan plan_compare(BinOp op) {
  CmpPlan p;
  switch (op) {
    case BinOp::ICmpEq: p.bit = kCr0Eq; p.expect = true; break;
    case BinOp::ICmpNe: p.bit = kCr0Eq; p.expect = false; break;
    case BinOp::ICmpLt: p.bit = kCr0Lt; p.expect = true; break;
    case BinOp::ICmpGe: p.bit = kCr0Lt; p.expect = false; break;
    case BinOp::ICmpGt: p.bit = kCr0Gt; p.expect = true; break;
    case BinOp::ICmpLe: p.bit = kCr0Gt; p.expect = false; break;
    case BinOp::FCmpEq: p.is_float = true; p.bit = kCr1Eq; p.expect = true; break;
    case BinOp::FCmpNe: p.is_float = true; p.bit = kCr1Eq; p.expect = false; break;
    case BinOp::FCmpLt: p.is_float = true; p.bit = kCr1Lt; p.expect = true; break;
    case BinOp::FCmpGt: p.is_float = true; p.bit = kCr1Gt; p.expect = true; break;
    case BinOp::FCmpLe:
      p.is_float = true; p.need_cror = true;
      p.cror_a = kCr1Lt; p.cror_b = kCr1Eq;
      p.bit = kCr1Scratch; p.expect = true;
      break;
    case BinOp::FCmpGe:
      p.is_float = true; p.need_cror = true;
      p.cror_a = kCr1Gt; p.cror_b = kCr1Eq;
      p.bit = kCr1Scratch; p.expect = true;
      break;
    default:
      throw vc::InternalError("plan_compare on non-comparison");
  }
  return p;
}

class PpcEmitter final : public mach::Emitter {
 public:
  PpcEmitter(const rtl::Function& fn, const regalloc::Allocation& alloc,
             mach::DataLayout& layout, const mach::TargetDesc& desc,
             const mach::EmitOptions& options)
      : Emitter(fn, alloc, layout, desc, options,
                {MOp::Lis, RelocKind::AbsHa, RelocKind::AbsLo}) {}

 private:
  void load_wide_imm(int rd, std::int32_t value) override {
    push(make_regimm(MOp::Lis, rd, 0, value >> 16));
    const std::int32_t lo = value & 0xFFFF;
    if (lo != 0) push(make_regimm(MOp::Ori, rd, rd, lo));
  }

  void compare_into(BinOp op, VReg a, VReg b, int rd) override {
    // mfcr + rlwinm pull CR[bit] down to bit 31; xori inverts it.
    const CmpPlan p = emit_compare(op, a, b);
    push(make_regimm(MOp::Mfcr, desc_.scratch_gpr0, 0, 0));
    push(rlwinm(rd, desc_.scratch_gpr0, p.bit + 1, 31, 31));
    if (!p.expect) push(make_regimm(MOp::Xori, rd, rd, 1));
  }

  void branch_nonzero(VReg cond, int label) override {
    push(make_regimm(MOp::Cmpwi, 0, gpr_of(cond), 0));  // cmpwi cr0, cond, 0
    branch_on(kCr0Eq, false, label);
  }

  void branch_compare(BinOp op, VReg a, VReg b, int label) override {
    const CmpPlan p = emit_compare(op, a, b);
    branch_on(p.bit, p.expect, label);
  }

  void indexed_access(MOp dform, int value_reg, int index_reg,
                      std::uint32_t esz, const std::string& sym) override {
    // scratch <- idx * esz, then an x-form access against the array base.
    push(rlwinm(desc_.scratch_gpr0, index_reg, esz == 8 ? 3 : 2, 0,
                esz == 8 ? 28 : 29));
    const int base_reg =
        options_.small_data_area ? desc_.data_base : desc_.scratch_gpr1;
    if (options_.small_data_area)
      // Fold the array offset into the index register, base off r2.
      push_reloc(make_regimm(MOp::Addi, desc_.scratch_gpr0,
                             desc_.scratch_gpr0, 0),
                 sym, 0);
    else
      load_global_address(base_reg, sym, 0);
    push(make_reg3(xform_of(dform), value_reg, base_reg, desc_.scratch_gpr0));
  }

  void int_binary(BinOp op, int rd, int a, int b) override {
    switch (op) {
      case BinOp::IRem:
        // scratch = a / b ; scratch = scratch * b ; rd = a - scratch.
        push(make_reg3(MOp::Divw, desc_.scratch_gpr0, a, b));
        push(make_reg3(MOp::Mullw, desc_.scratch_gpr0, desc_.scratch_gpr0, b));
        push(make_reg3(MOp::Subf, rd, desc_.scratch_gpr0, a));
        return;
      case BinOp::IShl: push(make_reg3(MOp::Slw, rd, a, b)); return;
      case BinOp::IShr: push(make_reg3(MOp::Sraw, rd, a, b)); return;
      default: throw vc::InternalError("bad BinOp in ppc int_binary");
    }
  }

  void int_unary(UnOp op, int rd, int a) override {
    switch (op) {
      case UnOp::INeg: push(make_reg3(MOp::Neg, rd, a, 0)); return;
      case UnOp::INot: push(make_reg3(MOp::Nor, rd, a, a)); return;
      default: throw vc::InternalError("bad UnOp in ppc int_unary");
    }
  }

  static MOp xform_of(MOp dform) {
    switch (dform) {
      case MOp::Lwz: return MOp::Lwzx;
      case MOp::Lfd: return MOp::Lfdx;
      case MOp::Stw: return MOp::Stwx;
      case MOp::Stfd: return MOp::Stfdx;
      default: throw vc::InternalError("no x-form for this access");
    }
  }

  /// Emits cmpw/fcmpu (+ cror) for `op` on vregs a, b; returns the plan.
  CmpPlan emit_compare(BinOp op, VReg a, VReg b) {
    const CmpPlan p = plan_compare(op);
    MInstr c = p.is_float ? make_reg3(MOp::Fcmpu, 0, fpr_of(a), fpr_of(b))
                          : make_reg3(MOp::Cmpw, 0, gpr_of(a), gpr_of(b));
    c.crf = p.is_float ? 1 : 0;
    push(c);
    if (p.need_cror) {
      MInstr r;
      r.op = MOp::Cror;
      r.crbd = kCr1Scratch;
      r.crba = static_cast<std::uint8_t>(p.cror_a);
      r.crbb = static_cast<std::uint8_t>(p.cror_b);
      push(r);
    }
    return p;
  }

  void branch_on(int bit, bool expect, int label) {
    push_branch({.op = MOp::Bc,
                 .crbit = static_cast<std::uint8_t>(bit),
                 .expect = expect},
                label);
  }

  static MInstr rlwinm(int rd, int ra, int sh, int mb, int me) {
    MInstr m = make_regimm(MOp::Rlwinm, rd, ra, 0);
    m.sh = static_cast<std::uint8_t>(sh);
    m.mb = static_cast<std::uint8_t>(mb);
    m.me = static_cast<std::uint8_t>(me);
    return m;
  }
};

}  // namespace

mach::AsmFunction ppc_lower(const rtl::Function& fn,
                            const regalloc::Allocation& alloc,
                            mach::DataLayout& layout,
                            const mach::TargetDesc& desc,
                            const mach::EmitOptions& options) {
  return PpcEmitter(fn, alloc, layout, desc, options).run();
}

}  // namespace vc::targets
