#include "targets/rv32/target.hpp"

namespace vc::targets {
namespace {

using mach::MOp;
using mach::OpInfo;
using mach::TargetDesc;
using mach::Unit;

/// A single-issue in-order RV32IMF-class pipeline: one instruction per cycle,
/// iterative divider, longer FP latencies than the PPC's FPU but a cheaper
/// taken branch (short front end, no BTB mispredict modeled).
void fill_ops(TargetDesc& d) {
  auto set = [&](MOp op, Unit unit, std::uint8_t latency, bool complex = false,
                 bool blocking = false) {
    OpInfo& info = d.ops[static_cast<std::size_t>(op)];
    info.legal = true;
    info.unit = unit;
    info.latency = latency;
    info.complex = complex;
    info.blocking = blocking;
  };

  // Integer ALU, single cycle.
  for (MOp op : {MOp::Li, MOp::Addi, MOp::Xori, MOp::Mr, MOp::Add, MOp::Subf,
                 MOp::And, MOp::Or, MOp::Xor, MOp::Lui, MOp::Sll, MOp::Srl,
                 MOp::Sra, MOp::Slli, MOp::Slt, MOp::Sltu, MOp::Sltiu,
                 MOp::Nop})
    set(op, Unit::IU, 1);
  set(MOp::Mullw, Unit::IU, 4, /*complex=*/true);
  set(MOp::Divw, Unit::IU, 20, /*complex=*/true, /*blocking=*/true);
  set(MOp::Rem, Unit::IU, 20, /*complex=*/true, /*blocking=*/true);

  // Floating-point unit (double precision; fdiv iterative).
  for (MOp op : {MOp::Fadd, MOp::Fsub, MOp::Fmul}) set(op, Unit::FPU, 5);
  for (MOp op : {MOp::Fmadd, MOp::Fmsub}) set(op, Unit::FPU, 6);
  set(MOp::Fdiv, Unit::FPU, 26, /*complex=*/false, /*blocking=*/true);
  for (MOp op : {MOp::Fneg, MOp::Fabs, MOp::Fmr}) set(op, Unit::FPU, 2);
  set(MOp::Fcti, Unit::FPU, 4);
  set(MOp::Icvf, Unit::FPU, 4);
  for (MOp op : {MOp::Feq, MOp::Flt, MOp::Fle}) set(op, Unit::FPU, 2);

  // Load/store unit: two-cycle L1 hit.
  for (MOp op : {MOp::Lwz, MOp::Stw, MOp::Lfd, MOp::Stfd}) set(op, Unit::LSU, 2);

  // Branches (fused compare-and-branch included).
  for (MOp op : {MOp::B, MOp::Blr, MOp::Beq, MOp::Bne, MOp::Blt, MOp::Bge})
    set(op, Unit::BPU, 1);
}

TargetDesc make_rv32() {
  TargetDesc d;
  d.name = "rv32";

  d.zero_gpr = 0;   // x0 reads as zero
  d.stack_ptr = 2;  // sp = x2
  d.data_base = 3;  // gp = x3, small-data base
  d.scratch_gpr0 = 5;  // t0, t1
  d.scratch_gpr1 = 6;
  d.scratch_fpr0 = 0;  // ft0, ft1
  d.scratch_fpr1 = 1;
  // Callee-saved s0..s11 for the allocator: x8, x9, x18..x27; plus x28, x29
  // (t3, t4 — treated as allocatable here since there are no calls).
  for (int r : {8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29})
    d.alloc_gprs.push_back(r);
  // fs0..fs11 plus ft8, ft9 for symmetry with the integer class.
  for (int r : {8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29})
    d.alloc_fprs.push_back(r);
  d.first_arg_gpr = 10;  // a0..a7 = x10..x17
  d.n_arg_gprs = 8;
  d.first_arg_fpr = 10;  // fa0..fa7 = f10..f17
  d.n_arg_fprs = 8;
  d.ret_gpr = 10;
  d.ret_fpr = 10;
  d.has_cr = false;

  fill_ops(d);
  d.issue_width = 1;
  d.iu_pairing = false;

  d.imm_min = -2048;  // 12-bit I-type immediates
  d.imm_max = 2047;

  // 8 KiB 2-way L1 with 32-byte lines on both sides; slower memory.
  d.machine.icache = {128, 2, 32};
  d.machine.dcache = {128, 2, 32};
  d.machine.miss_penalty = 40;
  d.machine.taken_branch_penalty = 2;

  // No condition register, so there is no li+cmpw -> cmpwi rewrite.
  d.peephole.fuse_multiply_add = true;
  d.peephole.fold_cmp_imm = false;
  d.peephole.fold_add_imm = true;

  d.lower = &rv32_lower;
  return d;
}

}  // namespace

const mach::TargetDesc& rv32_target() {
  static const TargetDesc desc = [] {
    TargetDesc d = make_rv32();
    mach::validate_target(d);
    return d;
  }();
  return desc;
}

}  // namespace vc::targets
