#include "targets/ppc/target.hpp"

namespace vc::targets {
namespace {

using mach::MOp;
using mach::OpInfo;
using mach::TargetDesc;
using mach::Unit;

/// The dual-issue MPC755 pipeline facts, op by op (the same values the
/// shared timing model hard-wired before the machine layer went
/// target-parametric — preserved exactly, so PPC images and fleet records
/// are byte-identical across the refactor).
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

  // Integer unit. mullw/divw/mfcr are multi-cycle ("complex") and cannot
  // pair as the second IU instruction; divw blocks the IU until done.
  for (MOp op : {MOp::Li, MOp::Lis, MOp::Ori, MOp::Xori, MOp::Addi, MOp::Mr,
                 MOp::Add, MOp::Subf, MOp::And, MOp::Or, MOp::Xor, MOp::Nor,
                 MOp::Neg, MOp::Slw, MOp::Sraw, MOp::Srw, MOp::Rlwinm,
                 MOp::Cmpw, MOp::Cmpwi, MOp::Nop})
    set(op, Unit::IU, 1);
  set(MOp::Mullw, Unit::IU, 3, /*complex=*/true);
  set(MOp::Divw, Unit::IU, 19, /*complex=*/true, /*blocking=*/true);
  set(MOp::Mfcr, Unit::IU, 2, /*complex=*/true);
  // The f64<->i32 conversions run in the FPU with FP latency.
  set(MOp::Fcti, Unit::FPU, 4);
  set(MOp::Icvf, Unit::FPU, 4);

  // Floating-point unit (pipelined except fdiv).
  for (MOp op : {MOp::Fadd, MOp::Fsub, MOp::Fmul, MOp::Fmadd, MOp::Fmsub})
    set(op, Unit::FPU, 4);
  set(MOp::Fdiv, Unit::FPU, 31, /*complex=*/false, /*blocking=*/true);
  set(MOp::Fcmpu, Unit::FPU, 4);
  for (MOp op : {MOp::Fneg, MOp::Fabs, MOp::Fmr}) set(op, Unit::FPU, 2);

  // Load/store unit: L1 hits are single-cycle (calibration, EXPERIMENTS.md).
  for (MOp op : {MOp::Lwz, MOp::Stw, MOp::Lwzx, MOp::Stwx, MOp::Lfd,
                 MOp::Stfd, MOp::Lfdx, MOp::Stfdx})
    set(op, Unit::LSU, 1);

  // Branch unit; the CR logical unit shares it.
  for (MOp op : {MOp::B, MOp::Bc, MOp::Blr, MOp::Cror}) set(op, Unit::BPU, 1);
}

TargetDesc make_ppc() {
  TargetDesc d;
  d.name = "ppc";

  d.zero_gpr = -1;  // no hardwired zero
  d.stack_ptr = 1;
  d.data_base = 2;  // TOC-style small-data base
  d.scratch_gpr0 = 11;
  d.scratch_gpr1 = 12;
  d.scratch_fpr0 = 12;
  d.scratch_fpr1 = 13;
  for (int r = 14; r <= 31; ++r) d.alloc_gprs.push_back(r);  // r14..r31
  for (int r = 14; r <= 31; ++r) d.alloc_fprs.push_back(r);  // f14..f31
  d.first_arg_gpr = 3;  // r3..r10
  d.n_arg_gprs = 8;
  d.first_arg_fpr = 1;  // f1..f8
  d.n_arg_fprs = 8;
  d.ret_gpr = 3;
  d.ret_fpr = 1;
  d.has_cr = true;

  fill_ops(d);
  d.issue_width = 2;
  d.iu_pairing = true;

  d.imm_min = -32768;  // 16-bit d-form immediates
  d.imm_max = 32767;

  // MPC755 L1: 32 KiB, 8-way, 32-byte lines on both sides.
  d.machine.icache = {128, 8, 32};
  d.machine.dcache = {128, 8, 32};
  d.machine.miss_penalty = 30;
  d.machine.taken_branch_penalty = 6;

  d.peephole.fuse_multiply_add = true;
  d.peephole.fold_cmp_imm = true;
  d.peephole.fold_add_imm = true;

  d.lower = &ppc_lower;
  return d;
}

}  // namespace

const mach::TargetDesc& ppc_target() {
  static const TargetDesc desc = [] {
    TargetDesc d = make_ppc();
    mach::validate_target(d);
    return d;
  }();
  return desc;
}

}  // namespace vc::targets
