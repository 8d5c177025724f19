#include "mach/emitter.hpp"

namespace vc::mach {

using minic::BinOp;
using minic::UnOp;
using rtl::Opcode;
using rtl::RegClass;
using rtl::VReg;

Emitter::Emitter(const rtl::Function& fn, const regalloc::Allocation& alloc,
                 DataLayout& layout, const TargetDesc& desc,
                 const EmitOptions& options, HiLoPair abs)
    : desc_(desc), options_(options), fn_(fn), alloc_(alloc), layout_(layout),
      abs_(abs) {}

AsmFunction Emitter::run() {
  out_.name = fn_.name;
  const std::size_t n_slots = fn_.slots.size();
  out_.frame_bytes =
      n_slots == 0
          ? 0
          : static_cast<std::uint32_t>((8 + 8 * n_slots + 15) / 16 * 16);
  // The prologue/epilogue addi and every slot displacement are short
  // immediates; the frame bound covers all of them.
  if (out_.frame_bytes > static_cast<std::uint32_t>(desc_.imm_max))
    throw CompileError("function '" + fn_.name + "': stack frame of " +
                       std::to_string(out_.frame_bytes) + " bytes exceeds " +
                       desc_.name + "'s " + std::to_string(desc_.imm_max) +
                       "-byte immediate limit");

  if (out_.frame_bytes != 0)
    push(make_regimm(MOp::Addi, desc_.stack_ptr, desc_.stack_ptr,
                     -static_cast<std::int32_t>(out_.frame_bytes)));

  for (rtl::BlockId b = 0; b < fn_.blocks.size(); ++b) {
    out_.labels.emplace_back(static_cast<int>(b), out_.ops.size());
    for (const rtl::Instr& ins : fn_.blocks[b].instrs) emit(ins);
  }
  return std::move(out_);
}

// --- helpers -----------------------------------------------------------------

int Emitter::reg_of(VReg v, RegClass cls) const {
  const auto& loc = alloc_.locs[v];
  const bool is_int = cls == RegClass::I32;
  check(loc.in_reg && fn_.vregs[v] == cls,
        is_int ? "expected an allocated GPR vreg"
               : "expected an allocated FPR vreg");
  const std::vector<int>& regs = is_int ? desc_.alloc_gprs : desc_.alloc_fprs;
  check(loc.color < static_cast<int>(regs.size()),
        is_int ? "GPR color out of range" : "FPR color out of range");
  return regs[static_cast<std::size_t>(loc.color)];
}

std::int32_t Emitter::slot_offset(rtl::Slot s) const {
  return 8 + 8 * static_cast<std::int32_t>(s);
}

MInstr Emitter::make_regimm(MOp op, int rd, int ra, std::int32_t imm) {
  MInstr m;
  m.op = op;
  m.rd = static_cast<std::uint8_t>(rd);
  m.ra = static_cast<std::uint8_t>(ra);
  m.imm = imm;
  return m;
}

MInstr Emitter::make_reg3(MOp op, int rd, int ra, int rb) {
  MInstr m;
  m.op = op;
  m.rd = static_cast<std::uint8_t>(rd);
  m.ra = static_cast<std::uint8_t>(ra);
  m.rb = static_cast<std::uint8_t>(rb);
  return m;
}

void Emitter::push(MInstr ins) { push_reloc(ins, "", 0); }

void Emitter::push_reloc(MInstr ins, const std::string& sym,
                         std::int32_t addend, RelocKind kind) {
  out_.ops.push_back({ins, -1, sym, addend, kind});
}

void Emitter::push_branch(MInstr ins, int label) {
  out_.ops.push_back({ins, label, "", 0, RelocKind::DataDisp});
}

void Emitter::jump(int label) { push_branch({.op = MOp::B}, label); }

void Emitter::load_imm(int rd, std::int32_t value) {
  if (value >= desc_.imm_min && value <= desc_.imm_max)
    push(make_regimm(MOp::Li, rd, 0, value));
  else
    load_wide_imm(rd, value);
}

/// A d-form global/constant-pool access: one instruction off the data base
/// with small-data addressing, else the hi/lo pair through the scratch GPR.
void Emitter::access_global(MOp dform, int value_reg, const std::string& sym,
                            std::int32_t addend) {
  if (options_.small_data_area) {
    push_reloc(make_regimm(dform, value_reg, desc_.data_base, 0), sym, addend);
    return;
  }
  push_reloc(make_regimm(abs_.hi_op, desc_.scratch_gpr0, 0, 0), sym, addend,
             abs_.hi);
  push_reloc(make_regimm(dform, value_reg, desc_.scratch_gpr0, 0), sym, addend,
             abs_.lo);
}

void Emitter::load_global_address(int reg, const std::string& sym,
                                  std::int32_t addend) {
  if (options_.small_data_area) {
    push_reloc(make_regimm(MOp::Addi, reg, desc_.data_base, 0), sym, addend);
    return;
  }
  push_reloc(make_regimm(abs_.hi_op, reg, 0, 0), sym, addend, abs_.hi);
  push_reloc(make_regimm(MOp::Addi, reg, reg, 0), sym, addend, abs_.lo);
}

void Emitter::move(RegClass cls, int rd, int rs) {
  push(make_reg3(cls == RegClass::I32 ? MOp::Mr : MOp::Fmr, rd, rs, 0));
}

/// The index-th parameter gets the next argument register of its class.
int Emitter::param_reg(int index) const {
  const rtl::FuncParam& param = fn_.params[static_cast<std::size_t>(index)];
  int before = 0;  // earlier parameters of the same class
  for (int i = 0; i < index; ++i)
    before += fn_.params[static_cast<std::size_t>(i)].cls == param.cls;
  const bool is_int = param.cls == RegClass::I32;
  const int limit = is_int ? desc_.n_arg_gprs : desc_.n_arg_fprs;
  if (before >= limit)
    throw CompileError("function '" + fn_.name + "': parameter '" +
                       param.name + "' exceeds " + desc_.name + "'s " +
                       std::to_string(limit) + (is_int ? " integer" : " float") +
                       " argument registers");
  return (is_int ? desc_.first_arg_gpr : desc_.first_arg_fpr) + before;
}

// --- dispatcher --------------------------------------------------------------

namespace {

/// The d-form load/store moving one value of class `cls`.
MOp dform_of(bool is_store, RegClass cls) {
  if (cls == RegClass::F64) return is_store ? MOp::Stfd : MOp::Lfd;
  return is_store ? MOp::Stw : MOp::Lwz;
}

}  // namespace

void Emitter::emit(const rtl::Instr& ins) {
  switch (ins.op) {
    case Opcode::Phi:
      // Phis are eliminated by ssa-out before instruction selection.
      throw InternalError("phi instruction reached machine lowering");
    case Opcode::LdI:
      load_imm(gpr_of(ins.dst), ins.int_imm);
      return;
    case Opcode::LdF: {
      const std::uint32_t off = layout_.add_const(ins.f64_imm);
      access_global(MOp::Lfd, fpr_of(ins.dst), "$cpool",
                    static_cast<std::int32_t>(off));
      return;
    }
    case Opcode::Mov: {
      const RegClass cls = fn_.vregs[ins.dst];
      move(cls, reg_of(ins.dst, cls), reg_of(ins.src1, cls));
      return;
    }
    case Opcode::Un:
      emit_unary(ins);
      return;
    case Opcode::Bin:
      emit_binary(ins);
      return;
    case Opcode::LoadGlobal:
    case Opcode::StoreGlobal:
    case Opcode::LoadGlobalIdx:
    case Opcode::StoreGlobalIdx: {
      const bool is_store = ins.op == Opcode::StoreGlobal ||
                            ins.op == Opcode::StoreGlobalIdx;
      const std::uint32_t esz = layout_.elem_size(ins.sym);
      const RegClass cls = esz == 8 ? RegClass::F64 : RegClass::I32;
      const int value_reg = reg_of(is_store ? ins.src1 : ins.dst, cls);
      const MOp dform = dform_of(is_store, cls);
      if (ins.op == Opcode::LoadGlobal || ins.op == Opcode::StoreGlobal)
        access_global(dform, value_reg, ins.sym,
                      static_cast<std::int32_t>(esz) * ins.elem);
      else
        indexed_access(dform, value_reg,
                       gpr_of(is_store ? ins.src2 : ins.src1), esz, ins.sym);
      return;
    }
    case Opcode::LoadStack:
    case Opcode::StoreStack: {
      const bool is_store = ins.op == Opcode::StoreStack;
      const RegClass cls = fn_.slots[ins.slot];
      push(make_regimm(dform_of(is_store, cls),
                       reg_of(is_store ? ins.src1 : ins.dst, cls),
                       desc_.stack_ptr, slot_offset(ins.slot)));
      return;
    }
    case Opcode::GetParam: {
      const int src = param_reg(ins.param_index);
      const RegClass cls = fn_.vregs[ins.dst];
      move(cls, reg_of(ins.dst, cls), src);
      return;
    }
    case Opcode::Jump:
      jump(static_cast<int>(ins.target));
      return;
    case Opcode::Branch:
      branch_nonzero(ins.src1, static_cast<int>(ins.target));
      jump(static_cast<int>(ins.target2));
      return;
    case Opcode::BranchCmp:
      branch_compare(ins.bin_op, ins.src1, ins.src2,
                     static_cast<int>(ins.target));
      jump(static_cast<int>(ins.target2));
      return;
    case Opcode::Ret: {
      if (ins.src1 != rtl::kNoVReg) {
        const RegClass cls = fn_.vregs[ins.src1];
        const int ret =
            cls == RegClass::I32 ? desc_.ret_gpr : desc_.ret_fpr;
        const int src = reg_of(ins.src1, cls);
        if (src != ret) move(cls, ret, src);
      }
      if (out_.frame_bytes != 0)
        push(make_regimm(MOp::Addi, desc_.stack_ptr, desc_.stack_ptr,
                         static_cast<std::int32_t>(out_.frame_bytes)));
      push({.op = MOp::Blr});
      return;
    }
    case Opcode::Annot: {
      AnnotEntry entry;
      entry.addr = static_cast<std::uint32_t>(out_.ops.size());
      entry.format = ins.annot_format;
      for (const rtl::AnnotOperand& a : ins.annot_args) {
        MLoc loc;
        if (a.is_slot) {
          loc.kind = MLoc::Kind::StackSlot;
          loc.offset = slot_offset(a.slot) -
                       static_cast<std::int32_t>(out_.frame_bytes);
          loc.is_f64 = fn_.slots[a.slot] == RegClass::F64;
        } else {
          const RegClass cls = fn_.vregs[a.vreg];
          loc.kind = cls == RegClass::I32 ? MLoc::Kind::Gpr : MLoc::Kind::Fpr;
          loc.index = reg_of(a.vreg, cls);
        }
        entry.operands.push_back(loc);
      }
      out_.annots.push_back(std::move(entry));
      return;
    }
  }
  throw InternalError("bad RTL opcode in codegen");
}

void Emitter::emit_unary(const rtl::Instr& ins) {
  const auto un = [&](MOp op, RegClass dst, RegClass src) {
    push(make_reg3(op, reg_of(ins.dst, dst), reg_of(ins.src1, src), 0));
  };
  constexpr RegClass kI = RegClass::I32, kF = RegClass::F64;
  switch (ins.un_op) {
    case UnOp::INeg:
    case UnOp::INot:
      int_unary(ins.un_op, gpr_of(ins.dst), gpr_of(ins.src1));
      return;
    case UnOp::FNeg: un(MOp::Fneg, kF, kF); return;
    case UnOp::FAbs: un(MOp::Fabs, kF, kF); return;
    case UnOp::I2F: un(MOp::Icvf, kF, kI); return;
    case UnOp::F2I: un(MOp::Fcti, kI, kF); return;
    case UnOp::LNot:
      throw InternalError("LNot must be expanded during lowering");
  }
  throw InternalError("bad UnOp in codegen");
}

void Emitter::emit_binary(const rtl::Instr& ins) {
  const auto int3 = [&](MOp op) {
    push(make_reg3(op, gpr_of(ins.dst), gpr_of(ins.src1), gpr_of(ins.src2)));
  };
  const auto float3 = [&](MOp op) {
    push(make_reg3(op, fpr_of(ins.dst), fpr_of(ins.src1), fpr_of(ins.src2)));
  };
  switch (ins.bin_op) {
    case BinOp::IAdd: int3(MOp::Add); return;
    case BinOp::ISub:
      // subf rd, ra, rb computes rb - ra.
      push(make_reg3(MOp::Subf, gpr_of(ins.dst), gpr_of(ins.src2),
                     gpr_of(ins.src1)));
      return;
    case BinOp::IMul: int3(MOp::Mullw); return;
    case BinOp::IDiv: int3(MOp::Divw); return;
    case BinOp::IAnd: int3(MOp::And); return;
    case BinOp::IOr: int3(MOp::Or); return;
    case BinOp::IXor: int3(MOp::Xor); return;
    case BinOp::IRem:
    case BinOp::IShl:
    case BinOp::IShr:
      int_binary(ins.bin_op, gpr_of(ins.dst), gpr_of(ins.src1),
                 gpr_of(ins.src2));
      return;
    case BinOp::FAdd: float3(MOp::Fadd); return;
    case BinOp::FSub: float3(MOp::Fsub); return;
    case BinOp::FMul: float3(MOp::Fmul); return;
    case BinOp::FDiv: float3(MOp::Fdiv); return;
    case BinOp::ICmpEq: case BinOp::ICmpNe: case BinOp::ICmpLt:
    case BinOp::ICmpLe: case BinOp::ICmpGt: case BinOp::ICmpGe:
    case BinOp::FCmpEq: case BinOp::FCmpNe: case BinOp::FCmpLt:
    case BinOp::FCmpLe: case BinOp::FCmpGt: case BinOp::FCmpGe:
      compare_into(ins.bin_op, ins.src1, ins.src2, gpr_of(ins.dst));
      return;
    case BinOp::FMin:
    case BinOp::FMax:
      throw InternalError("fmin/fmax must be expanded during lowering");
  }
  throw InternalError("bad BinOp in codegen");
}

}  // namespace vc::mach
