#include "rtl/rtl.hpp"

#include <cstring>

#include "support/strings.hpp"

namespace vc::rtl {

std::string to_string(RegClass c) { return c == RegClass::I32 ? "i" : "f"; }

RegClass reg_class_of(minic::Type t) {
  return t == minic::Type::I32 ? RegClass::I32 : RegClass::F64;
}

std::string to_string(Opcode op) {
  switch (op) {
    case Opcode::LdI: return "ldi";
    case Opcode::LdF: return "ldf";
    case Opcode::Mov: return "mov";
    case Opcode::Un: return "un";
    case Opcode::Bin: return "bin";
    case Opcode::LoadGlobal: return "ldg";
    case Opcode::StoreGlobal: return "stg";
    case Opcode::LoadGlobalIdx: return "ldgx";
    case Opcode::StoreGlobalIdx: return "stgx";
    case Opcode::LoadStack: return "lds";
    case Opcode::StoreStack: return "sts";
    case Opcode::GetParam: return "param";
    case Opcode::Jump: return "jmp";
    case Opcode::Branch: return "br";
    case Opcode::BranchCmp: return "brcmp";
    case Opcode::Ret: return "ret";
    case Opcode::Annot: return "annot";
    case Opcode::Phi: return "phi";
  }
  throw InternalError("bad rtl opcode");
}

std::optional<VReg> Instr::def() const {
  switch (op) {
    case Opcode::LdI:
    case Opcode::LdF:
    case Opcode::Mov:
    case Opcode::Un:
    case Opcode::Bin:
    case Opcode::LoadGlobal:
    case Opcode::LoadGlobalIdx:
    case Opcode::LoadStack:
    case Opcode::GetParam:
    case Opcode::Phi:
      return dst;
    default:
      return std::nullopt;
  }
}

bool Instr::is_pure() const {
  switch (op) {
    case Opcode::LdI:
    case Opcode::LdF:
    case Opcode::Mov:
    case Opcode::Un:
    case Opcode::Bin:
    case Opcode::GetParam:
      return true;
    default:
      return false;
  }
}

const Instr& BasicBlock::terminator() const {
  check(!instrs.empty() && instrs.back().is_terminator(),
        "block lacks a terminator");
  return instrs.back();
}

Successors BasicBlock::successors() const {
  const Instr& t = terminator();
  switch (t.op) {
    case Opcode::Jump: return Successors(t.target);
    case Opcode::Branch:
    case Opcode::BranchCmp: return Successors(t.target, t.target2);
    case Opcode::Ret: return {};
    default:
      throw InternalError("bad terminator");
  }
}

VReg Function::new_vreg(RegClass cls) {
  vregs.push_back(cls);
  return static_cast<VReg>(vregs.size() - 1);
}

Slot Function::new_slot(RegClass cls) {
  slots.push_back(cls);
  return static_cast<Slot>(slots.size() - 1);
}

std::size_t Function::instruction_count() const {
  std::size_t n = 0;
  for (const auto& b : blocks) n += b.instrs.size();
  return n;
}

bool identical(const Instr& x, const Instr& y) {
  std::uint64_t fx = 0, fy = 0;
  std::memcpy(&fx, &x.f64_imm, sizeof fx);
  std::memcpy(&fy, &y.f64_imm, sizeof fy);
  if (x.op != y.op || x.dst != y.dst || x.src1 != y.src1 ||
      x.src2 != y.src2 || x.int_imm != y.int_imm || fx != fy ||
      x.un_op != y.un_op || x.bin_op != y.bin_op || x.sym != y.sym ||
      x.elem != y.elem || x.slot != y.slot ||
      x.param_index != y.param_index || x.target != y.target ||
      x.target2 != y.target2 || x.annot_format != y.annot_format ||
      x.annot_args.size() != y.annot_args.size() ||
      x.phi_args.size() != y.phi_args.size())
    return false;
  for (std::size_t k = 0; k < x.annot_args.size(); ++k) {
    const auto& ax = x.annot_args[k];
    const auto& ay = y.annot_args[k];
    if (ax.is_slot != ay.is_slot || ax.vreg != ay.vreg || ax.slot != ay.slot)
      return false;
  }
  for (std::size_t k = 0; k < x.phi_args.size(); ++k)
    if (x.phi_args[k].pred != y.phi_args[k].pred ||
        x.phi_args[k].src != y.phi_args[k].src)
      return false;
  return true;
}

bool identical(const Function& x, const Function& y) {
  if (x.name != y.name || x.vregs != y.vregs || x.slots != y.slots ||
      x.has_return != y.has_return || x.ret_class != y.ret_class ||
      x.params.size() != y.params.size() ||
      x.blocks.size() != y.blocks.size())
    return false;
  for (std::size_t i = 0; i < x.params.size(); ++i)
    if (x.params[i].name != y.params[i].name ||
        x.params[i].cls != y.params[i].cls)
      return false;
  for (std::size_t b = 0; b < x.blocks.size(); ++b) {
    const auto& ix = x.blocks[b].instrs;
    const auto& iy = y.blocks[b].instrs;
    if (ix.size() != iy.size()) return false;
    for (std::size_t i = 0; i < ix.size(); ++i)
      if (!identical(ix[i], iy[i])) return false;
  }
  return true;
}

void Function::validate() const {
  check(!blocks.empty(), "function has no blocks");
  auto check_vreg = [&](VReg v, const char* what) {
    check(v < vregs.size(),
          [&] { return std::string("vreg out of range in ") + what; });
  };
  for (const auto& bb : blocks) {
    check(!bb.instrs.empty(), "empty basic block");
    bool seen_nonphi = false;
    for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
      const Instr& ins = bb.instrs[i];
      const bool last = i + 1 == bb.instrs.size();
      check(ins.is_terminator() == last,
            [&] { return "terminator placement violation in " + name; });
      if (ins.op == Opcode::Phi) {
        check(!seen_nonphi,
              [&] { return "phi after non-phi instruction in " + name; });
        check(!ins.phi_args.empty(),
              [&] { return "phi with no incoming args in " + name; });
        for (std::size_t a = 0; a < ins.phi_args.size(); ++a) {
          check(ins.phi_args[a].pred < blocks.size(),
                [&] { return "phi predecessor out of range in " + name; });
          if (a != 0)
            check(ins.phi_args[a - 1].pred < ins.phi_args[a].pred, [&] {
              return "phi args not sorted by predecessor in " + name;
            });
        }
      } else {
        seen_nonphi = true;
      }
      for_each_use(ins, [&](VReg u) { check_vreg(u, "use"); });
      if (auto d = ins.def()) check_vreg(*d, "def");
      if (ins.op == Opcode::LoadStack || ins.op == Opcode::StoreStack)
        check(ins.slot < slots.size(), "slot out of range");
      if (ins.op == Opcode::Jump || ins.op == Opcode::Branch ||
          ins.op == Opcode::BranchCmp) {
        check(ins.target < blocks.size(), "branch target out of range");
        if (ins.op != Opcode::Jump)
          check(ins.target2 < blocks.size(), "branch target2 out of range");
      }
    }
  }
}

namespace {

std::string reg_name(const Function& fn, VReg v) {
  if (v == kNoVReg) return "_";
  return to_string(fn.vregs[v]) + std::to_string(v);
}

}  // namespace

std::string print_function(const Function& fn) {
  std::string out = "function " + fn.name + "(";
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    if (i != 0) out += ", ";
    out += fn.params[i].name + ":" + to_string(fn.params[i].cls);
  }
  out += ")\n";
  for (BlockId b = 0; b < fn.blocks.size(); ++b) {
    out += "bb" + std::to_string(b) + ":\n";
    for (const Instr& ins : fn.blocks[b].instrs) {
      out += "  ";
      switch (ins.op) {
        case Opcode::LdI:
          out += reg_name(fn, ins.dst) + " = " + std::to_string(ins.int_imm);
          break;
        case Opcode::LdF:
          out += reg_name(fn, ins.dst) + " = " + format_double(ins.f64_imm);
          break;
        case Opcode::Mov:
          out += reg_name(fn, ins.dst) + " = " + reg_name(fn, ins.src1);
          break;
        case Opcode::Un:
          out += reg_name(fn, ins.dst) + " = " + minic::to_string(ins.un_op) +
                 " " + reg_name(fn, ins.src1);
          break;
        case Opcode::Bin:
          out += reg_name(fn, ins.dst) + " = " + reg_name(fn, ins.src1) + " " +
                 minic::to_string(ins.bin_op) + " " + reg_name(fn, ins.src2);
          break;
        case Opcode::LoadGlobal:
          out += reg_name(fn, ins.dst) + " = " + ins.sym + "[" +
                 std::to_string(ins.elem) + "]";
          break;
        case Opcode::StoreGlobal:
          out += ins.sym + "[" + std::to_string(ins.elem) +
                 "] = " + reg_name(fn, ins.src1);
          break;
        case Opcode::LoadGlobalIdx:
          out += reg_name(fn, ins.dst) + " = " + ins.sym + "[" +
                 reg_name(fn, ins.src1) + "]";
          break;
        case Opcode::StoreGlobalIdx:
          out += ins.sym + "[" + reg_name(fn, ins.src2) +
                 "] = " + reg_name(fn, ins.src1);
          break;
        case Opcode::LoadStack:
          out += reg_name(fn, ins.dst) + " = slot" + std::to_string(ins.slot);
          break;
        case Opcode::StoreStack:
          out += "slot" + std::to_string(ins.slot) + " = " +
                 reg_name(fn, ins.src1);
          break;
        case Opcode::GetParam:
          out += reg_name(fn, ins.dst) + " = param" +
                 std::to_string(ins.param_index);
          break;
        case Opcode::Jump:
          out += "jmp bb" + std::to_string(ins.target);
          break;
        case Opcode::Branch:
          out += "br " + reg_name(fn, ins.src1) + " bb" +
                 std::to_string(ins.target) + " bb" + std::to_string(ins.target2);
          break;
        case Opcode::BranchCmp:
          out += "br (" + reg_name(fn, ins.src1) + " " +
                 minic::to_string(ins.bin_op) + " " + reg_name(fn, ins.src2) +
                 ") bb" + std::to_string(ins.target) + " bb" +
                 std::to_string(ins.target2);
          break;
        case Opcode::Ret:
          out += ins.src1 == kNoVReg ? "ret" : "ret " + reg_name(fn, ins.src1);
          break;
        case Opcode::Annot:
          out += "annot \"" + ins.annot_format + "\"";
          for (const AnnotOperand& a : ins.annot_args)
            out += a.is_slot ? " slot" + std::to_string(a.slot)
                             : " " + reg_name(fn, a.vreg);
          break;
        case Opcode::Phi:
          out += reg_name(fn, ins.dst) + " = phi [";
          for (std::size_t a = 0; a < ins.phi_args.size(); ++a) {
            if (a != 0) out += ", ";
            out += "bb" + std::to_string(ins.phi_args[a].pred) + ": " +
                   reg_name(fn, ins.phi_args[a].src);
          }
          out += "]";
          break;
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace vc::rtl
