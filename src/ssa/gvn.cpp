// Global value numbering over SSA: dominator-scoped hash-consing with
// integrated copy propagation. Untrusted; checked by check_ssa_equivalence
// plus the differential oracle.
#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>

#include "ssa/internal.hpp"
#include "ssa/ssa.hpp"

namespace vc::ssa {

using minic::BinOp;
using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::Opcode;
using rtl::VReg;

namespace {

bool is_commutative_int(BinOp op) {
  switch (op) {
    case BinOp::IAdd:
    case BinOp::IMul:
    case BinOp::IAnd:
    case BinOp::IOr:
    case BinOp::IXor:
    case BinOp::ICmpEq:
    case BinOp::ICmpNe:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool global_value_numbering(Function& fn) {
  if (!has_phis(fn)) return false;  // SSA passes only run inside the bracket

  const auto idom = rtl::immediate_dominators(fn);
  const auto children = rtl::dominator_children(idom);

  // vn[v] = representative vreg of v's value class. Assigned once per vreg
  // (SSA), so value equalities are globally valid; *availability* of the
  // representative at a point is guaranteed by the scoped table below.
  std::vector<VReg> vn(fn.vregs.size());
  for (VReg v = 0; v < vn.size(); ++v) vn[v] = v;
  const auto find = [&](VReg v) { return vn[v]; };

  std::unordered_map<std::string, VReg> table;
  std::vector<std::string> undo;

  bool changed = false;

  const auto key_of = [&](const Instr& ins, BlockId b) -> std::string {
    switch (ins.op) {
      case Opcode::LdI:
        return "ldi:" + std::to_string(ins.int_imm);
      case Opcode::LdF: {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &ins.f64_imm, sizeof(bits));
        return "ldf:" + std::to_string(bits);
      }
      case Opcode::Un:
        return "un:" + std::to_string(static_cast<int>(ins.un_op)) + ":" +
               std::to_string(find(ins.src1));
      case Opcode::Bin: {
        // Division can trap; it is an anchored event for the SSA
        // equivalence checker, so it is never value-numbered away.
        if (ins.bin_op == BinOp::IDiv || ins.bin_op == BinOp::IRem)
          return {};
        VReg a = find(ins.src1);
        VReg b2 = find(ins.src2);
        // Integer commutative ops canonicalize by value number; float
        // operands are never reordered (bit-exact results are part of the
        // differential oracle).
        if (is_commutative_int(ins.bin_op) && a > b2) std::swap(a, b2);
        return "bin:" + std::to_string(static_cast<int>(ins.bin_op)) + ":" +
               std::to_string(a) + ":" + std::to_string(b2);
      }
      case Opcode::GetParam:
        return "par:" + std::to_string(ins.param_index);
      case Opcode::Phi: {
        std::string k = "phi:" + std::to_string(b);
        for (const rtl::PhiArg& a : ins.phi_args)
          k += ":" + std::to_string(a.pred) + "," + std::to_string(find(a.src));
        return k;
      }
      default:
        return {};
    }
  };

  struct Frame {
    BlockId block;
    std::size_t child = 0;
    std::size_t undo_mark = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0, 0});
  while (!stack.empty()) {
    Frame& fr = stack.back();
    const BlockId b = fr.block;
    if (fr.child == 0) {
      fr.undo_mark = undo.size();
      for (Instr& ins : fn.blocks[b].instrs) {
        // Copy propagation: route every operand to its representative.
        rtl::for_each_use(ins, [&](VReg& v) {
          const VReg r = find(v);
          if (r != v) changed = true;
          v = r;
        });
        if (ins.op == Opcode::Mov) {
          vn[ins.dst] = find(ins.src1);
          continue;
        }
        const std::string key = key_of(ins, b);
        if (key.empty()) continue;
        const auto it = table.find(key);
        if (it != table.end()) {
          // Redundant. A phi is left in place (its dst just joins the
          // representative's class — a mid-phi-run Mov would break the
          // phis-at-head invariant); a plain instruction becomes a copy.
          const VReg rep = it->second;
          vn[ins.dst] = find(rep);
          if (ins.op != Opcode::Phi) {
            Instr mov;
            mov.op = Opcode::Mov;
            mov.dst = ins.dst;
            mov.src1 = rep;
            ins = mov;
            changed = true;
          }
        } else {
          table.emplace(key, ins.dst);
          undo.push_back(key);
        }
      }
    }
    if (fr.child < children[b].size()) {
      const BlockId c = children[b][fr.child++];
      stack.push_back({c, 0, 0});
      continue;
    }
    while (undo.size() > fr.undo_mark) {
      table.erase(undo.back());
      undo.pop_back();
    }
    stack.pop_back();
  }

  return changed;
}

}  // namespace vc::ssa
