// Reference forms of constant propagation and dead code elimination, kept
// only for the parity tests (scalar_parity_test). Both are the
// straightforward dense solvers the passes in src/opt replaced:
//
//   * dense_constant_propagation gives every block a full n_vregs AbsVal
//     state, copies it on every sweep and joins it at every edge;
//   * iterated_dead_code_elimination recomputes whole-function liveness and
//     copies every block on each round until a round deletes nothing.
//
// They are slow and obviously right; the passes must produce the same
// function and the same return value on every input.
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "minic/interp.hpp"
#include "rtl/analysis.hpp"
#include "support/bitset.hpp"

namespace vc::reference {
namespace dense_cp {

using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::Opcode;
using rtl::VReg;

/// Flat constant lattice: Undef < {ConstI, ConstF} < Varying.
struct AbsVal {
  enum class Kind { Undef, ConstI, ConstF, Varying };
  Kind kind = Kind::Undef;
  std::int32_t i = 0;
  double f = 0.0;

  static AbsVal undef() { return {}; }
  static AbsVal varying() { return {Kind::Varying, 0, 0.0}; }
  static AbsVal of_i32(std::int32_t v) { return {Kind::ConstI, v, 0.0}; }
  static AbsVal of_f64(double v) { return {Kind::ConstF, 0, v}; }

  bool operator==(const AbsVal& o) const {
    if (kind != o.kind) return false;
    if (kind == Kind::ConstI) return i == o.i;
    if (kind == Kind::ConstF) {
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      std::memcpy(&a, &f, sizeof a);
      std::memcpy(&b, &o.f, sizeof b);
      return a == b;
    }
    return true;
  }
};

inline AbsVal join(const AbsVal& a, const AbsVal& b) {
  if (a.kind == AbsVal::Kind::Undef) return b;
  if (b.kind == AbsVal::Kind::Undef) return a;
  if (a == b) return a;
  return AbsVal::varying();
}

using State = std::vector<AbsVal>;

inline bool join_into(State& dst, const State& src) {
  bool changed = false;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const AbsVal j = join(dst[i], src[i]);
    if (!(j == dst[i])) {
      dst[i] = j;
      changed = true;
    }
  }
  return changed;
}

/// Attempts to fold a pure operation; Varying on failure.
inline AbsVal eval_instr(const Instr& ins, const State& s) {
  switch (ins.op) {
    case Opcode::LdI:
      return AbsVal::of_i32(ins.int_imm);
    case Opcode::LdF:
      return AbsVal::of_f64(ins.f64_imm);
    case Opcode::Mov:
      return s[ins.src1];
    case Opcode::Un: {
      const AbsVal& a = s[ins.src1];
      if (a.kind == AbsVal::Kind::ConstI) {
        const minic::Value r =
            minic::eval_unop(ins.un_op, minic::Value::of_i32(a.i));
        return r.type == minic::Type::I32 ? AbsVal::of_i32(r.i)
                                          : AbsVal::of_f64(r.f);
      }
      if (a.kind == AbsVal::Kind::ConstF) {
        const minic::Value r =
            minic::eval_unop(ins.un_op, minic::Value::of_f64(a.f));
        return r.type == minic::Type::I32 ? AbsVal::of_i32(r.i)
                                          : AbsVal::of_f64(r.f);
      }
      if (a.kind == AbsVal::Kind::Undef) return AbsVal::undef();
      return AbsVal::varying();
    }
    case Opcode::Bin: {
      const AbsVal& a = s[ins.src1];
      const AbsVal& b = s[ins.src2];
      if (a.kind == AbsVal::Kind::Undef || b.kind == AbsVal::Kind::Undef)
        return AbsVal::undef();
      if (minic::operand_type(ins.bin_op) == minic::Type::I32) {
        if (a.kind != AbsVal::Kind::ConstI || b.kind != AbsVal::Kind::ConstI)
          return AbsVal::varying();
        // Never fold a division/remainder by zero: keep the trapping
        // instruction in place so run-time behaviour is preserved.
        if ((ins.bin_op == minic::BinOp::IDiv ||
             ins.bin_op == minic::BinOp::IRem) &&
            b.i == 0)
          return AbsVal::varying();
        return AbsVal::of_i32(minic::eval_ibinop(ins.bin_op, a.i, b.i));
      }
      if (a.kind != AbsVal::Kind::ConstF || b.kind != AbsVal::Kind::ConstF)
        return AbsVal::varying();
      if (minic::result_type(ins.bin_op) == minic::Type::F64)
        return AbsVal::of_f64(minic::eval_fbinop(ins.bin_op, a.f, b.f));
      return AbsVal::of_i32(minic::eval_fcmp(ins.bin_op, a.f, b.f));
    }
    default:
      return AbsVal::varying();
  }
}

inline void transfer(const Instr& ins, State& s) {
  if (auto d = ins.def()) {
    if (ins.is_pure())
      s[*d] = eval_instr(ins, s);
    else
      s[*d] = AbsVal::varying();
  }
}

}  // namespace dense_cp

inline bool dense_constant_propagation(rtl::Function& fn) {
  using namespace dense_cp;
  const std::size_t n_blocks = fn.blocks.size();
  const State initial(fn.vregs.size(), AbsVal::undef());

  std::vector<State> in(n_blocks, initial);
  // Entry state: everything undef (GetParam makes parameters varying).
  const std::vector<BlockId> rpo = rtl::reverse_postorder(fn);
  std::vector<bool> seen(n_blocks, false);
  seen[0] = true;

  bool changed_state = true;
  while (changed_state) {
    changed_state = false;
    for (BlockId b : rpo) {
      State s = in[b];
      for (const Instr& ins : fn.blocks[b].instrs) transfer(ins, s);
      for (BlockId succ : fn.blocks[b].successors()) {
        if (!seen[succ]) {
          seen[succ] = true;
          in[succ] = s;
          changed_state = true;
        } else if (join_into(in[succ], s)) {
          changed_state = true;
        }
      }
    }
  }

  // Rewrite phase: walk each block with the running abstract state.
  bool changed = false;
  for (BlockId b : rpo) {
    State s = in[b];
    for (Instr& ins : fn.blocks[b].instrs) {
      if (ins.is_pure() && ins.op != Opcode::LdI && ins.op != Opcode::LdF) {
        const AbsVal v = eval_instr(ins, s);
        if (v.kind == AbsVal::Kind::ConstI || v.kind == AbsVal::Kind::ConstF) {
          const VReg dst = ins.dst;
          transfer(ins, s);
          Instr folded;
          folded.op =
              v.kind == AbsVal::Kind::ConstI ? Opcode::LdI : Opcode::LdF;
          folded.dst = dst;
          folded.int_imm = v.i;
          folded.f64_imm = v.f;
          ins = folded;
          changed = true;
          continue;
        }
      }
      // Fold constant-condition branches into jumps.
      if (ins.op == Opcode::Branch &&
          s[ins.src1].kind == AbsVal::Kind::ConstI) {
        const BlockId target =
            s[ins.src1].i != 0 ? ins.target : ins.target2;
        Instr j;
        j.op = Opcode::Jump;
        j.target = target;
        ins = j;
        changed = true;
        continue;
      }
      if (ins.op == Opcode::BranchCmp) {
        const AbsVal& a = s[ins.src1];
        const AbsVal& b2 = s[ins.src2];
        bool known = false;
        bool taken = false;
        if (minic::operand_type(ins.bin_op) == minic::Type::I32) {
          if (a.kind == AbsVal::Kind::ConstI &&
              b2.kind == AbsVal::Kind::ConstI) {
            known = true;
            taken = minic::eval_ibinop(ins.bin_op, a.i, b2.i) != 0;
          }
        } else if (a.kind == AbsVal::Kind::ConstF &&
                   b2.kind == AbsVal::Kind::ConstF) {
          known = true;
          taken = minic::eval_fcmp(ins.bin_op, a.f, b2.f) != 0;
        }
        if (known) {
          Instr j;
          j.op = Opcode::Jump;
          j.target = taken ? ins.target : ins.target2;
          ins = j;
          changed = true;
          continue;
        }
      }
      transfer(ins, s);
    }
  }

  if (changed) rtl::remove_unreachable_blocks(fn);
  return changed;
}

inline bool iterated_dead_code_elimination(rtl::Function& fn) {
  bool any_change = false;
  bool changed = true;
  DenseBitset live(fn.vregs.size());
  while (changed) {
    changed = false;
    const rtl::Liveness lv = rtl::compute_liveness(fn);
    for (rtl::BlockId b = 0; b < fn.blocks.size(); ++b) {
      live = lv.live_out[b];
      auto& instrs = fn.blocks[b].instrs;
      std::vector<rtl::Instr> kept;
      kept.reserve(instrs.size());
      for (std::size_t i = instrs.size(); i-- > 0;) {
        const rtl::Instr& ins = instrs[i];
        const auto d = ins.def();
        if (ins.is_pure() && d && !live.test(*d)) {
          changed = true;
          any_change = true;
          continue;  // dead: drop
        }
        if (d) live.reset(*d);
        rtl::for_each_use(ins, [&](rtl::VReg u) { live.set(u); });
        kept.push_back(ins);
      }
      std::reverse(kept.begin(), kept.end());
      instrs = std::move(kept);
    }
  }
  return any_change;
}

}  // namespace vc::reference
