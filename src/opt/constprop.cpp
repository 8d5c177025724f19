#include <cstring>

#include "minic/interp.hpp"
#include "opt/opt.hpp"
#include "rtl/analysis.hpp"

namespace vc::opt {
namespace {

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

AbsVal join(const AbsVal& a, const AbsVal& b) {
  if (a.kind == AbsVal::Kind::Undef) return b;
  if (b.kind == AbsVal::Kind::Undef) return a;
  if (a == b) return a;
  return AbsVal::varying();
}

constexpr std::uint32_t kCell = 0xFFFFFFFF;

/// The abstract value of every vreg at one program point. A vreg with one
/// definition that dominates all of its uses reads its flow-insensitive
/// cell; every other vreg reads its slot of the running per-block state.
struct State {
  const std::uint32_t* slot_of;  // vreg -> slot in `flow`, or kCell
  AbsVal* cells;                 // indexed by vreg
  AbsVal* flow;                  // indexed by slot

  AbsVal& operator[](VReg v) const {
    return slot_of[v] == kCell ? cells[v] : flow[slot_of[v]];
  }
};

/// Attempts to fold a pure operation; Varying on failure.
AbsVal eval_instr(const Instr& ins, const State& s) {
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

void transfer(const Instr& ins, const State& s) {
  if (auto d = ins.def()) {
    if (ins.is_pure())
      s[*d] = eval_instr(ins, s);
    else
      s[*d] = AbsVal::varying();
  }
}

/// Per-thread scratch: its capacity carries across functions and fleet
/// jobs, so a call that folds nothing allocates nothing.
struct Scratch {
  std::vector<std::uint32_t> rpo;
  std::vector<BlockId> idom;
  std::vector<std::uint32_t> def_count;
  std::vector<std::uint64_t> def_site;  // (block << 32 | index) of the def
  std::vector<std::uint32_t> slot_of;
  std::vector<AbsVal> cells;
  rtl::Liveness lv;
  // Block b's in-state holds the slots live into b: entries
  // [in_begin[b], in_begin[b + 1]) of in_slot (the slot) and in (its value).
  std::vector<std::uint32_t> in_begin;
  std::vector<std::uint32_t> in_slot;
  std::vector<AbsVal> in;
  std::vector<AbsVal> flow;  // the running state, by slot
};

/// Gives every vreg whose single definition dominates all of its uses a
/// cell (slot_of = kCell) and numbers the rest densely; returns how many
/// slots that takes. Only reachable blocks count: the solver never visits
/// the others. Every path to a dominated use passes through the one def,
/// so the flow-sensitive value there always equals the def's value, and the
/// least fixpoint is unchanged (DESIGN.md §18).
std::uint32_t assign_slots(const Function& fn, Scratch& s) {
  const std::size_t nv = fn.vregs.size();
  s.def_count.assign(nv, 0);
  s.def_site.resize(nv);
  for (BlockId b : s.rpo) {
    const auto& instrs = fn.blocks[b].instrs;
    for (std::uint32_t i = 0; i < instrs.size(); ++i)
      if (const auto d = instrs[i].def())
        if (s.def_count[*d]++ == 0)
          s.def_site[*d] = (std::uint64_t{b} << 32) | i;
  }
  s.slot_of.assign(nv, kCell);
  for (VReg v = 0; v < nv; ++v)
    if (s.def_count[v] > 1) s.slot_of[v] = 0;
  for (BlockId b : s.rpo) {
    const auto& instrs = fn.blocks[b].instrs;
    for (std::uint32_t i = 0; i < instrs.size(); ++i)
      rtl::for_each_use(instrs[i], [&](VReg u) {
        if (s.slot_of[u] != kCell || s.def_count[u] == 0) return;
        const BlockId db = static_cast<BlockId>(s.def_site[u] >> 32);
        const std::uint32_t di = static_cast<std::uint32_t>(s.def_site[u]);
        const bool dominated =
            db == b ? di < i : rtl::dominates(s.idom, db, b);
        if (!dominated) s.slot_of[u] = 0;
      });
  }
  std::uint32_t n_slots = 0;
  for (VReg v = 0; v < nv; ++v)
    if (s.slot_of[v] != kCell) s.slot_of[v] = n_slots++;
  return n_slots;
}

}  // namespace

bool constant_propagation(rtl::Function& fn) {
  thread_local Scratch sc;
  rtl::reverse_postorder(fn, &sc.rpo);
  rtl::immediate_dominators(fn, &sc.idom);
  const std::uint32_t n_slots = assign_slots(fn, sc);
  const std::size_t n_blocks = fn.blocks.size();

  // A block's in-state is the join of its predecessors' out-states, over
  // the slots live into the block: a value where its register is dead is
  // never read (every read is a use), so no fold depends on it. Everything
  // starts undef (GetParam makes parameters varying).
  rtl::compute_liveness(fn, &sc.lv);
  sc.in_begin.clear();
  sc.in_slot.clear();
  for (BlockId b = 0; b < n_blocks; ++b) {
    sc.in_begin.push_back(static_cast<std::uint32_t>(sc.in_slot.size()));
    sc.lv.live_in[b].for_each([&](std::size_t v) {
      if (sc.slot_of[v] != kCell) sc.in_slot.push_back(sc.slot_of[v]);
    });
  }
  sc.in_begin.push_back(static_cast<std::uint32_t>(sc.in_slot.size()));
  sc.in.assign(sc.in_slot.size(), AbsVal::undef());
  sc.cells.assign(fn.vregs.size(), AbsVal::undef());
  sc.flow.resize(n_slots);
  const State s{sc.slot_of.data(), sc.cells.data(), sc.flow.data()};
  auto load_in = [&](BlockId b) {
    for (std::uint32_t k = sc.in_begin[b]; k < sc.in_begin[b + 1]; ++k)
      sc.flow[sc.in_slot[k]] = sc.in[k];
  };
  auto join_into = [&](BlockId b) {
    bool grew = false;
    for (std::uint32_t k = sc.in_begin[b]; k < sc.in_begin[b + 1]; ++k) {
      const AbsVal j = join(sc.in[k], sc.flow[sc.in_slot[k]]);
      if (!(j == sc.in[k])) {
        sc.in[k] = j;
        grew = true;
      }
    }
    return grew;
  };

  // A cell is written only at its def, which comes before every use in
  // reverse postorder (it dominates them), so one sweep sees each cell's
  // update; another sweep is due only when some block's in-state grew.
  bool changed_state = true;
  while (changed_state) {
    changed_state = false;
    for (BlockId b : sc.rpo) {
      load_in(b);
      for (const Instr& ins : fn.blocks[b].instrs) transfer(ins, s);
      for (BlockId succ : fn.blocks[b].successors())
        changed_state |= join_into(succ);
    }
  }

  // Rewrite phase: walk each block with the running abstract state.
  bool changed = false;
  for (BlockId b : sc.rpo) {
    load_in(b);
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

}  // namespace vc::opt
