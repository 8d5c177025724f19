#include "validate/validate.hpp"

#include <cstring>
#include <limits>
#include <map>
#include <sstream>

#include "machine/machine.hpp"
#include "minic/interp.hpp"
#include "rtl/analysis.hpp"
#include "rtl/exec.hpp"
#include "ssa/internal.hpp"
#include "ssa/ssa.hpp"
#include "support/bitset.hpp"
#include "support/rng.hpp"
#include "validate/term.hpp"

namespace vc::validate {

using minic::Value;
using rtl::BlockId;
using rtl::Instr;
using rtl::Opcode;
using rtl::VReg;

// ---------------------------------------------------------------------------
// 1. Symbolic structure-preserving checker
// ---------------------------------------------------------------------------
//
// The checker symbolically executes both versions in dominator-tree preorder
// (scoped environments with an undo log), so equivalences established in a
// block are visible in the blocks it dominates — matching the reach of the
// scoped CSE. RTL is not SSA, so an inherited binding about vreg v is only
// trusted when it cannot be stale: v is never defined (it always holds its
// initial value), or it has exactly one definition site and the binding was
// made there. Everything else falls back to an opaque per-block entry value.
//
// Memory rewrites (store-to-load forwarding) are justified by an independent
// two-phase argument:
//   phase 1: a register-free must-availability dataflow over the *before*
//     function computes, for every static memory location, the write/read
//     site ("token") whose value the location holds on every incoming path;
//   phase 2: during the symbolic walk, each store/first-load site records the
//     symbolic value of its token. Availability at a use implies the token's
//     site dominates it (a must-fact survives only if every path runs
//     through its creation site), so the recording walk has already visited
//     it. A load rewritten to a Mov is accepted iff the Mov's source has
//     exactly the token's recorded symbolic value.

namespace {

/// Term kinds of the structure checker: leaves for opaque entry values,
/// constants, parameters and loads, and the two pure operators.
enum SKind : std::uint32_t {
  kEntry,       // imm: vreg (never defined: one global leaf)
  kBlockEntry,  // imm: block << 32 | vreg
  kLdI,         // imm: the constant
  kLdF,         // imm: the constant's bit pattern
  kUn,          // kids: operand; imm: operator
  kBin,         // kids: operands (by id when commutative); imm: operator
  kParam,       // imm: parameter index
  kLoad,        // imm: block << 32 | instr (a location's first read)
  kLoadIdx,     // imm: block << 32 | instr (an indexed read)
};

/// Dominator-scoped symbolic register environment over a term table shared
/// by both sides, so that structurally equal values receive equal ids on
/// both sides and across blocks. Bindings are pushed while walking a block's
/// subtree and rolled back when leaving it; validity of inherited bindings
/// follows the single-def rule described above.
class SymbolicEnv {
 public:
  SymbolicEnv(TermTable& terms, const rtl::Function& fn) : terms_(terms) {
    def_count_.assign(fn.vregs.size(), 0);
    for (const auto& bb : fn.blocks)
      for (const Instr& ins : bb.instrs)
        if (auto d = ins.def()) ++def_count_[*d];
    bindings_.assign(fn.vregs.size(), Binding{});
  }

  void enter_block(BlockId b) { cur_block_ = b; }
  [[nodiscard]] std::size_t mark() const { return log_.size(); }
  void rollback(std::size_t m) {
    while (log_.size() > m) {
      bindings_[log_.back().first] = log_.back().second;
      log_.pop_back();
    }
  }

  TermId value_of(VReg v) {
    const Binding& b = bindings_[v];
    if (b.live && (b.block == cur_block_ || def_count_[v] == 0 ||
                   (def_count_[v] == 1 && b.from_def)))
      return b.id;
    // Opaque entry value. Never-defined vregs hold their initial value
    // everywhere (one global leaf); anything else is pinned to this block.
    const TermId id = def_count_[v] == 0
                      ? terms_.make(kEntry, v)
                      : terms_.make(kBlockEntry, pack_imm(cur_block_, v));
    set(v, {id, cur_block_, true, false});
    return id;
  }

  /// Binds v at its definition site.
  void define(VReg v, TermId id) { set(v, {id, cur_block_, true, true}); }

  TermId compute(const Instr& ins) {
    switch (ins.op) {
      case Opcode::LdI:
        return terms_.make(kLdI, ins.int_imm);
      case Opcode::LdF: {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &ins.f64_imm, sizeof bits);
        return terms_.make(kLdF, static_cast<std::int64_t>(bits));
      }
      case Opcode::Mov:
        return value_of(ins.src1);
      case Opcode::Un:
        return terms_.make(kUn, static_cast<int>(ins.un_op),
                           {value_of(ins.src1)});
      case Opcode::Bin: {
        const TermId a = value_of(ins.src1);
        const TermId b = value_of(ins.src2);
        const auto op = static_cast<int>(ins.bin_op);
        return is_commutative(ins.bin_op)
                   ? terms_.make_commutative(kBin, a, b, op)
                   : terms_.make(kBin, op, {a, b});
      }
      case Opcode::GetParam:
        return terms_.make(kParam, ins.param_index);
      default:
        throw InternalError("compute on impure instruction");
    }
  }

 private:
  struct Binding {
    TermId id = kNoTerm;
    BlockId block = 0;
    bool live = false;
    bool from_def = false;
  };

  static bool is_commutative(minic::BinOp op) {
    switch (op) {
      case minic::BinOp::IAdd: case minic::BinOp::IMul:
      case minic::BinOp::IAnd: case minic::BinOp::IOr:
      case minic::BinOp::IXor: case minic::BinOp::ICmpEq:
      case minic::BinOp::ICmpNe: case minic::BinOp::FAdd:
      case minic::BinOp::FMul: case minic::BinOp::FCmpEq:
      case minic::BinOp::FCmpNe:
        return true;
      default:
        return false;
    }
  }

  void set(VReg v, Binding b) {
    log_.emplace_back(v, bindings_[v]);
    bindings_[v] = b;
  }

  TermTable& terms_;
  BlockId cur_block_ = 0;
  std::vector<int> def_count_;
  std::vector<Binding> bindings_;
  std::vector<std::pair<VReg, Binding>> log_;
};

/// Static memory locations of a function: stack slots first, then one index
/// per distinct (symbol, element) constant address. Shared by the
/// availability (phase 1) and dead-store checkers.
struct LocIndex {
  std::size_t nslots = 0;
  std::map<std::pair<std::string, std::int32_t>, std::size_t> global_index;
  std::map<std::string, std::vector<std::size_t>> by_sym;
  std::size_t nlocs = 0;

  explicit LocIndex(const rtl::Function& fn) : nslots(fn.slots.size()) {
    nlocs = nslots;
    for (const auto& bb : fn.blocks)
      for (const Instr& ins : bb.instrs)
        if (ins.op == Opcode::LoadGlobal || ins.op == Opcode::StoreGlobal) {
          const auto key = std::make_pair(ins.sym, ins.elem);
          if (global_index.emplace(key, nlocs).second) {
            by_sym[ins.sym].push_back(nlocs);
            ++nlocs;
          }
        }
  }

  [[nodiscard]] std::size_t loc_of(const Instr& ins) const {
    if (ins.op == Opcode::LoadStack || ins.op == Opcode::StoreStack)
      return ins.slot;
    return global_index.at({ins.sym, ins.elem});
  }
};

constexpr std::int32_t kNoToken = -1;

/// Phase 1: register-free must-availability of memory values over the
/// *before* function. A token names the site whose write (or first read)
/// produced a location's current value; facts meet by intersection, so an
/// available token's site lies on every path (it dominates the use).
struct MemAvailability {
  LocIndex locs;
  std::vector<std::vector<std::int32_t>> token_of;  // site -> its token
  std::vector<std::vector<std::int32_t>> avail_at;  // load site -> token
  std::int32_t ntokens = 0;

  explicit MemAvailability(const rtl::Function& fn) : locs(fn) {
    token_of.resize(fn.blocks.size());
    avail_at.resize(fn.blocks.size());
    for (BlockId b = 0; b < fn.blocks.size(); ++b) {
      token_of[b].assign(fn.blocks[b].instrs.size(), kNoToken);
      avail_at[b].assign(fn.blocks[b].instrs.size(), kNoToken);
      for (std::size_t i = 0; i < fn.blocks[b].instrs.size(); ++i) {
        const Opcode op = fn.blocks[b].instrs[i].op;
        if (op == Opcode::LoadStack || op == Opcode::LoadGlobal ||
            op == Opcode::StoreStack || op == Opcode::StoreGlobal)
          token_of[b][i] = ntokens++;
      }
    }

    // Fixpoint over reachable blocks; out-facts start at TOP (optimistic)
    // and only shrink toward the must-intersection.
    const std::vector<BlockId> rpo = rtl::reverse_postorder(fn);
    const auto preds = rtl::predecessors(fn);
    struct State {
      bool top = true;
      std::vector<std::int32_t> fact;
    };
    std::vector<State> out(fn.blocks.size());

    auto entry_state = [&](BlockId b) {
      State in;
      if (b == rpo.front()) {
        in.top = false;
        in.fact.assign(locs.nlocs, kNoToken);
        return in;
      }
      for (BlockId p : preds[b]) {
        if (out[p].top) continue;
        if (in.top) {
          in = out[p];
        } else {
          for (std::size_t l = 0; l < in.fact.size(); ++l)
            if (in.fact[l] != out[p].fact[l]) in.fact[l] = kNoToken;
        }
      }
      return in;
    };

    auto apply = [&](BlockId b, std::size_t i, const Instr& ins, State& s) {
      switch (ins.op) {
        case Opcode::StoreStack:
        case Opcode::StoreGlobal:
          s.fact[locs.loc_of(ins)] = token_of[b][i];
          break;
        case Opcode::StoreGlobalIdx: {
          auto it = locs.by_sym.find(ins.sym);
          if (it != locs.by_sym.end())
            for (std::size_t l : it->second) s.fact[l] = kNoToken;
          break;
        }
        case Opcode::LoadStack:
        case Opcode::LoadGlobal: {
          const std::size_t l = locs.loc_of(ins);
          if (s.fact[l] == kNoToken) s.fact[l] = token_of[b][i];
          break;
        }
        default:
          break;  // register effects don't touch memory facts
      }
    };

    bool changed = true;
    while (changed) {
      changed = false;
      for (BlockId b : rpo) {
        State in = entry_state(b);
        if (in.top) continue;
        for (std::size_t i = 0; i < fn.blocks[b].instrs.size(); ++i)
          apply(b, i, fn.blocks[b].instrs[i], in);
        if (out[b].top || out[b].fact != in.fact) {
          out[b] = std::move(in);
          changed = true;
        }
      }
    }

    // Final replay: record, at every static load site, the token available
    // just before it.
    for (BlockId b : rpo) {
      State s = entry_state(b);
      if (s.top) continue;
      for (std::size_t i = 0; i < fn.blocks[b].instrs.size(); ++i) {
        const Instr& ins = fn.blocks[b].instrs[i];
        if (ins.op == Opcode::LoadStack || ins.op == Opcode::LoadGlobal)
          avail_at[b][i] = s.fact[locs.loc_of(ins)];
        apply(b, i, ins, s);
      }
    }
  }
};

}  // namespace

CheckResult check_structure_preserving(const rtl::Function& before,
                                       const rtl::Function& after) {
  if (before.blocks.size() != after.blocks.size())
    return CheckResult::fail("block count changed");
  for (BlockId b = 0; b < before.blocks.size(); ++b)
    if (before.blocks[b].instrs.size() != after.blocks[b].instrs.size())
      return CheckResult::fail("instruction count changed in bb" +
                               std::to_string(b));

  const MemAvailability mem(before);
  std::vector<TermId> token_value(static_cast<std::size_t>(mem.ntokens),
                                  kNoTerm);

  // One term table for the whole function so equal values get equal ids on
  // both sides and across blocks.
  TermTable terms;
  SymbolicEnv env_b(terms, before);
  SymbolicEnv env_a(terms, after);

  const std::vector<BlockId> idom = rtl::immediate_dominators(before);
  const auto children = rtl::dominator_children(idom);

  CheckResult result = CheckResult::pass();

  // Walks one block's instruction pairs; returns false (with `result` set)
  // on the first mismatch.
  auto walk_block = [&](BlockId b) {
    const auto& ib = before.blocks[b].instrs;
    const auto& ia = after.blocks[b].instrs;
    env_b.enter_block(b);
    env_a.enter_block(b);
    auto fail_at = [&](std::size_t i, const std::string& what) {
      result = CheckResult::fail("bb" + std::to_string(b) + " instr " +
                                 std::to_string(i) + ": " + what);
      return false;
    };

    for (std::size_t i = 0; i < ib.size(); ++i) {
      const Instr& x = ib[i];
      const Instr& y = ia[i];

      // A forwarded load: the before side reads memory, the after side
      // copies from a register that must hold the location's current value.
      if ((x.op == Opcode::LoadStack || x.op == Opcode::LoadGlobal) &&
          y.op == Opcode::Mov) {
        if (x.dst != y.dst) return fail_at(i, "forwarded load destination");
        const std::int32_t tok = mem.avail_at[b][i];
        if (tok == kNoToken)
          return fail_at(i, "forwarded load without available value");
        const TermId tv = token_value[static_cast<std::size_t>(tok)];
        if (tv == kNoTerm)
          return fail_at(i, "forwarded load from unrecorded site");
        if (env_a.value_of(y.src1) != tv)
          return fail_at(i, "forwarded value mismatch");
        env_b.define(x.dst, tv);
        env_a.define(y.dst, tv);
        continue;
      }

      if (x.is_pure() != y.is_pure()) return fail_at(i, "purity mismatch");
      if (x.is_pure()) {
        const auto dx = x.def();
        const auto dy = y.def();
        if (!dx || !dy || *dx != *dy)
          return fail_at(i, "destination mismatch");
        const auto vx = env_b.compute(x);
        const auto vy = env_a.compute(y);
        if (vx != vy) return fail_at(i, "value mismatch");
        env_b.define(*dx, vx);
        env_a.define(*dy, vy);
        continue;
      }
      // Impure / control instructions must match exactly modulo operand
      // value equivalence.
      if (x.op != y.op) return fail_at(i, "opcode mismatch");
      switch (x.op) {
        case Opcode::StoreGlobal:
        case Opcode::StoreStack: {
          if (x.sym != y.sym || x.elem != y.elem || x.slot != y.slot)
            return fail_at(i, "store target mismatch");
          const auto sv_b = env_b.value_of(x.src1);
          if (sv_b != env_a.value_of(y.src1))
            return fail_at(i, "stored value mismatch");
          // Record the stored symbolic value for forwarding justification.
          token_value[static_cast<std::size_t>(mem.token_of[b][i])] = sv_b;
          break;
        }
        case Opcode::StoreGlobalIdx:
          if (x.sym != y.sym) return fail_at(i, "store target mismatch");
          if (env_b.value_of(x.src1) != env_a.value_of(y.src1) ||
              env_b.value_of(x.src2) != env_a.value_of(y.src2))
            return fail_at(i, "store operand mismatch");
          break;
        case Opcode::LoadGlobal:
        case Opcode::LoadStack: {
          if (x.sym != y.sym || x.elem != y.elem || x.slot != y.slot)
            return fail_at(i, "load source mismatch");
          if (x.dst != y.dst) return fail_at(i, "load destination mismatch");
          // If the location's value is known (a dominating store or earlier
          // load), both sides observe exactly that value; otherwise this
          // load is itself the location's token.
          const std::int32_t tok = mem.avail_at[b][i];
          TermId v = tok == kNoToken
                         ? kNoTerm
                         : token_value[static_cast<std::size_t>(tok)];
          if (v == kNoTerm) {
            v = terms.make(kLoad, pack_imm(b, i));
            token_value[static_cast<std::size_t>(mem.token_of[b][i])] = v;
          }
          env_b.define(x.dst, v);
          env_a.define(y.dst, v);
          break;
        }
        case Opcode::LoadGlobalIdx: {
          if (x.sym != y.sym) return fail_at(i, "load source mismatch");
          if (env_b.value_of(x.src1) != env_a.value_of(y.src1))
            return fail_at(i, "load index mismatch");
          if (x.dst != y.dst) return fail_at(i, "load destination mismatch");
          // Both sides loaded an arbitrary-but-equal value.
          const TermId v = terms.make(kLoadIdx, pack_imm(b, i));
          env_b.define(x.dst, v);
          env_a.define(y.dst, v);
          break;
        }
        case Opcode::Jump:
          if (x.target != y.target) return fail_at(i, "jump target mismatch");
          break;
        case Opcode::Branch:
          if (x.target != y.target || x.target2 != y.target2)
            return fail_at(i, "branch target mismatch");
          if (env_b.value_of(x.src1) != env_a.value_of(y.src1))
            return fail_at(i, "branch condition mismatch");
          break;
        case Opcode::BranchCmp:
          if (x.target != y.target || x.target2 != y.target2 ||
              x.bin_op != y.bin_op)
            return fail_at(i, "branch mismatch");
          if (env_b.value_of(x.src1) != env_a.value_of(y.src1) ||
              env_b.value_of(x.src2) != env_a.value_of(y.src2))
            return fail_at(i, "branch operand mismatch");
          break;
        case Opcode::Ret:
          if ((x.src1 == rtl::kNoVReg) != (y.src1 == rtl::kNoVReg))
            return fail_at(i, "return arity mismatch");
          if (x.src1 != rtl::kNoVReg &&
              env_b.value_of(x.src1) != env_a.value_of(y.src1))
            return fail_at(i, "return value mismatch");
          break;
        case Opcode::Annot: {
          if (x.annot_format != y.annot_format)
            return fail_at(i, "annotation format mismatch");
          if (x.annot_args.size() != y.annot_args.size())
            return fail_at(i, "annotation arity mismatch");
          for (std::size_t k = 0; k < x.annot_args.size(); ++k) {
            const auto& ax = x.annot_args[k];
            const auto& ay = y.annot_args[k];
            if (ax.is_slot != ay.is_slot) return fail_at(i, "annot loc kind");
            if (ax.is_slot) {
              if (ax.slot != ay.slot) return fail_at(i, "annot slot mismatch");
            } else if (env_b.value_of(ax.vreg) != env_a.value_of(ay.vreg)) {
              return fail_at(i, "annot value mismatch");
            }
          }
          break;
        }
        default:
          return fail_at(i, "unexpected impure opcode");
      }
    }
    return true;
  };

  // Preorder walk of before's dominator tree (after's CFG is checked equal
  // edge by edge as terminators are compared).
  struct Frame {
    BlockId block;
    std::size_t next_child = 0;
    std::size_t mark_b, mark_a;
  };
  std::vector<Frame> stack;
  std::vector<bool> walked(before.blocks.size(), false);
  stack.push_back({0, 0, env_b.mark(), env_a.mark()});
  walked[0] = true;
  if (!walk_block(0)) return result;
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_child < children[f.block].size()) {
      const BlockId c = children[f.block][f.next_child++];
      const std::size_t mb = env_b.mark();
      const std::size_t ma = env_a.mark();
      stack.push_back({c, 0, mb, ma});
      walked[c] = true;
      if (!walk_block(c)) return result;
    } else {
      env_b.rollback(f.mark_b);
      env_a.rollback(f.mark_a);
      stack.pop_back();
    }
  }

  // Unreachable blocks carry no proof obligations but must not be rewritten.
  for (BlockId b = 0; b < before.blocks.size(); ++b) {
    if (walked[b]) continue;
    for (std::size_t i = 0; i < before.blocks[b].instrs.size(); ++i)
      if (!rtl::identical(before.blocks[b].instrs[i],
                          after.blocks[b].instrs[i]))
        return CheckResult::fail("unreachable bb" + std::to_string(b) +
                                 " was rewritten");
  }
  return CheckResult::pass();
}

// ---------------------------------------------------------------------------
// 1b. Dead-store-elimination checker
// ---------------------------------------------------------------------------

namespace {

/// Backward transfer of one before-instruction over the live-location set;
/// mirrors the independent liveness the checker computes (NOT the pass's).
void location_transfer(const Instr& ins, const LocIndex& locs,
                       DenseBitset& live) {
  switch (ins.op) {
    case Opcode::Ret:
      live.clear();
      for (const auto& [sym, indices] : locs.by_sym)
        for (std::size_t l : indices) live.set(l);
      break;
    case Opcode::LoadStack:
    case Opcode::LoadGlobal:
      live.set(locs.loc_of(ins));
      break;
    case Opcode::LoadGlobalIdx: {
      auto it = locs.by_sym.find(ins.sym);
      if (it != locs.by_sym.end())
        for (std::size_t l : it->second) live.set(l);
      break;
    }
    case Opcode::Annot:
      for (const auto& a : ins.annot_args)
        if (a.is_slot) live.set(a.slot);
      break;
    case Opcode::StoreStack:
    case Opcode::StoreGlobal:
      live.reset(locs.loc_of(ins));
      break;
    default:
      break;  // StoreGlobalIdx: a may-write kills nothing
  }
}

}  // namespace

CheckResult check_dead_store_elimination(const rtl::Function& before,
                                         const rtl::Function& after) {
  if (before.blocks.size() != after.blocks.size())
    return CheckResult::fail("block count changed");

  const LocIndex locs(before);
  const std::size_t nlocs = locs.nlocs == 0 ? 1 : locs.nlocs;

  // Location liveness on `before` (independent of the pass).
  std::vector<DenseBitset> live_in(before.blocks.size(), DenseBitset(nlocs));
  std::vector<DenseBitset> live_out(before.blocks.size(), DenseBitset(nlocs));
  const std::vector<BlockId> rpo = rtl::reverse_postorder(before);
  bool changed = true;
  DenseBitset live(nlocs);
  while (changed) {
    changed = false;
    for (std::size_t i = rpo.size(); i-- > 0;) {
      const BlockId b = rpo[i];
      for (BlockId s : before.blocks[b].successors())
        live_out[b].union_with(live_in[s]);
      live = live_out[b];
      const auto& instrs = before.blocks[b].instrs;
      for (std::size_t j = instrs.size(); j-- > 0;)
        location_transfer(instrs[j], locs, live);
      if (live != live_in[b]) {
        live_in[b] = live;
        changed = true;
      }
    }
  }

  std::vector<bool> reachable(before.blocks.size(), false);
  for (BlockId b : rpo) reachable[b] = true;

  for (BlockId b = 0; b < before.blocks.size(); ++b) {
    const auto& ib = before.blocks[b].instrs;
    const auto& ia = after.blocks[b].instrs;
    auto fail_at = [&](std::size_t i, const std::string& what) {
      return CheckResult::fail("bb" + std::to_string(b) + " instr " +
                               std::to_string(i) + ": " + what);
    };

    if (!reachable[b]) {
      // No liveness facts here; require verbatim preservation.
      if (ib.size() != ia.size())
        return CheckResult::fail("unreachable bb" + std::to_string(b) +
                                 " was rewritten");
      for (std::size_t i = 0; i < ib.size(); ++i)
        if (!rtl::identical(ib[i], ia[i]))
          return CheckResult::fail("unreachable bb" + std::to_string(b) +
                                   " was rewritten");
      continue;
    }

    // Backward alignment: matched instructions must be identical; anything
    // the after side dropped must be a store whose location is dead below
    // the removal point.
    live = live_out[b];
    std::size_t j = ia.size();
    for (std::size_t i = ib.size(); i-- > 0;) {
      const Instr& x = ib[i];
      if (j > 0 && rtl::identical(x, ia[j - 1])) {
        --j;
        location_transfer(x, locs, live);
        continue;
      }
      if (x.op != Opcode::StoreStack && x.op != Opcode::StoreGlobal)
        return fail_at(i, "removed instruction is not a store");
      if (live.test(locs.loc_of(x)))
        return fail_at(i, "removed store to a live location");
      location_transfer(x, locs, live);
    }
    if (j != 0)
      return CheckResult::fail("bb" + std::to_string(b) +
                               ": unmatched added instructions");
  }
  return CheckResult::pass();
}

// ---------------------------------------------------------------------------
// 2. Randomized differential checking
// ---------------------------------------------------------------------------

namespace {

Value random_value(Rng& rng, rtl::RegClass cls) {
  if (cls == rtl::RegClass::I32) {
    switch (rng.next_below(8)) {
      case 0: return Value::of_i32(0);
      case 1: return Value::of_i32(1);
      case 2: return Value::of_i32(-1);
      case 3: return Value::of_i32(std::numeric_limits<std::int32_t>::min());
      case 4: return Value::of_i32(std::numeric_limits<std::int32_t>::max());
      default:
        return Value::of_i32(
            static_cast<std::int32_t>(rng.next_range(-100000, 100000)));
    }
  }
  switch (rng.next_below(10)) {
    case 0: return Value::of_f64(0.0);
    case 1: return Value::of_f64(-0.0);
    case 2: return Value::of_f64(1.0);
    case 3: return Value::of_f64(std::numeric_limits<double>::infinity());
    case 4: return Value::of_f64(std::numeric_limits<double>::quiet_NaN());
    case 5: return Value::of_f64(1e-12);
    default: return Value::of_f64(rng.next_double(-1e4, 1e4));
  }
}

/// Rewrites every cell of every global in both executors. `ids` holds each
/// global's SymbolId (both executors intern the program's globals alike).
void randomize_globals(Rng& rng, const minic::Program& program,
                       const std::vector<SymbolId>& ids, rtl::Executor* a,
                       rtl::Executor* b) {
  for (std::size_t k = 0; k < program.globals.size(); ++k) {
    const auto& g = program.globals[k];
    for (std::size_t i = 0; i < g.count; ++i) {
      // Keep array globals (ring buffers, tables) at moderate magnitudes and
      // indices-like globals small and non-negative, so that generated code
      // with index arithmetic stays in bounds.
      Value v;
      if (g.type == minic::Type::I32) {
        v = Value::of_i32(static_cast<std::int32_t>(rng.next_below(2)));
      } else {
        v = Value::of_f64(rng.next_double(-50.0, 50.0));
      }
      a->write_cell(ids[k], i, v);
      b->write_cell(ids[k], i, v);
    }
  }
}

std::string describe(const Value& v) { return v.to_string(); }

}  // namespace

CheckResult differential_check(const minic::Program& program,
                               const rtl::Function& before,
                               const rtl::Function& after, int n_tests,
                               std::uint64_t seed,
                               bool normalize_loop_bounds) {
  if (before.params.size() != after.params.size())
    return CheckResult::fail("parameter list changed");
  const auto norm = [normalize_loop_bounds](const std::string& format) {
    if (normalize_loop_bounds && ssa::detail::parse_loop_bound(format) >= 0)
      return std::string("loop");
    return format;
  };

  // One executor pair serves every test: each test rewrites every global
  // cell first, and call() resets the step count and annotation trace.
  rtl::Executor exec_b(program);
  rtl::Executor exec_a(program);
  std::vector<SymbolId> ids;
  ids.reserve(program.globals.size());
  for (const auto& g : program.globals)
    ids.push_back(exec_b.global_id(g.name));

  Rng rng(seed);
  for (int t = 0; t < n_tests; ++t) {
    randomize_globals(rng, program, ids, &exec_b, &exec_a);

    std::vector<Value> args;
    for (const auto& p : before.params) args.push_back(random_value(rng, p.cls));

    bool threw_b = false;
    bool threw_a = false;
    Value rb = Value::of_i32(0);
    Value ra = Value::of_i32(0);
    try {
      rb = exec_b.call(before, args);
    } catch (const minic::EvalError&) {
      threw_b = true;
    }
    try {
      ra = exec_a.call(after, args);
    } catch (const minic::EvalError&) {
      threw_a = true;
    }
    if (threw_b != threw_a)
      return CheckResult::fail("trap behaviour diverged on test " +
                               std::to_string(t));
    if (threw_b) continue;

    if (!(rb == ra))
      return CheckResult::fail("result diverged on test " + std::to_string(t) +
                               ": " + describe(rb) + " vs " + describe(ra));
    for (std::size_t k = 0; k < program.globals.size(); ++k) {
      const auto& g = program.globals[k];
      for (std::size_t i = 0; i < g.count; ++i) {
        const Value vb = exec_b.read_cell(ids[k], i);
        const Value va = exec_a.read_cell(ids[k], i);
        if (!(vb == va))
          return CheckResult::fail("global " + g.name + "[" +
                                   std::to_string(i) + "] diverged on test " +
                                   std::to_string(t) + ": " + describe(vb) +
                                   " vs " + describe(va));
      }
    }
    // Annotation traces (pro-forma effects) must also be preserved.
    const auto& ann_b = exec_b.annotations();
    const auto& ann_a = exec_a.annotations();
    if (ann_b.size() != ann_a.size())
      return CheckResult::fail("annotation trace length diverged");
    for (std::size_t i = 0; i < ann_b.size(); ++i) {
      if (norm(ann_b[i].format) != norm(ann_a[i].format) ||
          ann_b[i].values.size() != ann_a[i].values.size())
        return CheckResult::fail("annotation trace diverged");
      for (std::size_t k = 0; k < ann_b[i].values.size(); ++k)
        if (!(ann_b[i].values[k] == ann_a[i].values[k]))
          return CheckResult::fail("annotation operand diverged");
    }
  }
  return CheckResult::pass();
}

// ---------------------------------------------------------------------------
// 3. End-to-end machine cross-check
// ---------------------------------------------------------------------------

CheckResult cross_check_machine(const minic::Program& program,
                                const driver::Compiled& compiled,
                                const std::string& fn_name, int n_tests,
                                std::uint64_t seed) {
  const minic::Function* fn = program.find_function(fn_name);
  if (fn == nullptr) return CheckResult::fail("unknown function " + fn_name);
  const minic::Type ret_type =
      fn->has_return ? fn->return_type : minic::Type::I32;

  Rng rng(seed);
  minic::Interpreter interp(program);
  machine::Machine m(compiled.image);

  for (int t = 0; t < n_tests; ++t) {
    std::vector<Value> args;
    for (const auto& p : fn->params) {
      args.push_back(random_value(
          rng, p.type == minic::Type::I32 ? rtl::RegClass::I32
                                          : rtl::RegClass::F64));
    }
    bool threw_i = false;
    bool threw_m = false;
    Value ri = Value::of_i32(0);
    Value rm = Value::of_i32(0);
    try {
      ri = interp.call(fn_name, args);
    } catch (const minic::EvalError&) {
      threw_i = true;
    }
    try {
      rm = m.call(fn_name, args, ret_type);
    } catch (const machine::MachineError&) {
      threw_m = true;
    }
    if (threw_i != threw_m)
      return CheckResult::fail(fn_name + ": trap behaviour diverged");
    if (threw_i) {
      // State after a trap is unspecified; restart both sides.
      interp.reset_globals();
      m.reset();
      continue;
    }
    if (fn->has_return && !(ri == rm))
      return CheckResult::fail(fn_name + ": result diverged on call " +
                               std::to_string(t) + ": " + describe(ri) +
                               " vs " + describe(rm));
    for (const auto& g : program.globals) {
      for (std::size_t i = 0; i < g.count; ++i) {
        const Value vi = interp.read_global(g.name, i);
        const Value vm = m.read_global(g.name, i, g.type);
        if (!(vi == vm))
          return CheckResult::fail(fn_name + ": global " + g.name +
                                   " diverged on call " + std::to_string(t));
      }
    }
  }
  return CheckResult::pass();
}

// ---------------------------------------------------------------------------
// Validated compilation
// ---------------------------------------------------------------------------

driver::Compiled validated_compile(const minic::Program& program,
                                   driver::Config config, int n_tests,
                                   std::uint64_t seed,
                                   driver::ValidateLevel level,
                                   driver::CompileOptions base) {
  if (level == driver::ValidateLevel::Off)
    return driver::compile_program(program, config, std::move(base));

  const bool full = level == driver::ValidateLevel::Full;
  const pass::StepHook user_hook = std::move(base.hook);
  base.hook = [&program, n_tests, seed, full,
               user_hook](const pass::StepTrace& t) -> int {
    int checks = user_hook ? user_hook(t) : 0;
    const std::string& fn_name = t.state->name();
    auto require = [&](const CheckResult& r) {
      if (!r.ok) throw ValidationError(t.pass, fn_name + ": " + r.message);
      ++checks;
    };

    if (t.level == pass::Level::Rtl) {
      if (t.pass == "lower") return checks;  // nothing to compare yet
      check(t.rtl_before != nullptr, "validator hook without RTL snapshot");
      const rtl::Function& before = *t.rtl_before;
      const rtl::Function& after = t.state->rtl;
      if (t.pass == "cse" || t.pass == "forward")
        require(check_structure_preserving(before, after));
      if (t.pass == "deadstore")
        require(check_dead_store_elimination(before, after));
      if (t.pass == "regalloc" && full)
        require(check_register_allocation(before, after, t.state->alloc,
                                          t.state->k_int, t.state->k_float));
      // SSA bracket (validate.hpp checkers 8-10). Every step inside the
      // bracket must leave well-formed SSA; the CFG-preserving rewrites are
      // accepted symbolically; unrolling must present a verified
      // annotation-rewrite certificate; out-of-SSA must eliminate all phis.
      const bool ssa_step = t.pass.rfind("ssa-", 0) == 0;
      if (ssa_step && t.pass != "ssa-out")
        require(check_ssa_wellformed(after));
      if (t.pass == "ssa-gvn" || t.pass == "ssa-licm")
        require(check_ssa_equivalence(before, after));
      if (t.pass == "ssa-unroll")
        require(check_unroll_certificate(before, after,
                                         t.state->unroll_cert));
      if (t.pass == "ssa-out")
        require(ssa::has_phis(after)
                    ? CheckResult::fail("phis survived out-of-SSA lowering")
                    : CheckResult::pass());
      // Every RTL-level rewrite — spill code included — is additionally
      // checked by bounded randomized execution. For ssa-unroll the
      // "loop <= N" formats are normalized (the bound rewrite itself is what
      // the certificate checker just verified); positions, counts and
      // operand values stay bit-exact.
      require(differential_check(program, before, after, n_tests, seed,
                                 /*normalize_loop_bounds=*/
                                 t.pass == "ssa-unroll"));
      return checks;
    }

    // Machine level. Emission itself is covered by the end-to-end machine
    // cross-check below; the per-step machine checkers run at Full only.
    if (!full || t.pass == "emit") return checks;
    check(t.machine_before != nullptr,
          "validator hook without machine snapshot");
    if (t.pass == "selfmove" || t.pass == "peephole")
      require(check_machine_equivalence(*t.machine_before, *t.state->target,
                                        t.state->machine));
    if (t.pass == "schedule")
      require(check_schedule(*t.machine_before, t.state->machine));
    return checks;
  };

  driver::Compiled compiled =
      driver::compile_program(program, config, std::move(base));

  for (const auto& fn : program.functions) {
    const CheckResult end_to_end =
        cross_check_machine(program, compiled, fn.name, n_tests, seed ^ 0x9E37);
    if (!end_to_end.ok) throw ValidationError("emission", end_to_end.message);
  }
  return compiled;
}

void attach_campaign_validation(driver::FleetOptions* options) {
  const driver::ValidateLevel level = options->validate;
  if (level == driver::ValidateLevel::Off) return;
  options->compile_override = [level](const minic::Program& program,
                                      driver::Config config,
                                      const driver::CompileOptions& copts) {
    return validated_compile(program, config, /*n_tests=*/6, /*seed=*/1,
                             level, copts);
  };
}

}  // namespace vc::validate
