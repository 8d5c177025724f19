// Store-to-load forwarding over stack slots and statically addressed
// globals: the pass that attacks the paper's central observation — pattern
// code is dominated by redundant stack/global memory traffic that CompCert's
// load-aware CSE removes (§2.2, §3.2).
//
// A forward "must-available" dataflow computes, at every point, which vreg is
// known to hold the current value of each memory location. Facts meet by
// intersection at joins, so a fact survives only when every incoming path
// agrees — in particular a store on a non-dominating side path correctly
// kills forwarding (plain dominator scoping would miss that). A load whose
// location has a known holder of the same register class is rewritten to a
// Mov; the dead-store pass then sweeps stores whose slot is never reloaded.
//
// Alias model (exact, because RTL addresses are structured):
//   - stack slots never alias globals or each other (distinct slot ids);
//   - global elements alias iff same (symbol, element);
//   - a dynamically indexed StoreGlobalIdx may write any element of its
//     symbol: it kills every fact for that symbol (and only that symbol —
//     out-of-range indices trap rather than spill into neighbours);
//   - LoadGlobalIdx only reads: it kills nothing but its own dst facts.
//
// This runs pre-regalloc only. After spill rewriting, forwarding a reload to
// the stored vreg would extend a spilled value's live range across a
// physical-register reuse, which is unsound.
#include <map>
#include <vector>

#include "opt/opt.hpp"
#include "rtl/analysis.hpp"

namespace vc::opt {
namespace {

using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::Opcode;
using rtl::VReg;

/// The location universe of one function: slot ids first, then one index per
/// distinct (symbol, element) constant address appearing in the code.
struct LocUniverse {
  std::size_t nslots = 0;
  std::vector<std::pair<std::string, std::int32_t>> globals;
  std::map<std::pair<std::string, std::int32_t>, std::size_t> global_index;
  std::map<std::string, std::vector<std::size_t>> by_sym;

  explicit LocUniverse(const Function& fn) : nslots(fn.slots.size()) {
    for (const auto& bb : fn.blocks)
      for (const Instr& ins : bb.instrs)
        if (ins.op == Opcode::LoadGlobal || ins.op == Opcode::StoreGlobal)
          add_global(ins.sym, ins.elem);
  }

  void add_global(const std::string& sym, std::int32_t elem) {
    const auto key = std::make_pair(sym, elem);
    if (global_index.count(key)) return;
    const std::size_t idx = nslots + globals.size();
    global_index.emplace(key, idx);
    globals.push_back(key);
    by_sym[sym].push_back(idx);
  }

  [[nodiscard]] std::size_t size() const { return nslots + globals.size(); }
  [[nodiscard]] std::size_t slot_loc(rtl::Slot s) const { return s; }
  [[nodiscard]] std::size_t global_loc(const std::string& sym,
                                       std::int32_t elem) const {
    return global_index.at({sym, elem});
  }
};

/// Per-point facts: loc -> vreg known to hold the location's current value
/// (kNoVReg = unknown). `top` marks the optimistic initial state of blocks
/// not yet reached by the fixpoint.
struct AvailState {
  bool top = true;
  std::vector<VReg> fact;
};

class Forwarder {
 public:
  explicit Forwarder(Function& fn) : fn_(fn), locs_(fn) {}

  bool run() {
    thread_local std::vector<BlockId> rpo;
    rtl::reverse_postorder(fn_, &rpo);
    out_.assign(fn_.blocks.size(), AvailState{});

    bool changed = true;
    while (changed) {
      changed = false;
      for (BlockId b : rpo) {
        AvailState in = entry_state(b, rpo);
        if (in.top) continue;
        for (const Instr& ins : fn_.blocks[b].instrs) apply(ins, in);
        if (out_[b].top || out_[b].fact != in.fact) {
          out_[b] = std::move(in);
          changed = true;
        }
      }
    }

    // Rewrite walk: replay each block from its entry facts and turn loads
    // with a known same-class holder into moves. Transfers use the original
    // instruction, so the replayed states match the fixpoint exactly (a
    // rewritten Mov has the same effect on facts as the load it replaces).
    bool rewrote = false;
    for (BlockId b : rpo) {
      AvailState state = entry_state(b, rpo);
      if (state.top) continue;  // unreachable; never the case for rpo blocks
      for (Instr& ins : fn_.blocks[b].instrs) {
        const Instr orig = ins;
        if (ins.op == Opcode::LoadStack || ins.op == Opcode::LoadGlobal) {
          const std::size_t loc = ins.op == Opcode::LoadStack
                                      ? locs_.slot_loc(ins.slot)
                                      : locs_.global_loc(ins.sym, ins.elem);
          const VReg holder = state.fact[loc];
          if (holder != rtl::kNoVReg &&
              fn_.vregs[holder] == fn_.vregs[ins.dst]) {
            Instr mv;
            mv.op = Opcode::Mov;
            mv.dst = ins.dst;
            mv.src1 = holder;
            ins = mv;
            rewrote = true;
          }
        }
        apply(orig, state);
      }
    }
    return rewrote;
  }

 private:
  /// Meet (intersection) of predecessor exit states; entry starts empty.
  AvailState entry_state(BlockId b, const std::vector<BlockId>& rpo) {
    if (preds_.empty())
      rtl::predecessors(fn_, &preds_);
    AvailState in;
    if (b == rpo.front()) {
      in.top = false;
      in.fact.assign(locs_.size(), rtl::kNoVReg);
      return in;
    }
    for (BlockId p : preds_[b]) {
      if (out_[p].top) continue;  // unprocessed (back edge) or unreachable
      if (in.top) {
        in = out_[p];
      } else {
        for (std::size_t i = 0; i < in.fact.size(); ++i)
          if (in.fact[i] != out_[p].fact[i]) in.fact[i] = rtl::kNoVReg;
      }
    }
    return in;
  }

  void kill_holder(AvailState& s, VReg v) {
    for (VReg& f : s.fact)
      if (f == v) f = rtl::kNoVReg;
  }

  void apply(const Instr& ins, AvailState& s) {
    switch (ins.op) {
      case Opcode::StoreStack:
        s.fact[locs_.slot_loc(ins.slot)] = ins.src1;
        return;
      case Opcode::StoreGlobal:
        s.fact[locs_.global_loc(ins.sym, ins.elem)] = ins.src1;
        return;
      case Opcode::StoreGlobalIdx: {
        auto it = locs_.by_sym.find(ins.sym);
        if (it != locs_.by_sym.end())
          for (std::size_t loc : it->second) s.fact[loc] = rtl::kNoVReg;
        return;
      }
      case Opcode::LoadStack: {
        kill_holder(s, ins.dst);
        std::size_t loc = locs_.slot_loc(ins.slot);
        if (s.fact[loc] == rtl::kNoVReg) s.fact[loc] = ins.dst;
        return;
      }
      case Opcode::LoadGlobal: {
        kill_holder(s, ins.dst);
        std::size_t loc = locs_.global_loc(ins.sym, ins.elem);
        if (s.fact[loc] == rtl::kNoVReg) s.fact[loc] = ins.dst;
        return;
      }
      default:
        if (auto d = ins.def()) kill_holder(s, *d);
        return;
    }
  }

  Function& fn_;
  LocUniverse locs_;
  std::vector<std::vector<BlockId>> preds_;
  std::vector<AvailState> out_;
};

}  // namespace

bool memory_forwarding(rtl::Function& fn) {
  // Unreachable blocks are left untouched (the RPO never visits them), so
  // the validator can hold them to literal equality.
  return Forwarder(fn).run();
}

}  // namespace vc::opt
