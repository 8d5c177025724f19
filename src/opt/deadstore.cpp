// Dead store elimination: after forwarding has rewritten reloads into moves,
// many stores write locations that are never read again. A backward
// location-liveness fixpoint (dense bitsets over the function's location
// universe) finds them:
//
//   - at Ret, every global location is live (callers observe globals) and
//     every stack slot is dead (slots are function-local, reset per call);
//   - LoadStack/LoadGlobal make their location live; a dynamically indexed
//     LoadGlobalIdx makes every element of its symbol live;
//   - annotation slot operands read their slots (the pro-forma effect emits
//     the slot's value, paper §3.4);
//   - StoreStack/StoreGlobal kill their location's liveness upward; when the
//     location is dead below the store, the store itself is removed;
//   - StoreGlobalIdx writes an unknown element: it kills nothing (not a
//     must-write to any one element) and is never removed.
//
// Removing a store can only drop a vreg use, so DCE runs after this pass in
// the pipeline to collect the newly dead producers.
#include <algorithm>
#include <map>
#include <vector>

#include "opt/opt.hpp"
#include "rtl/analysis.hpp"
#include "support/bitset.hpp"

namespace vc::opt {
namespace {

using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::Opcode;

/// Location indexing: slot ids first, then one index per distinct
/// (symbol, element) address; by_sym groups the global indices.
struct StoreLocs {
  std::size_t nslots = 0;
  std::map<std::pair<std::string, std::int32_t>, std::size_t> global_index;
  std::map<std::string, std::vector<std::size_t>> by_sym;
  std::size_t nlocs = 0;

  explicit StoreLocs(const Function& fn) : nslots(fn.slots.size()) {
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

  [[nodiscard]] std::size_t global_loc(const std::string& sym,
                                       std::int32_t elem) const {
    return global_index.at({sym, elem});
  }
};

/// Backward transfer of one instruction over the live-location set.
/// Returns true if `ins` is a store whose location is dead below it.
bool transfer(const Instr& ins, const StoreLocs& locs, DenseBitset& live) {
  switch (ins.op) {
    case Opcode::Ret:
      // Nothing in this function executes after Ret: globals become
      // observable, slots die with the frame.
      live.clear();
      for (const auto& [sym, indices] : locs.by_sym)
        for (std::size_t loc : indices) live.set(loc);
      return false;
    case Opcode::LoadStack:
      live.set(ins.slot);
      return false;
    case Opcode::LoadGlobal:
      live.set(locs.global_loc(ins.sym, ins.elem));
      return false;
    case Opcode::LoadGlobalIdx: {
      auto it = locs.by_sym.find(ins.sym);
      if (it != locs.by_sym.end())
        for (std::size_t loc : it->second) live.set(loc);
      return false;
    }
    case Opcode::Annot:
      for (const auto& a : ins.annot_args)
        if (a.is_slot) live.set(a.slot);
      return false;
    case Opcode::StoreStack: {
      const bool dead = !live.test(ins.slot);
      live.reset(ins.slot);
      return dead;
    }
    case Opcode::StoreGlobal: {
      const std::size_t loc = locs.global_loc(ins.sym, ins.elem);
      const bool dead = !live.test(loc);
      live.reset(loc);
      return dead;
    }
    default:
      return false;  // StoreGlobalIdx included: may-write kills nothing
  }
}

}  // namespace

bool dead_store_elimination(rtl::Function& fn) {
  const StoreLocs locs(fn);
  if (locs.nlocs == 0) return false;
  thread_local std::vector<BlockId> rpo;
  rtl::reverse_postorder(fn, &rpo);

  std::vector<DenseBitset> live_in(fn.blocks.size(), DenseBitset(locs.nlocs));
  std::vector<DenseBitset> live_out(fn.blocks.size(), DenseBitset(locs.nlocs));

  bool changed = true;
  DenseBitset live(locs.nlocs);
  while (changed) {
    changed = false;
    for (std::size_t i = rpo.size(); i-- > 0;) {  // postorder: succs first
      const BlockId b = rpo[i];
      for (BlockId s : fn.blocks[b].successors())
        live_out[b].union_with(live_in[s]);
      live = live_out[b];
      const auto& instrs = fn.blocks[b].instrs;
      for (std::size_t j = instrs.size(); j-- > 0;)
        transfer(instrs[j], locs, live);
      if (live != live_in[b]) {
        live_in[b] = live;
        changed = true;
      }
    }
  }

  // Removal walk over reachable blocks (unreachable ones are left untouched
  // so the validator can hold them to literal equality).
  bool removed = false;
  for (BlockId b : rpo) {
    live = live_out[b];
    auto& instrs = fn.blocks[b].instrs;
    std::vector<Instr> kept;
    kept.reserve(instrs.size());
    for (std::size_t j = instrs.size(); j-- > 0;) {
      if (transfer(instrs[j], locs, live)) {
        removed = true;
        continue;  // dead store: drop
      }
      kept.push_back(std::move(instrs[j]));
    }
    std::reverse(kept.begin(), kept.end());
    instrs = std::move(kept);
  }
  return removed;
}

}  // namespace vc::opt
