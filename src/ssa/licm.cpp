// Loop-invariant code motion over SSA: pure, non-trapping instructions whose
// operands are defined outside the loop move to the loop preheader. The CFG
// is unchanged, so check_ssa_equivalence applies directly.
#include <algorithm>

#include "ssa/internal.hpp"
#include "ssa/ssa.hpp"

namespace vc::ssa {

using minic::BinOp;
using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::kNoBlock;
using rtl::Opcode;
using rtl::VReg;

namespace {

/// Hoistable: pure and cannot fault when executed on the (possibly never
/// taken) loop-entry path. Integer division/remainder trap on zero, so they
/// stay put; IEEE float ops never trap.
bool hoistable(const Instr& ins) {
  if (ins.op == Opcode::Phi) return false;
  if (!ins.is_pure()) return false;
  if (ins.op == Opcode::Bin &&
      (ins.bin_op == BinOp::IDiv || ins.bin_op == BinOp::IRem))
    return false;
  return true;
}

}  // namespace

bool loop_invariant_code_motion(Function& fn) {
  if (!has_phis(fn)) return false;  // SSA passes only run inside the bracket

  const auto preds = rtl::predecessors(fn);
  const auto idom = rtl::immediate_dominators(fn);
  const LoopForest forest = find_loops(fn, idom, preds);
  if (forest.loops.empty()) return false;

  // def_block[v]: block defining v, or kNoBlock. Maintained incrementally as
  // instructions move.
  std::vector<BlockId> def_block(fn.vregs.size(), kNoBlock);
  for (BlockId b = 0; b < fn.blocks.size(); ++b)
    for (const Instr& ins : fn.blocks[b].instrs)
      if (auto d = ins.def()) def_block[*d] = b;

  // Innermost loops first: a value hoisted to an inner preheader can then be
  // hoisted again by the enclosing loop's pass.
  std::vector<int> order(forest.loops.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (forest.loops[a].depth != forest.loops[b].depth)
      return forest.loops[a].depth > forest.loops[b].depth;
    return a < b;
  });

  bool changed = false;
  for (int li : order) {
    const Loop& loop = forest.loops[li];

    // Preheader: the unique non-latch predecessor of the header, itself with
    // a single successor (build_ssa canonicalizes this shape).
    BlockId pre = kNoBlock;
    bool ok = true;
    for (BlockId p : preds[loop.header]) {
      if (std::binary_search(loop.latches.begin(), loop.latches.end(), p))
        continue;
      if (pre != kNoBlock && pre != p) { ok = false; break; }
      pre = p;
    }
    if (!ok || pre == kNoBlock || loop.contains(pre) ||
        fn.blocks[pre].successors().size() != 1)
      continue;

    const auto invariant = [&](const Instr& ins) {
      return !rtl::any_use(ins, [&](VReg u) {
        const BlockId d = def_block[u];
        return d != kNoBlock && loop.contains(d);
      });
    };

    // Fixpoint: hoisting one instruction can make its dependents invariant.
    bool local = true;
    while (local) {
      local = false;
      for (BlockId b : loop.blocks) {
        auto& instrs = fn.blocks[b].instrs;
        std::vector<Instr> kept;
        kept.reserve(instrs.size());
        for (Instr& ins : instrs) {
          if (hoistable(ins) && invariant(ins)) {
            if (auto d = ins.def()) def_block[*d] = pre;
            auto& pi = fn.blocks[pre].instrs;
            pi.insert(pi.end() - 1, std::move(ins));
            local = true;
            changed = true;
          } else {
            kept.push_back(std::move(ins));
          }
        }
        instrs = std::move(kept);
      }
    }
  }
  return changed;
}

}  // namespace vc::ssa
