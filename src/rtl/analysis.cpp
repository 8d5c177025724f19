#include "rtl/analysis.hpp"

#include <algorithm>
#include <functional>

namespace vc::rtl {
namespace {

/// Rewinds a pooled vector<DenseBitset> to `count` bitsets of `universe`
/// bits, all clear, reusing both the vector slots and each bitset's word
/// storage.
void reshape_bitsets(std::vector<DenseBitset>* sets, std::size_t count,
                     std::size_t universe) {
  sets->resize(count);
  for (DenseBitset& bs : *sets) {
    bs.clear();           // zero retained words first,
    bs.resize(universe);  // then fit the universe (new words start clear)
  }
}

}  // namespace

void predecessors(const Function& fn, CompileWorkspace& ws,
                  std::vector<std::vector<BlockId>>* out) {
  (void)ws;  // result lists are caller-owned; nothing internal to pool
  out->resize(fn.blocks.size());
  for (auto& lst : *out) lst.clear();
  for (BlockId b = 0; b < fn.blocks.size(); ++b) {
    for (BlockId s : fn.blocks[b].successors()) (*out)[s].push_back(b);
  }
}

std::vector<std::vector<BlockId>> predecessors(const Function& fn) {
  std::vector<std::vector<BlockId>> preds;
  predecessors(fn, this_thread_workspace(), &preds);
  return preds;
}

void reverse_postorder(const Function& fn, CompileWorkspace& ws,
                       std::vector<BlockId>* out) {
  auto visited = ws.u8_pool.lease();
  visited->assign(fn.blocks.size(), 0);
  out->clear();
  out->reserve(fn.blocks.size());
  // Iterative DFS to avoid deep recursion on long block chains.
  auto stack = ws.pair_pool.lease();  // (block, next successor index)
  stack->emplace_back(0, 0);
  (*visited)[0] = 1;
  while (!stack->empty()) {
    auto& [block, next_succ] = stack->back();
    const Successors succs = fn.blocks[block].successors();
    if (next_succ < succs.size()) {
      const BlockId s = succs[next_succ++];
      if (!(*visited)[s]) {
        (*visited)[s] = 1;
        stack->emplace_back(s, 0);
      }
    } else {
      out->push_back(block);
      stack->pop_back();
    }
  }
  std::reverse(out->begin(), out->end());
}

std::vector<BlockId> reverse_postorder(const Function& fn) {
  std::vector<BlockId> rpo;
  reverse_postorder(fn, this_thread_workspace(), &rpo);
  return rpo;
}

void compute_liveness(const Function& fn, CompileWorkspace& ws,
                      Liveness* out) {
  const std::size_t nblocks = fn.blocks.size();
  const std::size_t nvregs = fn.vregs.size();
  reshape_bitsets(&out->live_in, nblocks, nvregs);
  reshape_bitsets(&out->live_out, nblocks, nvregs);

  // Per-block gen (upward-exposed uses) and kill (defs).
  auto gen = ws.bitset_vec_pool.lease();
  auto kill = ws.bitset_vec_pool.lease();
  reshape_bitsets(&*gen, nblocks, nvregs);
  reshape_bitsets(&*kill, nblocks, nvregs);
  for (BlockId b = 0; b < nblocks; ++b) {
    DenseBitset& g = (*gen)[b];
    DenseBitset& k = (*kill)[b];
    for (const Instr& ins : fn.blocks[b].instrs) {
      for_each_use(ins, [&](VReg u) {
        if (!k.test(u)) g.set(u);
      });
      if (auto d = ins.def()) k.set(*d);
    }
  }

  auto preds_lease = ws.u32_lists_pool.lease();
  predecessors(fn, ws, &*preds_lease);
  const auto& preds = *preds_lease;

  // Backward worklist fixpoint. The list pops from the back, so it is
  // seeded with the unreachable blocks first and then the reachable ones in
  // reverse postorder: blocks are visited in postorder, successors before
  // predecessors, and most settle on the first visit. A block re-enters the
  // list only when a successor's live-in grows. Unreachable blocks still get
  // live sets (some callers iterate all blocks), after the rest settled.
  auto worklist = ws.u32_pool.lease();
  auto queued = ws.u8_pool.lease();
  queued->assign(nblocks, 0);
  {
    auto rpo = ws.u32_pool.lease();
    reverse_postorder(fn, ws, &*rpo);
    for (BlockId b : *rpo) (*queued)[b] = 1;
    for (BlockId b = 0; b < nblocks; ++b)
      if (!(*queued)[b]) {
        worklist->push_back(b);
        (*queued)[b] = 1;
      }
    worklist->insert(worklist->end(), rpo->begin(), rpo->end());
  }

  auto in_lease = ws.bitset_pool.lease();
  DenseBitset& in = *in_lease;
  in.clear();
  in.resize(nvregs);
  while (!worklist->empty()) {
    const BlockId b = worklist->back();
    worklist->pop_back();
    (*queued)[b] = 0;

    DenseBitset& bout = out->live_out[b];
    for (BlockId s : fn.blocks[b].successors())
      bout.union_with(out->live_in[s]);

    in = bout;
    in.subtract((*kill)[b]);
    in.union_with((*gen)[b]);
    if (in != out->live_in[b]) {
      out->live_in[b] = in;
      for (BlockId p : preds[b])
        if (!(*queued)[p]) {
          (*queued)[p] = 1;
          worklist->push_back(p);
        }
    }
  }
}

Liveness compute_liveness(const Function& fn) {
  Liveness lv;
  compute_liveness(fn, this_thread_workspace(), &lv);
  return lv;
}

void immediate_dominators(const Function& fn, CompileWorkspace& ws,
                          std::vector<BlockId>* out) {
  // Cooper-Harvey-Kennedy iterative algorithm over reverse postorder.
  auto rpo_lease = ws.u32_pool.lease();
  reverse_postorder(fn, ws, &*rpo_lease);
  const auto& rpo = *rpo_lease;
  auto rpo_index = ws.u32_pool.lease();
  constexpr std::uint32_t kNoIndex = 0xFFFFFFFF;
  rpo_index->assign(fn.blocks.size(), kNoIndex);
  for (std::size_t i = 0; i < rpo.size(); ++i)
    (*rpo_index)[rpo[i]] = static_cast<std::uint32_t>(i);

  auto preds_lease = ws.u32_lists_pool.lease();
  predecessors(fn, ws, &*preds_lease);
  const auto& preds = *preds_lease;
  std::vector<BlockId>& idom = *out;
  idom.assign(fn.blocks.size(), kNoBlock);
  idom[0] = 0;

  auto intersect = [&](BlockId a, BlockId b) {
    while (a != b) {
      while ((*rpo_index)[a] > (*rpo_index)[b]) a = idom[a];
      while ((*rpo_index)[b] > (*rpo_index)[a]) b = idom[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId b : rpo) {
      if (b == 0) continue;
      BlockId new_idom = kNoBlock;
      for (BlockId p : preds[b]) {
        if ((*rpo_index)[p] == kNoIndex || idom[p] == kNoBlock) continue;
        new_idom = new_idom == kNoBlock ? p : intersect(p, new_idom);
      }
      if (new_idom != kNoBlock && idom[b] != new_idom) {
        idom[b] = new_idom;
        changed = true;
      }
    }
  }
}

std::vector<BlockId> immediate_dominators(const Function& fn) {
  std::vector<BlockId> idom;
  immediate_dominators(fn, this_thread_workspace(), &idom);
  return idom;
}

bool dominates(const std::vector<BlockId>& idom, BlockId a, BlockId b) {
  if (idom[b] == kNoBlock) return false;
  while (true) {
    if (a == b) return true;
    if (b == 0) return false;
    b = idom[b];
  }
}

std::vector<std::vector<BlockId>> dominator_children(
    const std::vector<BlockId>& idom) {
  std::vector<std::vector<BlockId>> children(idom.size());
  for (BlockId b = 0; b < idom.size(); ++b) {
    if (b == 0 || idom[b] == kNoBlock) continue;
    children[idom[b]].push_back(b);
  }
  // Block ids ascend as idom runs over them, so each list is already sorted;
  // the preorder walk over these lists is deterministic.
  return children;
}

void remove_unreachable_blocks(Function& fn) {
  CompileWorkspace& ws = this_thread_workspace();
  auto reachable = ws.u8_pool.lease();
  reachable->assign(fn.blocks.size(), 0);
  auto worklist = ws.u32_pool.lease();
  worklist->push_back(0);
  (*reachable)[0] = 1;
  while (!worklist->empty()) {
    const BlockId b = worklist->back();
    worklist->pop_back();
    for (BlockId s : fn.blocks[b].successors()) {
      if (!(*reachable)[s]) {
        (*reachable)[s] = 1;
        worklist->push_back(s);
      }
    }
  }

  auto remap = ws.u32_pool.lease();
  remap->assign(fn.blocks.size(), kNoBlock);
  std::vector<BasicBlock> kept;
  for (BlockId b = 0; b < fn.blocks.size(); ++b) {
    if ((*reachable)[b]) {
      (*remap)[b] = static_cast<BlockId>(kept.size());
      kept.push_back(std::move(fn.blocks[b]));
    }
  }
  for (auto& bb : kept) {
    Instr& t = bb.instrs.back();
    if (t.op == Opcode::Jump || t.op == Opcode::Branch ||
        t.op == Opcode::BranchCmp) {
      t.target = (*remap)[t.target];
      if (t.op != Opcode::Jump) t.target2 = (*remap)[t.target2];
    }
  }
  fn.blocks = std::move(kept);
  fn.validate();
}

}  // namespace vc::rtl
