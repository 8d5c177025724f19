#include "rtl/analysis.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

namespace vc::rtl {
namespace {

/// Rewinds a reused vector<DenseBitset> to `count` bitsets of `universe`
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

void predecessors(const Function& fn, std::vector<std::vector<BlockId>>* out) {
  out->resize(fn.blocks.size());
  for (auto& lst : *out) lst.clear();
  for (BlockId b = 0; b < fn.blocks.size(); ++b) {
    for (BlockId s : fn.blocks[b].successors()) (*out)[s].push_back(b);
  }
}

std::vector<std::vector<BlockId>> predecessors(const Function& fn) {
  std::vector<std::vector<BlockId>> preds;
  predecessors(fn, &preds);
  return preds;
}

void reverse_postorder(const Function& fn, std::vector<BlockId>* out) {
  thread_local std::vector<std::uint8_t> visited;
  // Iterative DFS to avoid deep recursion on long block chains; each frame
  // is (block, next successor index).
  thread_local std::vector<std::pair<BlockId, std::size_t>> stack;
  visited.assign(fn.blocks.size(), 0);
  out->clear();
  out->reserve(fn.blocks.size());
  stack.assign(1, {0, 0});
  visited[0] = 1;
  while (!stack.empty()) {
    auto& [block, next_succ] = stack.back();
    const Successors succs = fn.blocks[block].successors();
    if (next_succ < succs.size()) {
      const BlockId s = succs[next_succ++];
      if (!visited[s]) {
        visited[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      out->push_back(block);
      stack.pop_back();
    }
  }
  std::reverse(out->begin(), out->end());
}

std::vector<BlockId> reverse_postorder(const Function& fn) {
  std::vector<BlockId> rpo;
  reverse_postorder(fn, &rpo);
  return rpo;
}

void compute_liveness(const Function& fn, Liveness* out) {
  thread_local std::vector<DenseBitset> gen, kill;
  thread_local std::vector<std::vector<BlockId>> preds;
  thread_local std::vector<BlockId> rpo, worklist;
  thread_local std::vector<std::uint8_t> queued;
  thread_local DenseBitset in;
  const std::size_t nblocks = fn.blocks.size();
  const std::size_t nvregs = fn.vregs.size();
  reshape_bitsets(&out->live_in, nblocks, nvregs);
  reshape_bitsets(&out->live_out, nblocks, nvregs);

  // Per-block gen (upward-exposed uses) and kill (defs).
  reshape_bitsets(&gen, nblocks, nvregs);
  reshape_bitsets(&kill, nblocks, nvregs);
  for (BlockId b = 0; b < nblocks; ++b) {
    DenseBitset& g = gen[b];
    DenseBitset& k = kill[b];
    for (const Instr& ins : fn.blocks[b].instrs) {
      for_each_use(ins, [&](VReg u) {
        if (!k.test(u)) g.set(u);
      });
      if (auto d = ins.def()) k.set(*d);
    }
  }

  predecessors(fn, &preds);

  // Backward worklist fixpoint. The list pops from the back, so it is
  // seeded with the unreachable blocks first and then the reachable ones in
  // reverse postorder: blocks are visited in postorder, successors before
  // predecessors, and most settle on the first visit. A block re-enters the
  // list only when a successor's live-in grows. Unreachable blocks still get
  // live sets (some callers iterate all blocks), after the rest settled.
  queued.assign(nblocks, 0);
  reverse_postorder(fn, &rpo);
  for (BlockId b : rpo) queued[b] = 1;
  worklist.clear();
  for (BlockId b = 0; b < nblocks; ++b)
    if (!queued[b]) {
      worklist.push_back(b);
      queued[b] = 1;
    }
  worklist.insert(worklist.end(), rpo.begin(), rpo.end());

  in.clear();
  in.resize(nvregs);
  while (!worklist.empty()) {
    const BlockId b = worklist.back();
    worklist.pop_back();
    queued[b] = 0;

    DenseBitset& bout = out->live_out[b];
    for (BlockId s : fn.blocks[b].successors())
      bout.union_with(out->live_in[s]);

    in = bout;
    in.subtract(kill[b]);
    in.union_with(gen[b]);
    if (in != out->live_in[b]) {
      out->live_in[b] = in;
      for (BlockId p : preds[b])
        if (!queued[p]) {
          queued[p] = 1;
          worklist.push_back(p);
        }
    }
  }
}

Liveness compute_liveness(const Function& fn) {
  Liveness lv;
  compute_liveness(fn, &lv);
  return lv;
}

void immediate_dominators(const Function& fn, std::vector<BlockId>* out) {
  // Cooper-Harvey-Kennedy iterative algorithm over reverse postorder.
  thread_local std::vector<BlockId> rpo;
  thread_local std::vector<std::uint32_t> rpo_index;
  thread_local std::vector<std::vector<BlockId>> preds;
  reverse_postorder(fn, &rpo);
  constexpr std::uint32_t kNoIndex = 0xFFFFFFFF;
  rpo_index.assign(fn.blocks.size(), kNoIndex);
  for (std::size_t i = 0; i < rpo.size(); ++i)
    rpo_index[rpo[i]] = static_cast<std::uint32_t>(i);

  predecessors(fn, &preds);
  std::vector<BlockId>& idom = *out;
  idom.assign(fn.blocks.size(), kNoBlock);
  idom[0] = 0;

  auto intersect = [&](BlockId a, BlockId b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom[a];
      while (rpo_index[b] > rpo_index[a]) b = idom[b];
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
        if (rpo_index[p] == kNoIndex || idom[p] == kNoBlock) continue;
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
  immediate_dominators(fn, &idom);
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
  thread_local std::vector<std::uint8_t> reachable;
  thread_local std::vector<BlockId> worklist, remap;
  reachable.assign(fn.blocks.size(), 0);
  worklist.assign(1, 0);
  reachable[0] = 1;
  while (!worklist.empty()) {
    const BlockId b = worklist.back();
    worklist.pop_back();
    for (BlockId s : fn.blocks[b].successors()) {
      if (!reachable[s]) {
        reachable[s] = 1;
        worklist.push_back(s);
      }
    }
  }

  remap.assign(fn.blocks.size(), kNoBlock);
  std::vector<BasicBlock> kept;
  for (BlockId b = 0; b < fn.blocks.size(); ++b) {
    if (reachable[b]) {
      remap[b] = static_cast<BlockId>(kept.size());
      kept.push_back(std::move(fn.blocks[b]));
    }
  }
  for (auto& bb : kept) {
    Instr& t = bb.instrs.back();
    if (t.op == Opcode::Jump || t.op == Opcode::Branch ||
        t.op == Opcode::BranchCmp) {
      t.target = remap[t.target];
      if (t.op != Opcode::Jump) t.target2 = remap[t.target2];
    }
  }
  fn.blocks = std::move(kept);
  fn.validate();
}

}  // namespace vc::rtl
