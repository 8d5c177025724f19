// Dataflow analyses over RTL functions: predecessors, reverse-postorder,
// liveness, dominators, and CFG cleanup. Used by the optimizer, the register
// allocator, and the translation validators.
//
// Each analysis has two forms: a value-returning convenience and an
// out-parameter form that writes into a caller-owned result, so hot callers
// can keep the result buffers warm across calls. Internal tables (gen/kill
// bitsets, worklists, DFS stacks) are function-local thread_local scratch:
// no analysis re-enters itself, so one use is live per thread at a time.
// Both forms compute identical results — the fixpoints are deterministic
// regardless of where scratch memory lives.
#pragma once

#include <vector>

#include "rtl/rtl.hpp"
#include "support/bitset.hpp"

namespace vc::rtl {

/// Predecessor lists for every block.
std::vector<std::vector<BlockId>> predecessors(const Function& fn);
void predecessors(const Function& fn, std::vector<std::vector<BlockId>>* out);

/// Blocks reachable from entry, in reverse postorder.
std::vector<BlockId> reverse_postorder(const Function& fn);
void reverse_postorder(const Function& fn, std::vector<BlockId>* out);

/// Per-block live-in / live-out virtual register sets, as dense bitsets over
/// the vreg universe (index = vreg number, size = fn.vregs.size()).
struct Liveness {
  std::vector<DenseBitset> live_in;
  std::vector<DenseBitset> live_out;
};

/// Backward worklist fixpoint over DenseBitsets: each block's transfer is a
/// handful of word ops and a block is revisited only when a successor's
/// live-in actually grows.
Liveness compute_liveness(const Function& fn);
void compute_liveness(const Function& fn, Liveness* out);

/// Immediate dominator of every reachable block (entry's idom is itself);
/// unreachable blocks get kNoBlock.
constexpr BlockId kNoBlock = 0xFFFFFFFF;
std::vector<BlockId> immediate_dominators(const Function& fn);
void immediate_dominators(const Function& fn, std::vector<BlockId>* out);

/// True if `a` dominates `b` given an idom array.
bool dominates(const std::vector<BlockId>& idom, BlockId a, BlockId b);

/// Children lists of the dominator tree implied by `idom` (entry is the root;
/// unreachable blocks have no parent and no children). children[b] is sorted
/// ascending, so a preorder walk from the entry is deterministic.
std::vector<std::vector<BlockId>> dominator_children(
    const std::vector<BlockId>& idom);

/// Removes blocks unreachable from entry, remapping branch targets.
/// Applied by every compiler configuration after lowering.
void remove_unreachable_blocks(Function& fn);

}  // namespace vc::rtl
