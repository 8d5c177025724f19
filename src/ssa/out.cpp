// Out-of-SSA lowering: interference-guided phi-web coalescing, then
// critical-edge splitting plus per-edge parallel-copy sequentialization
// (cycle-safe: the swap/lost-copy problems are handled with a class-correct
// temporary). Coalescing matters for code quality, not just cleanliness: a
// loop-carried phi whose web stays split costs one copy per iteration inside
// the loop — and keeps the split back-edge block alive, adding a taken jump
// per iteration that branch tunneling cannot remove.
#include <algorithm>
#include <unordered_set>

#include "ssa/internal.hpp"
#include "ssa/ssa.hpp"
#include "support/bitset.hpp"
#include "support/strings.hpp"

namespace vc::ssa {

using rtl::BasicBlock;
using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::Opcode;
using rtl::VReg;

namespace {

/// Merges each phi with its arguments under one name wherever the values'
/// live ranges do not interfere, so the per-edge copies the lowering below
/// inserts degenerate to dst == src no-ops. Interference uses phi-aware
/// liveness: a phi argument is a use at the end of its predecessor (not
/// live into the phi's block), and a phi destination is defined at block
/// top, all phis of a run in parallel. The block-level liveness the scalar
/// passes use would treat every latch argument as live across the whole
/// loop entry and forbid exactly the loop-carried merges that matter.
void coalesce_phi_webs(Function& fn) {
  const std::size_t nb = fn.blocks.size();
  const std::size_t nv = fn.vregs.size();

  // Merge candidates: every value appearing in a phi (dst or arg).
  DenseBitset web(nv);
  bool any = false;
  for (const BasicBlock& bb : fn.blocks)
    for (const Instr& ins : bb.instrs) {
      if (ins.op != Opcode::Phi) break;
      any = true;
      web.set(ins.dst);
      for (const rtl::PhiArg& a : ins.phi_args) web.set(a.src);
    }
  if (!any) return;

  // Phi-aware liveness fixpoint.
  std::vector<DenseBitset> gen(nb, DenseBitset(nv));
  std::vector<DenseBitset> kill(nb, DenseBitset(nv));
  std::vector<DenseBitset> phi_out(nb, DenseBitset(nv));  // args, at pred end
  for (BlockId b = 0; b < nb; ++b) {
    for (const Instr& ins : fn.blocks[b].instrs) {
      if (ins.op == Opcode::Phi) {
        kill[b].set(ins.dst);
        for (const rtl::PhiArg& a : ins.phi_args) phi_out[a.pred].set(a.src);
        continue;
      }
      rtl::for_each_use(ins, [&](VReg u) {
        if (!kill[b].test(u)) gen[b].set(u);
      });
      if (auto d = ins.def()) kill[b].set(*d);
    }
  }
  std::vector<DenseBitset> live_in(nb, DenseBitset(nv));
  std::vector<DenseBitset> live_out(nb, DenseBitset(nv));
  for (bool changed = true; changed;) {
    changed = false;
    for (BlockId b = static_cast<BlockId>(nb); b-- > 0;) {
      DenseBitset out = phi_out[b];
      for (BlockId s : fn.blocks[b].successors()) out.union_with(live_in[s]);
      DenseBitset in = out;
      in.subtract(kill[b]);
      in.union_with(gen[b]);
      if (out != live_out[b]) { live_out[b] = std::move(out); changed = true; }
      if (in != live_in[b]) { live_in[b] = std::move(in); changed = true; }
    }
  }

  // Interference among web members (others cannot be merged anyway).
  std::unordered_set<std::uint64_t> conflict;
  const auto pair_key = [](VReg a, VReg b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  const auto mark_against_live = [&](VReg d, const DenseBitset& live) {
    if (!web.test(d)) return;
    live.for_each([&](std::size_t v) {
      if (v != d && web.test(v)) conflict.insert(pair_key(d, static_cast<VReg>(v)));
    });
  };
  for (BlockId b = 0; b < nb; ++b) {
    DenseBitset live = live_out[b];
    const auto& instrs = fn.blocks[b].instrs;
    std::size_t i = instrs.size();
    while (i-- > 0) {
      const Instr& ins = instrs[i];
      if (ins.op == Opcode::Phi) break;
      if (auto d = ins.def()) {
        mark_against_live(*d, live);
        live.reset(*d);
      }
      rtl::for_each_use(ins, [&](VReg u) { live.set(u); });
    }
    // The phi run defines every dst in parallel at block top: each dst
    // interferes with whatever is live just below the run. The args died
    // at their predecessors' ends and are not live here.
    if (i != static_cast<std::size_t>(-1))
      for (std::size_t k = 0; k <= i; ++k)
        mark_against_live(instrs[k].dst, live);
  }

  // Greedy web merging with path-halving union-find; classes merge only
  // when no member pair interferes.
  std::vector<VReg> parent(nv);
  for (VReg v = 0; v < nv; ++v) parent[v] = v;
  const auto find = [&](VReg v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  std::vector<std::vector<VReg>> members(nv);
  web.for_each([&](std::size_t v) { members[v].push_back(static_cast<VReg>(v)); });
  for (const BasicBlock& bb : fn.blocks)
    for (const Instr& ins : bb.instrs) {
      if (ins.op != Opcode::Phi) break;
      for (const rtl::PhiArg& a : ins.phi_args) {
        const VReg rd = find(ins.dst);
        const VReg rs = find(a.src);
        if (rd == rs || fn.vregs[rd] != fn.vregs[rs]) continue;
        bool clash = false;
        for (VReg x : members[rd]) {
          for (VReg y : members[rs])
            if (conflict.count(pair_key(x, y)) != 0) { clash = true; break; }
          if (clash) break;
        }
        if (clash) continue;
        parent[rs] = rd;
        members[rd].insert(members[rd].end(), members[rs].begin(),
                           members[rs].end());
        members[rs].clear();
      }
    }

  for (BasicBlock& bb : fn.blocks)
    for (Instr& ins : bb.instrs) {
      if (ins.def()) ins.dst = find(ins.dst);
      rtl::for_each_use(ins, [&](VReg& u) { u = find(u); });
    }
}

/// Emits `dst_i <- src_i` copies whose combined effect is the simultaneous
/// assignment of all pairs, into `out`. Copies with dst == src are dropped;
/// cycles are broken by saving one cycle member to a fresh temp.
void sequentialize_parallel_copy(Function& fn,
                                 std::vector<std::pair<VReg, VReg>> pending,
                                 std::vector<Instr>* out) {
  pending.erase(std::remove_if(pending.begin(), pending.end(),
                               [](const auto& c) { return c.first == c.second; }),
                pending.end());
  const auto emit = [&](VReg dst, VReg src) {
    Instr mov;
    mov.op = Opcode::Mov;
    mov.dst = dst;
    mov.src1 = src;
    out->push_back(mov);
  };
  while (!pending.empty()) {
    bool progressed = false;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const VReg dst = pending[i].first;
      bool blocked = false;
      for (const auto& c : pending)
        if (c.second == dst) { blocked = true; break; }
      if (blocked) continue;
      emit(dst, pending[i].second);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      progressed = true;
      break;
    }
    if (progressed) continue;
    // Every pending dst is also a pending src: pure cycles. Save one dst's
    // old value to a temp, rename it as a source, and retry.
    const VReg d = pending.front().first;
    const VReg t = fn.new_vreg(fn.vregs[d]);
    emit(t, d);
    for (auto& c : pending)
      if (c.second == d) c.second = t;
  }
}

}  // namespace

bool destroy_ssa(Function& fn) {
  if (!has_phis(fn)) return false;

  // Coalesce on the pristine SSA function (liveness and interference are
  // cleanest there); the splitting/lowering below then mostly inserts
  // nothing, and fully-coalesced split blocks reduce to bare jumps that
  // branch tunneling removes in the following scalar round.
  coalesce_phi_webs(fn);

  // Split critical edges into phi blocks: an edge from a multi-successor
  // block into a multi-predecessor block cannot carry copies in either
  // endpoint, so it gets its own block.
  auto preds = rtl::predecessors(fn);
  const std::size_t n_orig = fn.blocks.size();
  for (BlockId v = 0; v < n_orig; ++v) {
    if (fn.blocks[v].instrs.front().op != Opcode::Phi) continue;
    std::vector<BlockId> ps = preds[v];
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    for (BlockId p : ps) {
      if (fn.blocks[p].successors().size() < 2) continue;
      const BlockId mid = static_cast<BlockId>(fn.blocks.size());
      BasicBlock bb;
      Instr jmp;
      jmp.op = Opcode::Jump;
      jmp.target = v;
      bb.instrs.push_back(jmp);
      fn.blocks.push_back(std::move(bb));
      Instr& term = fn.blocks[p].instrs.back();
      if (term.target == v) term.target = mid;
      if (term.op != Opcode::Jump && term.target2 == v) term.target2 = mid;
      for (Instr& ins : fn.blocks[v].instrs) {
        if (ins.op != Opcode::Phi) break;
        for (rtl::PhiArg& a : ins.phi_args)
          if (a.pred == p) a.pred = mid;
      }
    }
  }

  // Lower each block's phi run as one parallel copy per incoming edge,
  // placed before the predecessor's terminator.
  preds = rtl::predecessors(fn);
  for (BlockId v = 0; v < fn.blocks.size(); ++v) {
    if (fn.blocks[v].instrs.front().op != Opcode::Phi) continue;
    std::size_t n_phi = 0;
    while (n_phi < fn.blocks[v].instrs.size() &&
           fn.blocks[v].instrs[n_phi].op == Opcode::Phi)
      ++n_phi;
    std::vector<BlockId> ps = preds[v];
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    for (BlockId p : ps) {
      std::vector<std::pair<VReg, VReg>> copies;
      for (std::size_t k = 0; k < n_phi; ++k) {
        const Instr& phi = fn.blocks[v].instrs[k];
        const rtl::PhiArg* hit = nullptr;
        for (const rtl::PhiArg& a : phi.phi_args)
          if (a.pred == p) { hit = &a; break; }
        check(hit != nullptr, "phi lacks an arg for a predecessor edge");
        copies.emplace_back(phi.dst, hit->src);
      }
      std::vector<Instr> seq;
      sequentialize_parallel_copy(fn, std::move(copies), &seq);
      auto& pi = fn.blocks[p].instrs;
      pi.insert(pi.end() - 1, seq.begin(), seq.end());
    }
    auto& vi = fn.blocks[v].instrs;
    vi.erase(vi.begin(), vi.begin() + static_cast<std::ptrdiff_t>(n_phi));
  }
  return true;
}

}  // namespace vc::ssa
