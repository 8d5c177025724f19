// Loop rotation (inversion) of annotated counted loops. The header becomes a
// once-executed guard; the latch takes over the back-edge test; exit phis
// merge the guard/latch paths. Per-entry back-edge counts drop from n to
// n-1, so every existing "loop <= n" bound stays sound for the IPET rows
// and the runtime monitor. Unannotated loops are left alone: they keep the
// while-shape the machine-level bound derivation recognizes.
#include <algorithm>

#include "ssa/internal.hpp"
#include "ssa/ssa.hpp"

namespace vc::ssa {

using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::kNoVReg;
using rtl::Opcode;
using rtl::VReg;

namespace {

struct Candidate {
  BlockId header = 0;
  BlockId pre = 0;
  BlockId latch = 0;
  BlockId body = 0;  // in-loop target of the header test
  BlockId exit = 0;  // out-of-loop target
  std::vector<BlockId> loop_blocks;
};

bool in(const std::vector<BlockId>& sorted, BlockId b) {
  return std::binary_search(sorted.begin(), sorted.end(), b);
}

/// Finds one rotatable loop (analyses are recomputed after each rotation).
bool find_candidate(const Function& fn, Candidate* out) {
  const auto preds = rtl::predecessors(fn);
  const auto idom = rtl::immediate_dominators(fn);
  const LoopForest forest = find_loops(fn, idom, preds);
  for (const Loop& loop : forest.loops) {
    const BlockId h = loop.header;
    // Header: phi run, then optional pure loop-independent "extras"
    // (lowering materializes constant loop limits here), then a fused
    // compare branch. The extras stay in the guard block after rotation —
    // it keeps the header's block id and still dominates the whole loop —
    // so they must not read a phi or anything defined inside the loop
    // (other than a preceding extra).
    const auto& hi = fn.blocks[h].instrs;
    if (hi.back().op != Opcode::BranchCmp) continue;
    std::vector<VReg> loop_defs;
    for (BlockId b : loop.blocks)
      for (const Instr& ins : fn.blocks[b].instrs)
        if (auto d = ins.def()) loop_defs.push_back(*d);
    std::sort(loop_defs.begin(), loop_defs.end());
    bool shape_ok = true;
    bool in_extras = false;
    std::vector<VReg> extra_defs;
    for (std::size_t i = 0; i + 1 < hi.size(); ++i) {
      if (hi[i].op == Opcode::Phi) {
        if (in_extras) { shape_ok = false; break; }
        continue;
      }
      in_extras = true;
      if (!hi[i].is_pure()) { shape_ok = false; break; }
      const bool reads_loop_value = rtl::any_use(hi[i], [&](VReg u) {
        const bool in_loop =
            std::binary_search(loop_defs.begin(), loop_defs.end(), u);
        const bool own_extra =
            std::find(extra_defs.begin(), extra_defs.end(), u) !=
            extra_defs.end();
        return in_loop && !own_extra;
      });
      if (reads_loop_value) { shape_ok = false; break; }
      if (auto d = hi[i].def()) extra_defs.push_back(*d);
    }
    if (!shape_ok) continue;
    // Exactly two predecessors: one entry edge, one latch ending in a jump.
    if (preds[h].size() != 2 || loop.latches.size() != 1) continue;
    const BlockId latch = loop.latches[0];
    if (latch == h) continue;
    BlockId pre = rtl::kNoBlock;
    for (BlockId p : preds[h])
      if (p != latch) pre = p;
    if (pre == rtl::kNoBlock || loop.contains(pre)) continue;
    if (fn.blocks[latch].instrs.back().op != Opcode::Jump) continue;
    // One in-loop target (body entry, no other preds, no phis) and one
    // out-of-loop target (sole exit, no other preds).
    const Instr& term = hi.back();
    BlockId body, exit;
    if (loop.contains(term.target) && !loop.contains(term.target2)) {
      body = term.target;
      exit = term.target2;
    } else if (loop.contains(term.target2) && !loop.contains(term.target)) {
      body = term.target2;
      exit = term.target;
    } else {
      continue;
    }
    if (body == h || exit == h || body == exit) continue;
    if (preds[body].size() != 1 || preds[exit].size() != 1) continue;
    if (fn.blocks[body].instrs.front().op == Opcode::Phi) continue;
    // All other exits stay inside: only the header leaves the loop.
    bool closed = true;
    for (BlockId b : loop.blocks) {
      if (b == h) continue;
      for (BlockId s : fn.blocks[b].successors())
        if (!loop.contains(s)) { closed = false; break; }
      if (!closed) break;
    }
    if (!closed) continue;
    // Only annotated loops rotate (the bound survives any shape).
    bool annotated = false;
    for (BlockId b : loop.blocks)
      for (const Instr& ins : fn.blocks[b].instrs)
        if (ins.op == Opcode::Annot &&
            detail::parse_loop_bound(ins.annot_format) >= 0)
          annotated = true;
    if (!annotated) continue;
    out->header = h;
    out->pre = pre;
    out->latch = latch;
    out->body = body;
    out->exit = exit;
    out->loop_blocks = loop.blocks;
    return true;
  }
  return false;
}

void rotate_one(Function& fn, const Candidate& c) {
  auto& hi = fn.blocks[c.header].instrs;
  std::size_t n_phi = 0;
  while (n_phi < hi.size() && hi[n_phi].op == Opcode::Phi) ++n_phi;

  // Collect the header phis: dst, entry-path value, latch-path value.
  struct PhiInfo {
    VReg dst = kNoVReg;
    VReg pre_val = kNoVReg;
    VReg latch_val = kNoVReg;
  };
  std::vector<PhiInfo> phis;
  for (std::size_t i = 0; i < n_phi; ++i) {
    PhiInfo pi;
    pi.dst = hi[i].dst;
    for (const rtl::PhiArg& a : hi[i].phi_args) {
      if (a.pred == c.pre) pi.pre_val = a.src;
      if (a.pred == c.latch) pi.latch_val = a.src;
    }
    phis.push_back(pi);
  }
  const auto subst = [&](VReg v, bool latch_side) {
    for (const PhiInfo& pi : phis)
      if (pi.dst == v) return latch_side ? pi.latch_val : pi.pre_val;
    return v;
  };

  // Latch: the back-edge jump becomes the loop test with latch-side values.
  Instr latch_term = hi.back();
  latch_term.src1 = subst(latch_term.src1, true);
  latch_term.src2 = subst(latch_term.src2, true);
  fn.blocks[c.latch].instrs.back() = latch_term;

  // Header becomes the guard: phis removed, extras stay (they are pure,
  // loop-independent, and the guard still dominates every former loop
  // block), test takes entry-side values.
  Instr guard = hi.back();
  guard.src1 = subst(guard.src1, false);
  guard.src2 = subst(guard.src2, false);
  hi.erase(hi.begin(), hi.begin() + static_cast<std::ptrdiff_t>(n_phi));
  hi.back() = guard;

  // The body entry is the new loop header: it inherits the phis, now merging
  // the guard edge and the back edge.
  std::vector<Instr> moved;
  for (const PhiInfo& pi : phis) {
    Instr phi;
    phi.op = Opcode::Phi;
    phi.dst = pi.dst;
    phi.phi_args.push_back({c.header, pi.pre_val});
    phi.phi_args.push_back({c.latch, pi.latch_val});
    std::sort(phi.phi_args.begin(), phi.phi_args.end(),
              [](const rtl::PhiArg& a, const rtl::PhiArg& b) {
                return a.pred < b.pred;
              });
    moved.push_back(std::move(phi));
  }
  auto& bi = fn.blocks[c.body].instrs;
  bi.insert(bi.begin(), moved.begin(), moved.end());

  // Values live after the loop used the header phis (the only loop
  // definitions that dominated the exit). Those uses now need exit phis
  // merging the guard and latch paths. Two sweeps per phi: detect first,
  // then insert the exit phi and rewrite — inserting into the exit block
  // while iterating it would invalidate the instruction references.
  for (const PhiInfo& pi : phis) {
    const auto outside_use = [&](const Instr& ins) {
      if (ins.op == Opcode::Phi) {
        // A phi arg is a use at the end of its predecessor: only args
        // arriving from outside the loop count (and get rewritten).
        for (const rtl::PhiArg& a : ins.phi_args)
          if (a.src == pi.dst && !in(c.loop_blocks, a.pred)) return true;
        return false;
      }
      return rtl::any_use(ins, [&](VReg u) { return u == pi.dst; });
    };
    bool used = false;
    for (BlockId b = 0; b < fn.blocks.size() && !used; ++b) {
      if (in(c.loop_blocks, b)) continue;
      for (const Instr& ins : fn.blocks[b].instrs)
        if (outside_use(ins)) { used = true; break; }
    }
    if (!used) continue;
    const VReg exit_name = fn.new_vreg(fn.vregs[pi.dst]);
    {
      Instr phi;
      phi.op = Opcode::Phi;
      phi.dst = exit_name;
      phi.phi_args.push_back({c.header, pi.pre_val});
      phi.phi_args.push_back({c.latch, pi.latch_val});
      std::sort(phi.phi_args.begin(), phi.phi_args.end(),
                [](const rtl::PhiArg& a, const rtl::PhiArg& b) {
                  return a.pred < b.pred;
                });
      auto& ei = fn.blocks[c.exit].instrs;
      ei.insert(ei.begin(), std::move(phi));
    }
    for (BlockId b = 0; b < fn.blocks.size(); ++b) {
      if (in(c.loop_blocks, b)) continue;
      for (Instr& ins : fn.blocks[b].instrs) {
        if (ins.dst == exit_name) continue;  // the exit phi itself
        if (ins.op == Opcode::Phi) {
          for (rtl::PhiArg& a : ins.phi_args)
            if (a.src == pi.dst && !in(c.loop_blocks, a.pred))
              a.src = exit_name;
        } else {
          rtl::for_each_use(ins, [&](VReg& u) {
            if (u == pi.dst) u = exit_name;
          });
        }
      }
    }
  }
}

}  // namespace

bool loop_rotation(Function& fn) {
  if (!has_phis(fn)) return false;  // SSA passes only run inside the bracket
  bool changed = false;
  // One rotation per iteration; analyses are recomputed because the CFG
  // edges (and dominance) change. Each loop rotates at most once (after
  // rotation its header is no longer phis + branch), so this terminates.
  for (;;) {
    Candidate c;
    if (!find_candidate(fn, &c)) break;
    rotate_one(fn, c);
    changed = true;
  }
  return changed;
}

}  // namespace vc::ssa
