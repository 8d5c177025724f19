// Pruned SSA construction (Cytron et al.): preheader canonicalization,
// liveness-pruned phi placement on iterated dominance frontiers, and
// dominator-tree renaming with fresh vregs.
#include <algorithm>

#include "ssa/internal.hpp"
#include "ssa/ssa.hpp"
#include "support/strings.hpp"

namespace vc::ssa {

using rtl::BasicBlock;
using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::kNoBlock;
using rtl::kNoVReg;
using rtl::Opcode;
using rtl::RegClass;
using rtl::VReg;

namespace {

void retarget_terminator(Instr& term, BlockId from, BlockId to) {
  if (term.op == Opcode::Jump || term.op == Opcode::Branch ||
      term.op == Opcode::BranchCmp) {
    if (term.target == from) term.target = to;
    if (term.op != Opcode::Jump && term.target2 == from) term.target2 = to;
  }
}

/// Gives every natural-loop header a dedicated preheader: a block whose only
/// successor is the header and through which every non-back-edge entry flows.
/// LICM hoists into it and the rotation/unroll matchers key on it.
bool insert_preheaders(Function& fn) {
  bool changed = false;
  const auto preds = rtl::predecessors(fn);
  const auto idom = rtl::immediate_dominators(fn);
  const std::size_t n_orig = fn.blocks.size();
  for (BlockId h = 0; h < n_orig; ++h) {
    if (idom[h] == kNoBlock) continue;
    std::vector<BlockId> entries;
    bool is_header = false;
    for (BlockId p : preds[h]) {
      if (idom[p] != kNoBlock && rtl::dominates(idom, h, p))
        is_header = true;
      else
        entries.push_back(p);
    }
    if (!is_header || entries.empty()) continue;
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
    if (entries.size() == 1 &&
        fn.blocks[entries[0]].successors().size() == 1)
      continue;  // already canonical

    const BlockId pre = static_cast<BlockId>(fn.blocks.size());
    BasicBlock bb;
    Instr jmp;
    jmp.op = Opcode::Jump;
    jmp.target = h;
    bb.instrs.push_back(jmp);
    fn.blocks.push_back(std::move(bb));
    for (BlockId p : entries)
      retarget_terminator(fn.blocks[p].instrs.back(), h, pre);
    changed = true;
  }
  return changed;
}

}  // namespace

bool build_ssa(Function& fn) {
  check(!has_phis(fn), "build_ssa on a function already in SSA form");
  rtl::remove_unreachable_blocks(fn);
  insert_preheaders(fn);

  const auto preds = rtl::predecessors(fn);
  const auto idom = rtl::immediate_dominators(fn);
  const auto children = rtl::dominator_children(idom);
  const auto df = dominance_frontiers(fn, idom, preds);
  const rtl::Liveness live = rtl::compute_liveness(fn);

  const std::size_t n_vars = fn.vregs.size();

  // Definition blocks of each original vreg.
  std::vector<std::vector<BlockId>> def_blocks(n_vars);
  for (BlockId b = 0; b < fn.blocks.size(); ++b)
    for (const Instr& ins : fn.blocks[b].instrs)
      if (auto d = ins.def()) def_blocks[*d].push_back(b);

  // Liveness-pruned phi placement on iterated dominance frontiers.
  std::vector<std::vector<VReg>> phi_vars(fn.blocks.size());
  {
    std::vector<int> placed(fn.blocks.size(), -1);
    std::vector<int> queued(fn.blocks.size(), -1);
    for (VReg v = 0; v < n_vars; ++v) {
      if (def_blocks[v].empty()) continue;
      std::vector<BlockId> work = def_blocks[v];
      for (BlockId b : work) queued[b] = static_cast<int>(v);
      while (!work.empty()) {
        const BlockId d = work.back();
        work.pop_back();
        for (BlockId y : df[d]) {
          if (placed[y] == static_cast<int>(v)) continue;
          if (!live.live_in[y].test(v)) continue;
          placed[y] = static_cast<int>(v);
          phi_vars[y].push_back(v);
          if (queued[y] != static_cast<int>(v)) {
            queued[y] = static_cast<int>(v);
            work.push_back(y);
          }
        }
      }
    }
  }
  for (auto& vars : phi_vars) std::sort(vars.begin(), vars.end());

  // Materialize phi instructions (args filled during renaming). The dst holds
  // the original variable until the renaming walk reaches the block.
  for (BlockId b = 0; b < fn.blocks.size(); ++b) {
    if (phi_vars[b].empty()) continue;
    std::vector<Instr> head;
    head.reserve(phi_vars[b].size());
    for (VReg v : phi_vars[b]) {
      Instr phi;
      phi.op = Opcode::Phi;
      phi.dst = v;
      head.push_back(phi);
    }
    auto& instrs = fn.blocks[b].instrs;
    instrs.insert(instrs.begin(), head.begin(), head.end());
  }

  // A use reached by no definition reads zero — the executor's initial
  // register state. The entry constants below are the SSA names for that
  // state; the post-SSA cleanup removes them when unused.
  const VReg zero_i = fn.new_vreg(RegClass::I32);
  const VReg zero_f = fn.new_vreg(RegClass::F64);
  {
    Instr zi;
    zi.op = Opcode::LdI;
    zi.dst = zero_i;
    zi.int_imm = 0;
    Instr zf;
    zf.op = Opcode::LdF;
    zf.dst = zero_f;
    zf.f64_imm = 0.0;
    auto& entry = fn.blocks[0].instrs;
    entry.insert(entry.begin(), {zi, zf});
  }

  // Dominator-tree renaming. Every definition gets a fresh vreg; uses read
  // the innermost dominating definition of their original variable.
  std::vector<std::vector<VReg>> stacks(n_vars);
  const auto read_var = [&](VReg v) -> VReg {
    if (v < n_vars && !stacks[v].empty()) return stacks[v].back();
    return fn.vregs[v] == RegClass::I32 ? zero_i : zero_f;
  };

  struct Frame {
    BlockId block;
    std::size_t child = 0;
    std::vector<VReg> popped;  // original vars pushed in this block
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0, {}});
  while (!stack.empty()) {
    Frame& fr = stack.back();
    const BlockId b = fr.block;
    if (fr.child == 0) {
      // First visit: rename this block and fill successor phi args.
      for (Instr& ins : fn.blocks[b].instrs) {
        if (ins.op == Opcode::Phi) {
          const VReg v = ins.dst;
          const VReg nn = fn.new_vreg(fn.vregs[v]);
          ins.dst = nn;
          stacks[v].push_back(nn);
          fr.popped.push_back(v);
          continue;
        }
        rtl::for_each_use(ins, [&](VReg& u) { u = read_var(u); });
        if (auto d = ins.def()) {
          const VReg v = *d;
          if (v < n_vars) {  // the entry zero constants keep their names
            const VReg nn = fn.new_vreg(fn.vregs[v]);
            ins.dst = nn;
            stacks[v].push_back(nn);
            fr.popped.push_back(v);
          }
        }
      }
      for (BlockId s : fn.blocks[b].successors()) {
        std::size_t k = 0;
        for (Instr& ins : fn.blocks[s].instrs) {
          if (ins.op != Opcode::Phi) break;
          ins.phi_args.push_back({b, read_var(phi_vars[s][k])});
          ++k;
        }
      }
    }
    if (fr.child < children[b].size()) {
      const BlockId c = children[b][fr.child++];
      stack.push_back({c, 0, {}});
      continue;
    }
    for (auto it = fr.popped.rbegin(); it != fr.popped.rend(); ++it)
      stacks[*it].pop_back();
    stack.pop_back();
  }

  // Deterministic textual form: phi args sorted by predecessor. A pred that
  // branches twice to the same block contributes one arg per edge; collapse
  // the duplicates (same incoming value by construction).
  for (auto& bb : fn.blocks)
    for (Instr& ins : bb.instrs) {
      if (ins.op != Opcode::Phi) break;
      std::sort(ins.phi_args.begin(), ins.phi_args.end(),
                [](const rtl::PhiArg& a, const rtl::PhiArg& b) {
                  return a.pred < b.pred;
                });
      ins.phi_args.erase(
          std::unique(ins.phi_args.begin(), ins.phi_args.end(),
                      [](const rtl::PhiArg& a, const rtl::PhiArg& b) {
                        return a.pred == b.pred;
                      }),
          ins.phi_args.end());
    }
  return true;
}

}  // namespace vc::ssa
