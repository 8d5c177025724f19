// Bounded unrolling of annotated counted loops, with an annotation-rewrite
// certificate. The matcher is deliberately conservative: it proves from the
// SSA def chains that the loop runs exactly n = limit - init iterations with
// the counter advancing by +1, and fully unrolls (k = n, small n, bounded
// body size) by cloning the body k-1 times with interior tests elided
// (sound because i ≡ init (mod k) and k | n make every elided test true),
// rewriting each "loop <= n" annotation to the residual bound n/k = 1. The
// rewrite is recorded in an UnrollCertificate that check_unroll_certificate
// verifies before the IPET engine or the runtime monitor consume the new
// bounds.
#include <algorithm>
#include <map>
#include <optional>

#include "ssa/internal.hpp"
#include "ssa/ssa.hpp"

namespace vc::ssa {

using minic::BinOp;
using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::kNoBlock;
using rtl::kNoVReg;
using rtl::Opcode;
using rtl::VReg;

namespace {

constexpr std::size_t kBodyBudget = 128;  // cloned instrs per loop, max

struct Candidate {
  BlockId header = 0;
  BlockId pre = 0;
  BlockId latch = 0;
  BlockId body_entry = 0;
  long long trip = 0;  // n
  int factor = 0;      // k
  std::vector<BlockId> loop_blocks;  // sorted, includes header
  std::vector<AnnotAnchor> annots;   // every "loop <= n" site in the loop
};

std::optional<long long> const_of(const Function& fn,
                                  const std::vector<detail::DefSite>& sites,
                                  VReg v) {
  const Instr* d =
      detail::def_instr(fn, sites, detail::chase_movs(fn, sites, v));
  if (d == nullptr || d->op != Opcode::LdI) return std::nullopt;
  return d->int_imm;
}

bool match_loop(const Function& fn, const Loop& loop,
                const std::vector<std::vector<BlockId>>& preds,
                const std::vector<detail::DefSite>& sites, Candidate* out) {
  const BlockId h = loop.header;
  const auto& hi = fn.blocks[h].instrs;
  if (hi.back().op != Opcode::BranchCmp || hi.back().bin_op != BinOp::ICmpLt)
    return false;
  if (preds[h].size() != 2 || loop.latches.size() != 1) return false;
  const BlockId latch = loop.latches[0];
  if (latch == h) return false;
  BlockId pre = kNoBlock;
  for (BlockId p : preds[h])
    if (p != latch) pre = p;
  if (pre == kNoBlock || loop.contains(pre)) return false;
  if (fn.blocks[latch].instrs.back().op != Opcode::Jump) return false;

  const Instr& term = hi.back();
  if (!loop.contains(term.target) || loop.contains(term.target2)) return false;
  const BlockId body_entry = term.target;
  if (body_entry == h) return false;

  // Header: phis, then optionally pure instructions depending on nothing
  // defined inside the loop (they stay in the header, which keeps dominating
  // the clones), then the test.
  std::size_t n_phi = 0;
  while (n_phi + 1 < hi.size() && hi[n_phi].op == Opcode::Phi) ++n_phi;
  for (std::size_t i = n_phi; i + 1 < hi.size(); ++i) {
    const Instr& ins = hi[i];
    if (!ins.is_pure()) return false;
    const bool reads_loop_value = rtl::any_use(ins, [&](VReg u) {
      const auto& s = sites[u];
      if (s.block == kNoBlock) return false;
      if (s.block == h) return fn.blocks[h].instrs[s.index].op == Opcode::Phi;
      return loop.contains(s.block);
    });
    if (reads_loop_value) return false;
  }

  // Counter: a header phi advanced by exactly +1 each iteration, between
  // constant init and constant limit.
  const VReg iv = detail::chase_movs(fn, sites, term.src1);
  const Instr* iv_def = detail::def_instr(fn, sites, iv);
  if (iv_def == nullptr || iv_def->op != Opcode::Phi || sites[iv].block != h)
    return false;
  VReg init_v = kNoVReg, next_v = kNoVReg;
  for (const rtl::PhiArg& a : iv_def->phi_args) {
    if (a.pred == pre) init_v = a.src;
    if (a.pred == latch) next_v = a.src;
  }
  if (init_v == kNoVReg || next_v == kNoVReg) return false;
  const auto init_c = const_of(fn, sites, init_v);
  const auto limit_c = const_of(fn, sites, term.src2);
  if (!init_c || !limit_c) return false;
  const Instr* nd =
      detail::def_instr(fn, sites, detail::chase_movs(fn, sites, next_v));
  if (nd == nullptr || nd->op != Opcode::Bin || nd->bin_op != BinOp::IAdd)
    return false;
  const VReg a1 = detail::chase_movs(fn, sites, nd->src1);
  const VReg a2 = detail::chase_movs(fn, sites, nd->src2);
  const bool inc_ok = (a1 == iv && const_of(fn, sites, a2) == 1) ||
                      (a2 == iv && const_of(fn, sites, a1) == 1);
  if (!inc_ok) return false;

  const long long n = *limit_c - *init_c;
  if (n <= 0) return false;

  // Only the header may leave the loop, and every annotation in the loop
  // must be this loop's bound (so the certificate's conservation law —
  // nothing else changed — is exact).
  std::size_t body_size = 0;
  std::vector<AnnotAnchor> annots;
  for (BlockId b : loop.blocks) {
    if (b != h) {
      for (BlockId s : fn.blocks[b].successors())
        if (!loop.contains(s)) return false;
      body_size += fn.blocks[b].instrs.size();
    }
    for (std::uint32_t i = 0; i < fn.blocks[b].instrs.size(); ++i) {
      const Instr& ins = fn.blocks[b].instrs[i];
      if (ins.op != Opcode::Annot) continue;
      if (detail::parse_loop_bound(ins.annot_format) != n) return false;
      annots.push_back({b, i});
    }
  }
  if (annots.empty()) return false;  // unannotated loops keep their shape

  // Full unrolling only (k = n): a partial factor keeps the back-edge test
  // and the counter while paying the code size, which measures as a net
  // loss on this machine model — the fused compare-and-branch makes loop
  // overhead cheap. Collapsing a short counted loop to one straight-line
  // body (one residual test) is the case that pays.
  const int k = static_cast<int>(n);
  if (n < 2 || n > 8 || body_size * static_cast<std::size_t>(k) > kBodyBudget)
    return false;

  out->header = h;
  out->pre = pre;
  out->latch = latch;
  out->body_entry = body_entry;
  out->trip = n;
  out->factor = k;
  out->loop_blocks = loop.blocks;
  out->annots = std::move(annots);
  return true;
}

void unroll_one(Function& fn, const Candidate& c, UnrollCertificate* cert) {
  const int k = c.factor;
  const long long residual = c.trip / k;
  const std::string new_format = "loop <= " + std::to_string(residual);

  UnrollLoopCert row;
  row.function = fn.name;
  row.header = c.header;
  row.factor = k;
  row.original_bound = c.trip;
  row.residual_bound = residual;
  row.old_format = "loop <= " + std::to_string(c.trip);
  row.new_format = new_format;
  row.before_anchors = c.annots;

  // Body blocks (everything but the header), and the values they define.
  std::vector<BlockId> body;
  for (BlockId b : c.loop_blocks)
    if (b != c.header) body.push_back(b);
  std::vector<char> body_def(fn.vregs.size(), 0);
  for (BlockId b : body)
    for (const Instr& ins : fn.blocks[b].instrs)
      if (auto d = ins.def()) body_def[*d] = 1;

  // Header phi table: dst -> latch-side incoming value.
  std::map<VReg, VReg> latch_arg;
  for (const Instr& ins : fn.blocks[c.header].instrs) {
    if (ins.op != Opcode::Phi) break;
    for (const rtl::PhiArg& a : ins.phi_args)
      if (a.pred == c.latch) latch_arg[ins.dst] = a.src;
  }

  // Rewrite copy 0's annotations in place (their anchors keep positions).
  for (const AnnotAnchor& a : c.annots) {
    fn.blocks[a.block].instrs[a.index].annot_format = new_format;
    row.after_anchors.push_back(a);
  }

  // Per-copy state. Copy 0 is the original body: identity maps.
  std::vector<std::map<BlockId, BlockId>> bmaps(1);   // block renames
  std::vector<std::map<VReg, VReg>> vmaps(1);         // body-def renames
  // headervals[j][x]: the name copy j reads where copy 0 reads header phi x.
  std::vector<std::map<VReg, VReg>> headervals(1);
  for (BlockId b : body) bmaps[0][b] = b;
  for (BlockId b : body)
    for (const Instr& ins : fn.blocks[b].instrs)
      if (auto d = ins.def()) vmaps[0][*d] = *d;
  for (const auto& [dst, src] : latch_arg) headervals[0][dst] = dst;

  // The latch-side value of header phi x, in copy j's names: what the next
  // copy (or the header, after the last copy) receives for x.
  const auto latch_val_in_copy = [&](int j, VReg x) -> VReg {
    const VReg l = latch_arg.at(x);
    if (l < body_def.size() && body_def[l]) return vmaps[j].at(l);
    const auto hv = headervals[j].find(l);
    if (hv != headervals[j].end()) return hv->second;
    return l;  // loop-invariant
  };

  for (int j = 1; j < k; ++j) {
    std::map<VReg, VReg> vmap;
    for (VReg v = 0; v < body_def.size(); ++v)
      if (body_def[v]) vmap[v] = fn.new_vreg(fn.vregs[v]);

    std::map<VReg, VReg> headerval;
    for (const auto& [dst, src] : latch_arg)
      headerval[dst] = latch_val_in_copy(j - 1, dst);

    const auto resolve = [&](VReg v) -> VReg {
      if (v < body_def.size() && body_def[v]) return vmap.at(v);
      const auto hv = headerval.find(v);
      if (hv != headerval.end()) return hv->second;
      return v;
    };

    std::map<BlockId, BlockId> bmap;
    for (BlockId b : body)
      bmap[b] = static_cast<BlockId>(fn.blocks.size() + bmap.size());
    const BlockId prev_latch = bmaps[j - 1].at(c.latch);

    for (BlockId b : body) {
      rtl::BasicBlock nb;
      nb.instrs.reserve(fn.blocks[b].instrs.size());
      for (const Instr& orig : fn.blocks[b].instrs) {
        Instr ins = orig;
        if (ins.op == Opcode::Phi) {
          // Body-internal phi: remap preds into this copy; the header edge
          // becomes the previous copy's latch, carrying the value the
          // header edge carried, resolved into this copy's context.
          ins.dst = vmap.at(ins.dst);
          for (rtl::PhiArg& a : ins.phi_args) {
            if (a.pred == c.header) {
              a.pred = prev_latch;
              const auto hv = headerval.find(a.src);
              a.src = hv != headerval.end() ? hv->second : a.src;
            } else {
              a.pred = bmap.at(a.pred);
              a.src = resolve(a.src);
            }
          }
          std::sort(ins.phi_args.begin(), ins.phi_args.end(),
                    [](const rtl::PhiArg& x, const rtl::PhiArg& y) {
                      return x.pred < y.pred;
                    });
        } else {
          rtl::for_each_use(ins, [&](VReg& u) { u = resolve(u); });
          if (auto d = ins.def()) ins.dst = vmap.at(*d);
          if (ins.op == Opcode::Jump || ins.op == Opcode::Branch ||
              ins.op == Opcode::BranchCmp) {
            // Only the latch targets the header; the chain is fixed below.
            if (ins.target != c.header) ins.target = bmap.at(ins.target);
            if (ins.op != Opcode::Jump && ins.target2 != c.header)
              ins.target2 = bmap.at(ins.target2);
          }
        }
        nb.instrs.push_back(std::move(ins));
      }
      fn.blocks.push_back(std::move(nb));
    }

    // Anchors of this copy: same in-block indices, cloned blocks.
    for (const AnnotAnchor& a : c.annots)
      row.after_anchors.push_back({bmap.at(a.block), a.index});

    bmaps.push_back(std::move(bmap));
    vmaps.push_back(std::move(vmap));
    headervals.push_back(std::move(headerval));
  }

  // Chain the copies: copy j's latch falls through to copy j+1's body entry
  // (the elided interior tests); only the last copy jumps back to the header.
  for (int j = 0; j < k - 1; ++j) {
    Instr& term = fn.blocks[bmaps[j].at(c.latch)].instrs.back();
    term.target = bmaps[j + 1].at(c.body_entry);
  }

  // Header phis: the back edge now arrives from the last copy's latch with
  // the last copy's values.
  const BlockId last_latch = bmaps[k - 1].at(c.latch);
  for (Instr& ins : fn.blocks[c.header].instrs) {
    if (ins.op != Opcode::Phi) break;
    for (rtl::PhiArg& a : ins.phi_args) {
      if (a.pred != c.latch) continue;
      a.pred = last_latch;
      a.src = latch_val_in_copy(k - 1, ins.dst);
    }
    std::sort(ins.phi_args.begin(), ins.phi_args.end(),
              [](const rtl::PhiArg& x, const rtl::PhiArg& y) {
                return x.pred < y.pred;
              });
  }

  cert->loops.push_back(std::move(row));
}

}  // namespace

bool loop_unrolling(Function& fn, UnrollCertificate* cert) {
  if (!has_phis(fn)) return false;  // SSA passes only run inside the bracket
  const auto preds = rtl::predecessors(fn);
  const auto idom = rtl::immediate_dominators(fn);
  const LoopForest forest = find_loops(fn, idom, preds);
  const auto sites = detail::def_sites(fn);

  // Innermost loops only; disjoint, so one analysis round serves them all.
  std::vector<char> has_child(forest.loops.size(), 0);
  for (const Loop& l : forest.loops)
    if (l.parent >= 0) has_child[l.parent] = 1;

  bool changed = false;
  for (std::size_t i = 0; i < forest.loops.size(); ++i) {
    if (has_child[i]) continue;
    Candidate c;
    if (!match_loop(fn, forest.loops[i], preds, sites, &c)) continue;
    unroll_one(fn, c, cert);
    changed = true;
  }
  return changed;
}

}  // namespace vc::ssa
