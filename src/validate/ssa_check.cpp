// Validators for the SSA mid-end (src/ssa). Three checkers in the same
// a-posteriori style as the rest of src/validate (paper §3.2: the passes are
// untrusted; a small checker accepts or rejects each step):
//
//  * `check_ssa_wellformed` — structural SSA sanity after every in-bracket
//    step: at most one definition per vreg, every use dominated by its
//    definition (phi args dominated at their predecessor), phis only in the
//    leading run of a non-entry block, phi predecessor sets exactly matching
//    the CFG, classes consistent, all blocks reachable.
//
//  * `check_ssa_equivalence` — a phi-aware symbolic value-graph comparison
//    for CFG- and name-preserving SSA rewrites (GVN, LICM). Anchored events
//    (memory accesses, annotations, terminators, trapping divisions) must
//    appear in identical per-block order with symbolically equivalent
//    operands; phis are compared as a bisimulation (each phi is an opaque
//    node, corresponding phis must merge equivalent arguments edge-wise).
//    Together with well-formedness of the after function this accepts
//    exactly the sound subset: pure computations may move or collapse to
//    copies, but nothing observable may change. Values are hash-consed terms
//    (validate/term.hpp) shared by both functions, so the check is linear in
//    function size however deep the value graph.
//
//  * `check_unroll_certificate` — verifies the annotation-rewrite
//    certificate of ssa-unroll before the IPET engine or the runtime monitor
//    ever see the rewritten bounds: residual = ceil(n/k) with k | n, every
//    anchor resolves to an Annot with the claimed format, k after-anchors
//    per before-anchor, and per-format annotation counts are conserved
//    (nothing outside the certificate changed).
#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rtl/analysis.hpp"
#include "ssa/internal.hpp"
#include "ssa/ssa.hpp"
#include "validate/term.hpp"
#include "validate/validate.hpp"

namespace vc::validate {

using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::kNoBlock;
using rtl::kNoVReg;
using rtl::Opcode;
using rtl::VReg;

namespace {

std::vector<BlockId> sorted_unique_preds(
    const std::vector<std::vector<BlockId>>& preds, BlockId b) {
  std::vector<BlockId> p = preds[b];
  std::sort(p.begin(), p.end());
  p.erase(std::unique(p.begin(), p.end()), p.end());
  return p;
}

std::string at(BlockId b, std::size_t i) {
  return "bb" + std::to_string(b) + "[" + std::to_string(i) + "]";
}

}  // namespace

CheckResult check_ssa_wellformed(const Function& fn) {
  if (fn.blocks.empty()) return CheckResult::fail("function has no blocks");

  // Reachability: the SSA bracket never produces dead blocks, and dominance
  // queries below are only meaningful on reachable code.
  const auto rpo = rtl::reverse_postorder(fn);
  std::vector<char> reachable(fn.blocks.size(), 0);
  for (BlockId b : rpo) reachable[b] = 1;
  for (BlockId b = 0; b < fn.blocks.size(); ++b)
    if (!reachable[b])
      return CheckResult::fail("unreachable block bb" + std::to_string(b));

  // Single definition per vreg.
  std::vector<ssa::detail::DefSite> sites(fn.vregs.size());
  for (BlockId b = 0; b < fn.blocks.size(); ++b)
    for (std::uint32_t i = 0; i < fn.blocks[b].instrs.size(); ++i) {
      const auto d = fn.blocks[b].instrs[i].def();
      if (!d) continue;
      if (*d >= fn.vregs.size())
        return CheckResult::fail("definition of out-of-range vreg at " +
                                 at(b, i));
      if (sites[*d].block != kNoBlock)
        return CheckResult::fail("vreg v" + std::to_string(*d) +
                                 " defined more than once (" +
                                 at(sites[*d].block, sites[*d].index) +
                                 " and " + at(b, i) + ")");
      sites[*d] = {b, i};
    }

  const auto preds = rtl::predecessors(fn);
  const auto idom = rtl::immediate_dominators(fn);

  // A use at (b, i) of vreg u is dominated by its definition. For phi args
  // the use point is the *end of the predecessor* edge instead.
  const auto dominated_use = [&](VReg u, BlockId b, std::size_t i,
                                 bool phi_arg, BlockId pred) -> std::string {
    if (u >= fn.vregs.size()) return "out-of-range vreg";
    const auto& d = sites[u];
    if (d.block == kNoBlock)
      return "use of undefined vreg v" + std::to_string(u);
    if (phi_arg) {
      if (!rtl::dominates(idom, d.block, pred))
        return "phi argument v" + std::to_string(u) +
               " not dominated by its definition at predecessor bb" +
               std::to_string(pred);
      return {};
    }
    if (d.block == b) {
      if (d.index >= i)
        return "use of v" + std::to_string(u) + " before its definition";
      return {};
    }
    if (!rtl::dominates(idom, d.block, b))
      return "use of v" + std::to_string(u) +
             " not dominated by its definition";
    return {};
  };

  for (BlockId b = 0; b < fn.blocks.size(); ++b) {
    const auto& instrs = fn.blocks[b].instrs;
    bool seen_nonphi = false;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      const Instr& ins = instrs[i];
      if (ins.op == Opcode::Phi) {
        if (b == 0)
          return CheckResult::fail("phi in the entry block at " + at(b, i));
        if (seen_nonphi)
          return CheckResult::fail("phi after non-phi at " + at(b, i));
        if (ins.phi_args.empty())
          return CheckResult::fail("empty phi at " + at(b, i));
        // Predecessor set of the args == CFG predecessors, exactly.
        std::vector<BlockId> arg_preds;
        for (const rtl::PhiArg& a : ins.phi_args) arg_preds.push_back(a.pred);
        for (std::size_t k = 1; k < arg_preds.size(); ++k)
          if (arg_preds[k - 1] >= arg_preds[k])
            return CheckResult::fail("phi args not strictly sorted at " +
                                     at(b, i));
        if (arg_preds != sorted_unique_preds(preds, b))
          return CheckResult::fail(
              "phi predecessor set does not match the CFG at " + at(b, i));
        for (const rtl::PhiArg& a : ins.phi_args) {
          if (a.src >= fn.vregs.size() ||
              fn.vregs[a.src] != fn.vregs[ins.dst])
            return CheckResult::fail("phi argument class mismatch at " +
                                     at(b, i));
          const std::string err = dominated_use(a.src, b, i, true, a.pred);
          if (!err.empty()) return CheckResult::fail(err + " at " + at(b, i));
        }
      } else {
        seen_nonphi = true;
        std::string err;
        rtl::for_each_use(ins, [&](VReg u) {
          if (err.empty()) err = dominated_use(u, b, i, false, 0);
        });
        if (!err.empty()) return CheckResult::fail(err + " at " + at(b, i));
      }
    }
  }
  return CheckResult::pass();
}

// ---------------------------------------------------------------------------
// Phi-aware value-graph equivalence (ssa-gvn, ssa-licm)
// ---------------------------------------------------------------------------

namespace {

/// Anchored instructions are the observable / ordering-sensitive events: the
/// rewrites this checker accepts may move or collapse pure computations but
/// must keep these in identical per-block positions.
bool is_anchored(const Instr& ins) {
  switch (ins.op) {
    case Opcode::LoadGlobal:
    case Opcode::StoreGlobal:
    case Opcode::LoadGlobalIdx:
    case Opcode::StoreGlobalIdx:
    case Opcode::LoadStack:
    case Opcode::StoreStack:
    case Opcode::Annot:
    case Opcode::Jump:
    case Opcode::Branch:
    case Opcode::BranchCmp:
    case Opcode::Ret:
      return true;
    case Opcode::Bin:
      // Division traps on zero: an event, not a value.
      return ins.bin_op == minic::BinOp::IDiv ||
             ins.bin_op == minic::BinOp::IRem;
    default:
      return false;
  }
}

bool commutative_int(minic::BinOp op) {
  switch (op) {
    case minic::BinOp::IAdd:
    case minic::BinOp::IMul:
    case minic::BinOp::IAnd:
    case minic::BinOp::IOr:
    case minic::BinOp::IXor:
    case minic::BinOp::ICmpEq:
    case minic::BinOp::ICmpNe:
      return true;
    default:
      return false;
  }
}

/// Term kinds of the SSA equivalence checker.
enum EKind : std::uint32_t {
  kBad,     // imm: out-of-range vreg
  kCycle,   // imm: vreg reached again while in progress (ill-formed input)
  kUndef,   // imm: register class (undefined vregs read its zero)
  kLdI,     // imm: the constant
  kLdF,     // imm: the constant's bit pattern
  kUn,      // kids: operand; imm: operator
  kBin,     // kids: operands (by id when commutative); imm: operator
  kParam,   // imm: parameter index
  kOpaque,  // imm: vreg (an unexpected defining opcode)
  kAnchor,  // imm: block << 32 | anchored-event index
  kPhi,     // imm: block << 32 | phi destination
};

/// Symbolic value terms per vreg, over a term table shared by the two
/// functions being compared. Phis and anchored definitions (loads,
/// divisions) are opaque atoms assigned by structural position, so the two
/// functions produce comparable terms.
struct ExprCtx {
  const Function* fn = nullptr;
  TermTable* terms = nullptr;
  std::vector<ssa::detail::DefSite> sites;
  std::vector<TermId> atom;  // kNoTerm: not an atom
  std::vector<TermId> memo;
  std::vector<char> state;  // 0 = new, 1 = in progress, 2 = done

  ExprCtx(const Function& f, TermTable& t)
      : fn(&f),
        terms(&t),
        sites(ssa::detail::def_sites(f)),
        atom(f.vregs.size(), kNoTerm),
        memo(f.vregs.size(), kNoTerm),
        state(f.vregs.size(), 0) {}
};

TermId expr_of(ExprCtx& cx, VReg v) {
  TermTable& t = *cx.terms;
  if (v >= cx.fn->vregs.size()) return t.make(kBad, v);
  if (cx.atom[v] != kNoTerm) return cx.atom[v];
  if (cx.state[v] == 2) return cx.memo[v];
  if (cx.state[v] == 1) return t.make(kCycle, v);  // ill-formed
  cx.state[v] = 1;
  const Instr* d = ssa::detail::def_instr(*cx.fn, cx.sites, v);
  TermId e = kNoTerm;
  if (d == nullptr) {
    // Undefined vregs read the zero of their class (executor semantics).
    e = t.make(kUndef, static_cast<int>(cx.fn->vregs[v]));
  } else {
    switch (d->op) {
      case Opcode::LdI:
        e = t.make(kLdI, d->int_imm);
        break;
      case Opcode::LdF: {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d->f64_imm, sizeof(bits));
        e = t.make(kLdF, static_cast<std::int64_t>(bits));
        break;
      }
      case Opcode::Mov:
        e = expr_of(cx, d->src1);
        break;
      case Opcode::Un:
        e = t.make(kUn, static_cast<int>(d->un_op), {expr_of(cx, d->src1)});
        break;
      case Opcode::Bin: {
        const TermId a = expr_of(cx, d->src1);
        const TermId b = expr_of(cx, d->src2);
        const auto op = static_cast<int>(d->bin_op);
        e = commutative_int(d->bin_op) ? t.make_commutative(kBin, a, b, op)
                                       : t.make(kBin, op, {a, b});
        break;
      }
      case Opcode::GetParam:
        e = t.make(kParam, d->param_index);
        break;
      default:
        // Anchored defs carry atoms; anything else here is unexpected and
        // compares unequal by construction.
        e = t.make(kOpaque, v);
        break;
    }
  }
  cx.state[v] = 2;
  cx.memo[v] = e;
  return e;
}

}  // namespace

CheckResult check_ssa_equivalence(const Function& before,
                                  const Function& after) {
  if (before.blocks.size() != after.blocks.size())
    return CheckResult::fail("block count changed");
  if (before.vregs.size() != after.vregs.size())
    return CheckResult::fail("vreg count changed");
  for (VReg v = 0; v < before.vregs.size(); ++v)
    if (before.vregs[v] != after.vregs[v])
      return CheckResult::fail("vreg class changed for v" + std::to_string(v));
  if (before.params.size() != after.params.size())
    return CheckResult::fail("parameter list changed");

  TermTable terms;
  ExprCtx cb(before, terms);
  ExprCtx ca(after, terms);

  // Pass 1: CFG identity, anchored-sequence shape, atom assignment.
  struct AnchorPair {
    const Instr* b = nullptr;
    const Instr* a = nullptr;
    BlockId block = 0;
  };
  std::vector<AnchorPair> anchors;
  for (BlockId b = 0; b < before.blocks.size(); ++b) {
    if (before.blocks[b].successors() != after.blocks[b].successors())
      return CheckResult::fail("successors of bb" + std::to_string(b) +
                               " changed");
    std::vector<const Instr*> ab, aa;
    std::size_t bphis = 0, aphis = 0;
    for (const Instr& ins : before.blocks[b].instrs) {
      if (is_anchored(ins)) ab.push_back(&ins);
      if (ins.op == Opcode::Phi) ++bphis;
    }
    for (const Instr& ins : after.blocks[b].instrs) {
      if (is_anchored(ins)) aa.push_back(&ins);
      if (ins.op == Opcode::Phi) ++aphis;
    }
    if (ab.size() != aa.size())
      return CheckResult::fail("anchored event count changed in bb" +
                               std::to_string(b));
    if (bphis != aphis)
      return CheckResult::fail("phi count changed in bb" + std::to_string(b));
    for (std::size_t k = 0; k < ab.size(); ++k) {
      if (ab[k]->op != aa[k]->op)
        return CheckResult::fail("anchored event kind changed in bb" +
                                 std::to_string(b));
      // Anchored defs (loads, divisions) become one shared atom per
      // structural position.
      const auto db = ab[k]->def();
      const auto da = aa[k]->def();
      if (db.has_value() != da.has_value())
        return CheckResult::fail("anchored definition changed in bb" +
                                 std::to_string(b));
      if (db) {
        const TermId tag = terms.make(kAnchor, pack_imm(b, k));
        cb.atom[*db] = tag;
        ca.atom[*da] = tag;
        if (before.vregs[*db] != after.vregs[*da])
          return CheckResult::fail("anchored definition class changed in bb" +
                                   std::to_string(b));
      }
      anchors.push_back({ab[k], aa[k], b});
    }
    // Phis correspond by (block, dst): GVN and LICM preserve names. The
    // atoms make each phi an opaque node; pass 2 checks the edges.
    std::size_t ai = 0;
    for (const Instr& bp : before.blocks[b].instrs) {
      if (bp.op != Opcode::Phi) break;
      const Instr& ap = after.blocks[b].instrs[ai++];
      if (ap.op != Opcode::Phi || ap.dst != bp.dst)
        return CheckResult::fail("phi set changed in bb" + std::to_string(b));
      const TermId tag = terms.make(kPhi, pack_imm(b, bp.dst));
      cb.atom[bp.dst] = tag;
      ca.atom[ap.dst] = tag;
    }
  }

  // Pass 2: operand equivalence at every anchored event...
  const auto equiv = [&](VReg vb, VReg va) {
    return expr_of(cb, vb) == expr_of(ca, va);
  };
  for (const AnchorPair& p : anchors) {
    const Instr& b = *p.b;
    const Instr& a = *p.a;
    const std::string where = "bb" + std::to_string(p.block);
    switch (b.op) {
      case Opcode::LoadGlobal:
      case Opcode::StoreGlobal:
      case Opcode::LoadGlobalIdx:
      case Opcode::StoreGlobalIdx:
        if (b.sym != a.sym || b.elem != a.elem)
          return CheckResult::fail("memory event location changed in " +
                                   where);
        break;
      case Opcode::LoadStack:
      case Opcode::StoreStack:
        if (b.slot != a.slot)
          return CheckResult::fail("stack event slot changed in " + where);
        break;
      case Opcode::Annot: {
        if (b.annot_format != a.annot_format ||
            b.annot_args.size() != a.annot_args.size())
          return CheckResult::fail("annotation changed in " + where);
        for (std::size_t k = 0; k < b.annot_args.size(); ++k) {
          const auto& xb = b.annot_args[k];
          const auto& xa = a.annot_args[k];
          if (xb.is_slot != xa.is_slot)
            return CheckResult::fail("annotation operand kind changed in " +
                                     where);
          if (xb.is_slot && xb.slot != xa.slot)
            return CheckResult::fail("annotation slot changed in " + where);
          if (!xb.is_slot && !equiv(xb.vreg, xa.vreg))
            return CheckResult::fail("annotation value diverged in " + where);
        }
        break;
      }
      case Opcode::Bin:
        if (b.bin_op != a.bin_op)
          return CheckResult::fail("division operator changed in " + where);
        break;
      case Opcode::Branch:
      case Opcode::BranchCmp:
      case Opcode::Jump:
        if (b.target != a.target || b.target2 != a.target2 ||
            b.bin_op != a.bin_op)
          return CheckResult::fail("terminator changed in " + where);
        break;
      case Opcode::Ret:
        if ((b.src1 == kNoVReg) != (a.src1 == kNoVReg))
          return CheckResult::fail("return arity changed in " + where);
        break;
      default:
        break;
    }
    // Value operands (order-sensitive: division and float compares are
    // never commuted). Anchored events are never phis, so each reads at
    // most two.
    if (b.op != Opcode::Annot) {  // annot args compared above
      VReg ub[2];
      VReg ua[2];
      std::size_t nb = 0;
      std::size_t na = 0;
      rtl::for_each_use(b, [&](VReg u) { ub[nb++] = u; });
      rtl::for_each_use(a, [&](VReg u) { ua[na++] = u; });
      if (nb != na)
        return CheckResult::fail("operand count diverged in " + where);
      for (std::size_t k = 0; k < nb; ++k)
        if (!equiv(ub[k], ua[k]))
          return CheckResult::fail("operand value diverged at a " +
                                   rtl::to_string(b.op) + " in " + where);
    }
  }

  // ... and edge-wise at every phi (the bisimulation step: assuming all phi
  // atoms equal, each pair must merge equivalent values per predecessor).
  for (BlockId b = 0; b < before.blocks.size(); ++b) {
    std::size_t ai = 0;
    for (const Instr& bp : before.blocks[b].instrs) {
      if (bp.op != Opcode::Phi) break;
      const Instr& ap = after.blocks[b].instrs[ai++];
      if (bp.phi_args.size() != ap.phi_args.size())
        return CheckResult::fail("phi arity changed in bb" +
                                 std::to_string(b));
      for (std::size_t k = 0; k < bp.phi_args.size(); ++k) {
        if (bp.phi_args[k].pred != ap.phi_args[k].pred)
          return CheckResult::fail("phi predecessor changed in bb" +
                                   std::to_string(b));
        if (!equiv(bp.phi_args[k].src, ap.phi_args[k].src))
          return CheckResult::fail("phi argument diverged in bb" +
                                   std::to_string(b) + " for v" +
                                   std::to_string(bp.dst));
      }
    }
  }
  return CheckResult::pass();
}

// ---------------------------------------------------------------------------
// Unroll annotation-rewrite certificate (ssa-unroll)
// ---------------------------------------------------------------------------

CheckResult check_unroll_certificate(const Function& before,
                                     const Function& after,
                                     const ssa::UnrollCertificate& cert) {
  const auto annot_at = [](const Function& fn, const ssa::AnnotAnchor& a)
      -> const Instr* {
    if (a.block >= fn.blocks.size()) return nullptr;
    if (a.index >= fn.blocks[a.block].instrs.size()) return nullptr;
    const Instr& ins = fn.blocks[a.block].instrs[a.index];
    return ins.op == Opcode::Annot ? &ins : nullptr;
  };

  // Per-format annotation counts; the certificate must account for every
  // change between them.
  std::map<std::string, long long> expected;
  for (const auto& blk : before.blocks)
    for (const Instr& ins : blk.instrs)
      if (ins.op == Opcode::Annot) ++expected[ins.annot_format];

  std::set<std::pair<BlockId, std::uint32_t>> seen_before, seen_after;
  for (const ssa::UnrollLoopCert& row : cert.loops) {
    const std::string who = "unroll certificate for loop at bb" +
                            std::to_string(row.header) + ": ";
    if (row.function != before.name)
      return CheckResult::fail(who + "names function '" + row.function + "'");
    if (row.factor < 2)
      return CheckResult::fail(who + "factor " + std::to_string(row.factor) +
                               " < 2");
    if (row.original_bound < 1)
      return CheckResult::fail(who + "non-positive original bound");
    // Eliding the interior tests is only sound when the factor divides the
    // trip count; the residual bound is then exactly ceil(n/k) = n/k.
    if (row.original_bound % row.factor != 0)
      return CheckResult::fail(who + "factor does not divide the bound");
    const long long ceil_nk =
        (row.original_bound + row.factor - 1) / row.factor;
    if (row.residual_bound != ceil_nk)
      return CheckResult::fail(who + "residual bound " +
                               std::to_string(row.residual_bound) +
                               " != ceil(n/k) = " + std::to_string(ceil_nk));
    if (row.old_format != "loop <= " + std::to_string(row.original_bound))
      return CheckResult::fail(who + "old format does not spell the bound");
    if (row.new_format != "loop <= " + std::to_string(row.residual_bound))
      return CheckResult::fail(who + "new format does not spell the residual");
    if (row.before_anchors.empty())
      return CheckResult::fail(who + "no before-anchors");
    if (row.after_anchors.size() !=
        row.before_anchors.size() * static_cast<std::size_t>(row.factor))
      return CheckResult::fail(who + "expected k after-anchors per " +
                               "before-anchor");
    for (const ssa::AnnotAnchor& a : row.before_anchors) {
      const Instr* ins = annot_at(before, a);
      if (ins == nullptr || ins->annot_format != row.old_format)
        return CheckResult::fail(who + "before-anchor " + at(a.block, a.index) +
                                 " is not an annotation with the old format");
      if (!seen_before.insert({a.block, a.index}).second)
        return CheckResult::fail(who + "duplicate before-anchor " +
                                 at(a.block, a.index));
    }
    for (const ssa::AnnotAnchor& a : row.after_anchors) {
      const Instr* ins = annot_at(after, a);
      if (ins == nullptr || ins->annot_format != row.new_format)
        return CheckResult::fail(who + "after-anchor " + at(a.block, a.index) +
                                 " is not an annotation with the new format");
      if (!seen_after.insert({a.block, a.index}).second)
        return CheckResult::fail(who + "duplicate after-anchor " +
                                 at(a.block, a.index));
    }
    expected[row.old_format] -=
        static_cast<long long>(row.before_anchors.size());
    expected[row.new_format] +=
        static_cast<long long>(row.after_anchors.size());
  }

  std::map<std::string, long long> actual;
  for (const auto& blk : after.blocks)
    for (const Instr& ins : blk.instrs)
      if (ins.op == Opcode::Annot) ++actual[ins.annot_format];
  for (auto it = expected.begin(); it != expected.end();) {
    if (it->second == 0)
      it = expected.erase(it);
    else
      ++it;
  }
  if (expected != actual)
    return CheckResult::fail(
        "annotation counts not conserved by the unroll certificate");
  return CheckResult::pass();
}

}  // namespace vc::validate
