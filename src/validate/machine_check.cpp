// Machine-level translation validators: register allocation, machine-code
// equivalence (self-move removal / peephole fusion), and list scheduling.
// Each checker re-derives the safety argument independently of the pass it
// checks (its own liveness, its own symbolic execution, its own dependence
// edges from the shared resource model).
#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "mach/liveness.hpp"
#include "mach/semantics.hpp"
#include "mach/timing.hpp"
#include "rtl/analysis.hpp"
#include "support/bitset.hpp"
#include "validate/machine_terms.hpp"
#include "validate/validate.hpp"

namespace vc::validate {

using mach::AsmFunction;
using mach::AsmOp;
using mach::IssueModel;
using mach::MInstr;
using mach::MOp;
using rtl::BlockId;
using rtl::Instr;
using rtl::Opcode;
using rtl::VReg;

// ---------------------------------------------------------------------------
// Register-allocation checker
// ---------------------------------------------------------------------------
//
// Two obligations (Rideau & Leroy's decomposition):
//   B. spill round-trip — `after` is `before` under the spill-everywhere
//      discipline: every use of a spilled value reloads from its slot into a
//      fresh temporary immediately before the use, every definition stores
//      back immediately after, and nothing else touches a spill slot;
//   A. coloring — on `after`, an independent liveness analysis proves that
//      no two simultaneously live same-class registers share a color (so at
//      every program point, each use reads the value last written to its
//      assigned register).

namespace {

std::string at(BlockId b, std::size_t i) {
  return "bb" + std::to_string(b) + " instr " + std::to_string(i);
}

}  // namespace

CheckResult check_register_allocation(const rtl::Function& before,
                                      const rtl::Function& after,
                                      const regalloc::Allocation& alloc,
                                      int k_int, int k_float) {
  if (before.blocks.size() != after.blocks.size())
    return CheckResult::fail("block count changed");
  if (alloc.locs.size() != after.vregs.size())
    return CheckResult::fail("allocation does not cover every vreg");
  if (after.slots.size() < before.slots.size())
    return CheckResult::fail("stack slots disappeared");

  // Which original vregs occur in `before` (a vreg can exist but be unused).
  std::vector<bool> occurs(before.vregs.size(), false);
  for (const auto& bb : before.blocks)
    for (const Instr& ins : bb.instrs) {
      if (auto d = ins.def()) occurs[*d] = true;
      rtl::for_each_use(ins, [&](VReg u) { occurs[u] = true; });
    }

  // Spilled vregs: occur in `before` but were not given a register. Each must
  // own a distinct fresh slot of its class.
  std::map<rtl::Slot, VReg> slot_owner;
  int spilled = 0;
  for (VReg v = 0; v < before.vregs.size(); ++v) {
    if (!occurs[v] || alloc.locs[v].in_reg) continue;
    const rtl::Slot slot = alloc.locs[v].slot;
    if (slot < before.slots.size() || slot >= after.slots.size())
      return CheckResult::fail("spilled vreg " + std::to_string(v) +
                               " mapped to a non-fresh slot");
    if (after.slots[slot] != before.vregs[v])
      return CheckResult::fail("spill slot class mismatch for vreg " +
                               std::to_string(v));
    if (!slot_owner.emplace(slot, v).second)
      return CheckResult::fail("two spilled vregs share slot " +
                               std::to_string(slot));
    ++spilled;
  }
  if (spilled != alloc.spill_count)
    return CheckResult::fail("spill count disagrees with allocation");
  if (after.slots.size() != before.slots.size() + slot_owner.size())
    return CheckResult::fail("unaccounted fresh stack slots");

  // Obligation B: per-block cursor walk reconstructing `before` from `after`
  // by undoing the reload/store discipline. Temporaries (vreg ids beyond the
  // original universe) are bound by the reload immediately preceding their
  // single use and forgotten right after it.
  const VReg first_tmp = static_cast<VReg>(before.vregs.size());
  for (BlockId b = 0; b < before.blocks.size(); ++b) {
    const auto& ib = before.blocks[b].instrs;
    const auto& ia = after.blocks[b].instrs;
    std::size_t j = 0;
    std::map<VReg, VReg> bound;  // temporary -> spilled vreg it reloads

    for (std::size_t i = 0; i < ib.size(); ++i) {
      const Instr& x = ib[i];

      // Reloads directly preceding the use they feed.
      while (j < ia.size() && ia[j].op == Opcode::LoadStack &&
             ia[j].slot >= before.slots.size()) {
        auto owner = slot_owner.find(ia[j].slot);
        if (owner == slot_owner.end())
          return CheckResult::fail(at(b, i) + ": reload from unknown slot " +
                                   std::to_string(ia[j].slot));
        if (ia[j].dst < first_tmp)
          return CheckResult::fail(at(b, i) +
                                   ": reload into a non-temporary register");
        bound[ia[j].dst] = owner->second;
        ++j;
      }
      if (j >= ia.size())
        return CheckResult::fail(at(b, i) + ": instruction missing");

      Instr y = ia[j++];
      auto translate_use = [&](VReg& r) {
        if (r == rtl::kNoVReg || r < first_tmp) return true;
        auto it = bound.find(r);
        if (it == bound.end()) return false;
        r = it->second;
        return true;
      };
      if (!translate_use(y.src1) || !translate_use(y.src2))
        return CheckResult::fail(at(b, i) + ": use of an unbound temporary");
      for (auto& a : y.annot_args) {
        if (a.is_slot && a.slot >= before.slots.size()) {
          auto owner = slot_owner.find(a.slot);
          if (owner == slot_owner.end())
            return CheckResult::fail(at(b, i) + ": annot names unknown slot");
          // A spilled annotation operand references the value's home slot.
          a = rtl::AnnotOperand::of_vreg(owner->second);
        } else if (!a.is_slot && a.vreg >= first_tmp) {
          return CheckResult::fail(at(b, i) + ": annot names a temporary");
        }
      }

      // A definition into a temporary must store back to its owner's slot
      // immediately.
      if (auto d = y.def(); d && *d >= first_tmp) {
        if (j >= ia.size() || ia[j].op != Opcode::StoreStack ||
            ia[j].src1 != *d || ia[j].slot < before.slots.size())
          return CheckResult::fail(at(b, i) +
                                   ": temporary definition without store-back");
        auto owner = slot_owner.find(ia[j].slot);
        if (owner == slot_owner.end())
          return CheckResult::fail(at(b, i) + ": store-back to unknown slot");
        y.dst = owner->second;
        ++j;
      }

      if (!rtl::identical(x, y))
        return CheckResult::fail(at(b, i) +
                                 ": instruction altered beyond spilling");
      bound.clear();  // reload temporaries are single-use
    }
    if (j != ia.size())
      return CheckResult::fail("bb" + std::to_string(b) +
                               ": trailing added instructions");
  }

  // Obligation A: coloring validity on `after` under independent liveness.
  std::vector<bool> present(after.vregs.size(), false);
  for (const auto& bb : after.blocks)
    for (const Instr& ins : bb.instrs) {
      if (auto d = ins.def()) present[*d] = true;
      rtl::for_each_use(ins, [&](VReg u) { present[u] = true; });
    }
  for (VReg v = 0; v < after.vregs.size(); ++v) {
    if (!present[v]) continue;
    const regalloc::Loc& loc = alloc.locs[v];
    if (!loc.in_reg)
      return CheckResult::fail("vreg " + std::to_string(v) +
                               " still present but not in a register");
    const int k = after.vregs[v] == rtl::RegClass::I32 ? k_int : k_float;
    if (loc.color < 0 || loc.color >= k)
      return CheckResult::fail("vreg " + std::to_string(v) +
                               " colored out of range");
  }

  thread_local rtl::Liveness lv;
  rtl::compute_liveness(after, &lv);
  DenseBitset live(after.vregs.size());
  for (BlockId b = 0; b < after.blocks.size(); ++b) {
    live = lv.live_out[b];
    const auto& instrs = after.blocks[b].instrs;
    for (std::size_t i = instrs.size(); i-- > 0;) {
      const Instr& ins = instrs[i];
      if (auto d = ins.def()) {
        CheckResult conflict = CheckResult::pass();
        live.for_each([&](std::size_t l) {
          const VReg w = static_cast<VReg>(l);
          if (w == *d || after.vregs[w] != after.vregs[*d]) return;
          // A move's destination may share its source's color: at this
          // definition both hold the same value.
          if (ins.op == Opcode::Mov && w == ins.src1) return;
          if (conflict.ok && alloc.locs[w].color == alloc.locs[*d].color)
            conflict = CheckResult::fail(
                at(b, i) + ": vregs " + std::to_string(*d) + " and " +
                std::to_string(w) + " live together share color " +
                std::to_string(alloc.locs[*d].color));
        });
        if (!conflict.ok) return conflict;
        live.reset(*d);
      }
      rtl::for_each_use(ins, [&](VReg u) { live.set(u); });
    }
  }
  return CheckResult::pass();
}

// ---------------------------------------------------------------------------
// Machine-equivalence checker (self-move removal, peephole fusion)
// ---------------------------------------------------------------------------
//
// Both functions are cut at their markers (labels and annotation anchors,
// which these rewrites preserve in content and order); corresponding
// segments are then symbolically executed over the 73 machine resources.
// Fused forms normalize to the expressions of their unfused equivalents
// (fmadd = fadd(fmul(a,b),c); cmpwi/addi fold their immediate exactly like a
// preceding li would). Memory accesses and control transfers become ordered
// event lists that must match; register state is compared at every branch
// and at segment exit, restricted to the registers an independent machine
// liveness analysis (on the before function) proves may still be read.
// Values and events are hash-consed terms (validate/term.hpp) in one table
// per segment, so every comparison is an id comparison and the work per op
// is constant; a term becomes text only inside a failure message.

namespace {

constexpr const char* kOpName[] = {
    "add",  "mul",  "and", "or",   "xor",  "nor",  "fadd", "fmul", "feq",
    "sub",  "div",  "slw", "sraw", "srw",  "cmp",  "fcmp", "fsub", "fdiv",
    "sll",  "srl",  "sra", "slt",  "sltu", "rem",  "flt",  "fle",  "lis",
    "neg",  "fneg", "fabs", "fcti", "icvf", "lui", "mfcr"};
static_assert(std::size(kOpName) == kNumKinds - kAdd);

/// Longest text a failure message gives one rendered term; longer renderings
/// are cut and marked "...".
constexpr std::size_t kMaxTermText = 1024;

std::string render_node(const SegmentTerms& st, TermId t,
                        const std::vector<std::string>& text) {
  const TermTable& table = st.table;
  const auto kind = static_cast<MKind>(table.kind(t));
  const std::int64_t imm = table.imm(t);
  const auto kids = table.kids(t);
  const auto field = [imm](int shift, std::int64_t mask) {
    return std::to_string(imm >> shift & mask);
  };
  const auto kid = [&](std::size_t k) -> const std::string& {
    return text[kids[k]];
  };
  std::string s;
  switch (kind) {
    case kInit:
      s = "init" + std::to_string(imm >> 32) + ":" + field(0, 0xFFFFFFFF);
      break;
    case kMem:
      s = "mem" + std::to_string(imm >> 32) + ":" + field(0, 0xFFFFFFFF);
      break;
    case kConst:
      s = "c" + std::to_string(imm);
      break;
    case kSym:
      s = std::string(st.syms[static_cast<std::size_t>(imm)]);
      break;
    case kRel:
      s = "rel" + std::to_string(imm >> 32) + ":" + kid(0) + "+" +
          std::to_string(static_cast<std::int32_t>(imm & 0xFFFFFFFF));
      break;
    case kRlwinm:
      s = "rlwinm(" + kid(0) + "," + field(16, 0xFF) + "," +
          field(8, 0xFF) + "," + field(0, 0xFF) + ")";
      break;
    case kCrins:
      s = "crins(" + kid(0) + "," + field(16, 0xFF) + ",bit(" + kid(1) +
          "," + field(8, 0xFF) + ")|bit(" + kid(2) + "," + field(0, 0xFF) +
          "))";
      break;
    case kLoad4:
    case kLoad8:
      s = std::string(kind == kLoad4 ? "l4[" : "l8[") + kid(0) + "]";
      break;
    case kStore4:
    case kStore8:
      s = std::string(kind == kStore4 ? "s4[" : "s8[") + kid(0) + "]=" +
          kid(1);
      break;
    case kJump:
      s = "b->" + std::to_string(imm);
      break;
    case kJumpCond:
      s = "bc->" + std::to_string(imm >> 16) + ":" + field(1, 0x7FFF) +
          "=" + field(0, 1) + ":" + kid(0);
      break;
    case kReturn:
      s = "blr";
      break;
    case kCmpBranch:
      s = mach::mnemonic(static_cast<MOp>(imm & 0xFF)) + "->" +
          std::to_string(imm >> 8) + ":" + kid(0) + "," + kid(1);
      break;
    default: {
      // Commutative operands in string order, as the texts compare.
      const bool swap = kind <= kFeq && kid(1) < kid(0);
      s = std::string(kOpName[kind - kAdd]) + "(";
      for (std::size_t k = 0; k < kids.size(); ++k)
        s += (k > 0 ? "," : "") + kid(swap ? 1 - k : k);
      s += ")";
      break;
    }
  }
  if (s.size() > kMaxTermText) {
    s.resize(kMaxTermText);
    s += "...";
  }
  return s;
}

/// The text of `root`, children of commutative operators sorted as
/// strings; `text` memoizes node texts across calls.
std::string render(const SegmentTerms& st, TermId root,
                   std::vector<std::string>& text) {
  text.resize(st.table.size());
  st.table.for_each_reachable(root, [&](TermId t) {
    if (text[t].empty()) text[t] = render_node(st, t, text);
  });
  return text[root];
}

}  // namespace

namespace {

/// mach::step's term domain: every value is a term of the segment's table,
/// and loads, stores and branches append events.
struct TermStep {
  SegmentTerms& st;
  SymEnv& env;
  std::vector<MEvent>& events;
  int& n_loads;
  const AsmOp& op;
  std::size_t pos;

  TermId make(MKind k, std::int64_t imm, std::initializer_list<TermId> kids) {
    return st.table.make(k, imm, kids);
  }
  TermId un(MKind k, TermId x) { return make(k, 0, {x}); }
  TermId bin(MKind k, TermId a, TermId b) { return make(k, 0, {a, b}); }
  TermId comm(MKind k, TermId a, TermId b) {
    return st.table.make_commutative(k, a, b);
  }

  TermId gpr(int r) { return env.gpr(r); }
  TermId fpr(int r) { return env.fpr(r); }
  TermId crf(int f) { return env.crf(f); }
  void set_gpr(int r, TermId v) { env.gpr(r) = v; }
  void set_fpr(int r, TermId v) { env.fpr(r) = v; }
  void set_crf(int f, TermId v) { env.crf(f) = v; }
  TermId imm() { return st.imm_token(op); }

  TermId lis(TermId i) { return un(kLis, i); }
  TermId lui(TermId i) { return un(kLui, i); }
  TermId add(TermId a, TermId b) { return comm(kAdd, a, b); }
  TermId sub(TermId a, TermId b) { return bin(kSub, a, b); }
  TermId mul(TermId a, TermId b) { return comm(kMul, a, b); }
  TermId div(TermId a, TermId b) { return bin(kDiv, a, b); }
  TermId rem(TermId a, TermId b) { return bin(kRem, a, b); }
  TermId and_(TermId a, TermId b) { return comm(kAnd, a, b); }
  TermId or_(TermId a, TermId b) { return comm(kOr, a, b); }
  TermId xor_(TermId a, TermId b) { return comm(kXor, a, b); }
  TermId nor(TermId a, TermId b) { return comm(kNor, a, b); }
  TermId neg(TermId a) { return un(kNeg, a); }
  TermId slw(TermId a, TermId n) { return bin(kSlw, a, n); }
  TermId srw(TermId a, TermId n) { return bin(kSrw, a, n); }
  TermId sraw(TermId a, TermId n) { return bin(kSraw, a, n); }
  TermId sll(TermId a, TermId n) { return bin(kSll, a, n); }
  TermId srl(TermId a, TermId n) { return bin(kSrl, a, n); }
  TermId sra(TermId a, TermId n) { return bin(kSra, a, n); }
  TermId rlwinm(TermId x, int sh, int mb, int me) {
    return make(kRlwinm, sh << 16 | mb << 8 | me, {x});
  }
  TermId slt(TermId a, TermId b) { return bin(kSlt, a, b); }
  TermId sltu(TermId a, TermId b) { return bin(kSltu, a, b); }
  // cmpwi is the folded form of li rT,imm; cmpw crf,ra,rT.
  TermId cmp(TermId a, TermId b) { return bin(kCmp, a, b); }
  TermId fcmp(TermId a, TermId b) { return bin(kFcmp, a, b); }
  TermId cror(TermId old, TermId a, TermId b, int bd, int ba, int bb) {
    return make(kCrins, bd << 16 | ba << 8 | bb, {old, a, b});
  }
  TermId mfcr() {
    std::array<TermId, 8> fields;
    for (int f = 0; f < 8; ++f) fields[static_cast<std::size_t>(f)] = crf(f);
    return st.table.make(kMfcr, 0, fields);
  }
  TermId fadd(TermId a, TermId b) { return comm(kFadd, a, b); }
  TermId fsub(TermId a, TermId b) { return bin(kFsub, a, b); }
  TermId fmul(TermId a, TermId b) { return comm(kFmul, a, b); }
  TermId fdiv(TermId a, TermId b) { return bin(kFdiv, a, b); }
  TermId fneg(TermId a) { return un(kFneg, a); }
  TermId fabs(TermId a) { return un(kFabs, a); }
  TermId fcti(TermId a) { return un(kFcti, a); }
  TermId icvf(TermId a) { return un(kIcvf, a); }
  TermId feq(TermId a, TermId b) { return comm(kFeq, a, b); }
  TermId flt(TermId a, TermId b) { return bin(kFlt, a, b); }
  TermId fle(TermId a, TermId b) { return bin(kFle, a, b); }
  TermId ea(TermId base, TermId offset) { return add(base, offset); }
  TermId load(MKind width, TermId addr) {
    events.push_back({make(width, 0, {addr}), false, pos, {}});
    return make(kMem, pack_imm(st.segment, n_loads++), {});
  }
  TermId load4(TermId addr) { return load(kLoad4, addr); }
  TermId load8(TermId addr) { return load(kLoad8, addr); }
  void store4(TermId addr, TermId v) {
    events.push_back({make(kStore4, 0, {addr, v}), false, pos, {}});
  }
  void store8(TermId addr, TermId v) {
    events.push_back({make(kStore8, 0, {addr, v}), false, pos, {}});
  }
  // A compare-and-branch tag carries the tested operand terms and the
  // opcode, so both the condition and the target must agree.
  TermId cmp_branch(TermId a, TermId b) {
    return make(kCmpBranch,
                std::int64_t{op.target_label} << 8 |
                    static_cast<std::uint8_t>(op.ins.op),
                {a, b});
  }
  TermId eq(TermId a, TermId b) { return cmp_branch(a, b); }
  TermId ne(TermId a, TermId b) { return cmp_branch(a, b); }
  TermId lt(TermId a, TermId b) { return cmp_branch(a, b); }
  TermId ge(TermId a, TermId b) { return cmp_branch(a, b); }
  TermId crbit(TermId field, int bit, bool expect) {
    return make(kJumpCond,
                std::int64_t{op.target_label} << 16 | bit << 1 |
                    (expect ? 1 : 0),
                {field});
  }
  void branch_if(TermId tag) { events.push_back({tag, true, pos, env.val}); }
  void jump() { branch_if(make(kJump, op.target_label, {})); }
  void ret() { branch_if(make(kReturn, 0, {})); }
};

}  // namespace

void sym_step(const AsmOp& op, std::size_t pos, int zero_gpr,
              SegmentTerms& st, SymEnv& env, std::vector<MEvent>& events,
              int& n_loads) {
  TermStep d{st, env, events, n_loads, op, pos};
  mach::step(d, op.ins);
  if (zero_gpr >= 0) env.gpr(zero_gpr) = static_cast<TermId>(zero_gpr);
}

namespace {

/// Marker: a label or an annotation anchor. Identity ignores the op index
/// (the rewrite moves anchors); same-position markers sort by identity so
/// both sides enumerate them in the same order.
struct Marker {
  std::size_t pos = 0;
  std::string id;
};

std::vector<Marker> markers_of(const AsmFunction& fn) {
  std::vector<Marker> ms;
  for (const auto& [label, lpos] : fn.labels)
    ms.push_back({lpos, "L" + std::to_string(label)});
  for (const auto& a : fn.annots) {
    std::string id = "A" + a.format;
    for (const auto& operand : a.operands) id += "|" + operand.to_string();
    ms.push_back({a.addr, id});
  }
  std::sort(ms.begin(), ms.end(), [](const Marker& x, const Marker& y) {
    return x.pos != y.pos ? x.pos < y.pos : x.id < y.id;
  });
  return ms;
}

}  // namespace

CheckResult check_machine_equivalence(const AsmFunction& before,
                                      const mach::TargetDesc& desc,
                                      const AsmFunction& after) {
  if (before.name != after.name) return CheckResult::fail("name changed");
  if (before.frame_bytes != after.frame_bytes)
    return CheckResult::fail("frame size changed");

  const std::vector<Marker> mb = markers_of(before);
  const std::vector<Marker> ma = markers_of(after);
  if (mb.size() != ma.size())
    return CheckResult::fail("label/annotation markers changed");
  // The rewrites this checker admits only delete or replace instructions,
  // so marker addresses shift monotonically: distinct addresses can merge
  // but never reorder. A merged run sorts by id, which need not match the
  // original distinct-address order, so compare ids as a multiset over
  // each equal-address run of the after list (its members occupy the same
  // index range in both sorted lists).
  for (std::size_t s = 0; s < ma.size();) {
    std::size_t e = s + 1;
    while (e < ma.size() && ma[e].pos == ma[s].pos) ++e;
    std::vector<std::string> ids_b, ids_a;
    for (std::size_t k = s; k < e; ++k) {
      ids_b.push_back(mb[k].id);
      ids_a.push_back(ma[k].id);
    }
    std::sort(ids_b.begin(), ids_b.end());
    std::sort(ids_a.begin(), ids_a.end());
    if (ids_b != ids_a)
      return CheckResult::fail("marker run at op " +
                               std::to_string(ma[s].pos) +
                               " changed identity");
    s = e;
  }

  const mach::MachineLiveness live_before(before, desc);

  // Segment boundaries: start, each marker position, end.
  auto bounds = [](const std::vector<Marker>& ms, std::size_t n) {
    std::vector<std::size_t> b{0};
    for (const Marker& m : ms) b.push_back(m.pos);
    b.push_back(n);
    return b;
  };
  const std::vector<std::size_t> bb = bounds(mb, before.ops.size());
  const std::vector<std::size_t> ba = bounds(ma, after.ops.size());

  SegmentTerms st;
  std::vector<MEvent> ev_b, ev_a;
  for (std::size_t seg = 0; seg + 1 < bb.size(); ++seg) {
    const std::size_t b0 = bb[seg], b1 = bb[seg + 1];
    const std::size_t a0 = ba[seg], a1 = ba[seg + 1];
    if (b0 > b1 || a0 > a1)
      return CheckResult::fail("markers out of order");
    if (b0 == b1 && a0 == a1) continue;
    const auto where = [seg] { return "segment " + std::to_string(seg); };
    if (b0 == b1)
      return CheckResult::fail(where() + ": instructions added from nothing");

    st.reset(seg);
    SymEnv env_b, env_a;
    ev_b.clear();
    ev_a.clear();
    int loads_b = 0, loads_a = 0;
    for (std::size_t i = b0; i < b1; ++i)
      sym_step(before.ops[i], i, desc.zero_gpr, st, env_b, ev_b, loads_b);
    for (std::size_t i = a0; i < a1; ++i)
      sym_step(after.ops[i], i, desc.zero_gpr, st, env_a, ev_a, loads_a);

    if (ev_b.size() != ev_a.size())
      return CheckResult::fail(where() +
                               ": memory/branch event count differs");
    for (std::size_t k = 0; k < ev_b.size(); ++k) {
      if (ev_b[k].tag != ev_a[k].tag) {
        std::vector<std::string> text;
        return CheckResult::fail(where() + ": event " + std::to_string(k) +
                                 " differs: " + render(st, ev_b[k].tag, text) +
                                 " vs " + render(st, ev_a[k].tag, text));
      }
      if (!ev_b[k].is_branch) continue;
      // Every register that may still be read after the branch must agree.
      const auto& live = live_before.live_after_set(ev_b[k].pos);
      for (std::size_t r = 0; r < IssueModel::kNumResources; ++r)
        if (live.test(r) && ev_b[k].env[r] != ev_a[k].env[r])
          return CheckResult::fail(where() + ": resource " +
                                   std::to_string(r) +
                                   " differs at branch event " +
                                   std::to_string(k));
    }

    // Fallthrough exit: registers live after the segment's last before-op.
    const auto& live = live_before.live_after_set(b1 - 1);
    for (std::size_t r = 0; r < IssueModel::kNumResources; ++r)
      if (live.test(r) && env_b.val[r] != env_a.val[r])
        return CheckResult::fail(where() + ": live-out resource " +
                                 std::to_string(r) + " differs at exit");
  }
  return CheckResult::pass();
}

// ---------------------------------------------------------------------------
// Schedule checker
// ---------------------------------------------------------------------------

namespace {

bool asm_op_equal(const AsmOp& a, const AsmOp& b) {
  return a.ins == b.ins && a.target_label == b.target_label &&
         a.reloc_sym == b.reloc_sym && a.reloc_addend == b.reloc_addend &&
         a.reloc_kind == b.reloc_kind;
}

/// Validates one region: `after[begin..end)` must be a permutation of
/// `before[begin..end)` in which every dependence edge of the before region
/// (register/CR RAW/WAR/WAW via the shared resource model; memory ordered
/// except load-load) keeps its direction.
CheckResult check_region(const AsmFunction& before, const AsmFunction& after,
                         std::size_t begin, std::size_t end) {
  const std::size_t n = end - begin;
  const std::string where = "region [" + std::to_string(begin) + "," +
                            std::to_string(end) + ")";

  // Match after-ops to before-ops greedily (earliest unmatched equal op;
  // identical ops are interchangeable, so the choice cannot invalidate a
  // genuinely dependence-respecting schedule).
  std::vector<std::size_t> pos_after(n, n);  // before index -> after position
  std::vector<bool> taken(n, false);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t found = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      if (asm_op_equal(after.ops[begin + k], before.ops[begin + i])) {
        found = i;
        break;
      }
    }
    if (found == n)
      return CheckResult::fail(where + ": op at " + std::to_string(begin + k) +
                               " is not a permutation of the original");
    taken[found] = true;
    pos_after[found] = k;
  }

  int reads[IssueModel::kMaxResourcesPerInstr];
  int writes[IssueModel::kMaxResourcesPerInstr];
  int n_reads = 0, n_writes = 0;
  std::vector<std::vector<int>> rd(n), wr(n);
  std::vector<bool> is_mem(n), is_load(n);
  for (std::size_t i = 0; i < n; ++i) {
    const MInstr& m = before.ops[begin + i].ins;
    IssueModel::resources(m, reads, &n_reads, writes, &n_writes);
    rd[i].assign(reads, reads + n_reads);
    wr[i].assign(writes, writes + n_writes);
    is_mem[i] = mach::is_memory_op(m.op);
    is_load[i] = mach::is_load(m.op);
  }
  auto intersects = [](const std::vector<int>& a, const std::vector<int>& b) {
    for (int x : a)
      for (int y : b)
        if (x == y) return true;
    return false;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool raw = intersects(wr[i], rd[j]);
      const bool war = intersects(rd[i], wr[j]);
      const bool waw = intersects(wr[i], wr[j]);
      const bool mem = is_mem[i] && is_mem[j] && !(is_load[i] && is_load[j]);
      if ((raw || war || waw || mem) && pos_after[i] >= pos_after[j])
        return CheckResult::fail(
            where + ": dependence " + std::to_string(begin + i) + " -> " +
            std::to_string(begin + j) + " inverted by the schedule");
    }
  }
  return CheckResult::pass();
}

}  // namespace

CheckResult check_schedule(const AsmFunction& before,
                           const AsmFunction& after) {
  if (before.name != after.name) return CheckResult::fail("name changed");
  if (before.frame_bytes != after.frame_bytes)
    return CheckResult::fail("frame size changed");
  if (before.ops.size() != after.ops.size())
    return CheckResult::fail("op count changed");
  if (before.labels != after.labels)
    return CheckResult::fail("labels changed");
  if (before.annots.size() != after.annots.size())
    return CheckResult::fail("annotations changed");
  for (std::size_t k = 0; k < before.annots.size(); ++k) {
    const auto& x = before.annots[k];
    const auto& y = after.annots[k];
    bool same = x.addr == y.addr && x.format == y.format &&
                x.operands.size() == y.operands.size();
    for (std::size_t o = 0; same && o < x.operands.size(); ++o) {
      const auto& ox = x.operands[o];
      const auto& oy = y.operands[o];
      same = ox.kind == oy.kind && ox.index == oy.index &&
             ox.offset == oy.offset && ox.is_f64 == oy.is_f64;
    }
    if (!same) return CheckResult::fail("annotations changed");
  }

  // Region boundaries, exactly the scheduler's rule: function start/end,
  // labels, annotation anchors, and both sides of every branch.
  std::vector<bool> boundary(before.ops.size() + 1, false);
  boundary[0] = true;
  boundary[before.ops.size()] = true;
  for (const auto& [label, lpos] : before.labels) boundary[lpos] = true;
  for (const auto& a : before.annots) boundary[a.addr] = true;
  for (std::size_t i = 0; i < before.ops.size(); ++i) {
    if (mach::is_branch(before.ops[i].ins.op) ||
        before.ops[i].target_label >= 0) {
      boundary[i] = true;
      boundary[i + 1] = true;
    }
  }

  std::size_t begin = 0;
  for (std::size_t i = 1; i <= before.ops.size(); ++i) {
    if (!boundary[i]) continue;
    const CheckResult region = check_region(before, after, begin, i);
    if (!region.ok) return region;
    begin = i;
  }
  return CheckResult::pass();
}

}  // namespace vc::validate
