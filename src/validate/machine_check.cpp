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
#include "mach/timing.hpp"
#include "rtl/analysis.hpp"
#include "support/bitset.hpp"
#include "validate/term.hpp"
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
  rtl::compute_liveness(after, this_thread_workspace(), &lv);
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

/// Term kinds of the machine checker. Leaves are a resource's value at
/// segment entry, the n-th load of the segment, a constant, and a
/// relocation; operators carry their operands as children and their fixed
/// fields in the immediate. Memory accesses and control transfers are terms
/// too, so event comparison is id comparison.
enum MKind : std::uint32_t {
  kInit,    // imm: segment << 32 | resource
  kMem,     // imm: segment << 32 | load number
  kConst,   // imm: the constant
  kSym,     // imm: index into SegmentTerms::syms
  kRel,     // kids: symbol; imm: reloc kind << 32 | addend bits
  kRlwinm,  // kids: x; imm: sh << 16 | mb << 8 | me
  kCrins,   // kids: old field, field a, field b; imm: bd << 16 | ba << 8 | bb
  // Events.
  kLoad4, kLoad8,    // kids: address
  kStore4, kStore8,  // kids: address, value
  kJump,             // imm: label
  kJumpCond,         // kids: CR field; imm: label << 16 | crbit << 1 | expect
  kReturn,
  kCmpBranch,        // kids: a, b; imm: label << 8 | opcode
  // Operators rendered "name(kid,...)", named by kOpName. The commutative
  // ones (kAdd..kFeq) are built by make_commutative.
  kAdd, kMul, kAnd, kOr, kXor, kNor, kFadd, kFmul, kFeq,
  kSub, kDiv, kSlw, kSraw, kSrw, kCmp, kFcmp, kFsub, kFdiv, kSll, kSrl,
  kSra, kSlt, kSltu, kRem, kFlt, kFle,
  kLis, kNeg, kFneg, kFabs, kFcti, kIcvf, kLui,
  kMfcr,  // kids: the eight CR fields
  kNumKinds
};

constexpr const char* kOpName[] = {
    "add",  "mul",  "and", "or",   "xor",  "nor",  "fadd", "fmul", "feq",
    "sub",  "div",  "slw", "sraw", "srw",  "cmp",  "fcmp", "fsub", "fdiv",
    "sll",  "srl",  "sra", "slt",  "sltu", "rem",  "flt",  "fle",  "lis",
    "neg",  "fneg", "fabs", "fcti", "icvf", "lui", "mfcr"};
static_assert(std::size(kOpName) == kNumKinds - kAdd);

/// Longest text a failure message gives one rendered term; longer renderings
/// are cut and marked "...".
constexpr std::size_t kMaxTermText = 1024;

/// One segment's term table: ids 0..72 are the resources' values at segment
/// entry, shared by both sides.
struct SegmentTerms {
  TermTable table;
  std::vector<std::string_view> syms;  // kSym names, first-use order
  std::size_t segment = 0;

  void reset(std::size_t seg) {
    table.clear();
    syms.clear();
    segment = seg;
    for (std::size_t r = 0; r < IssueModel::kNumResources; ++r)
      table.atom(kInit, pack_imm(segment, r));
  }

  /// The symbolic value of an instruction's immediate, folding in any
  /// pending relocation so that `li rT,sym@x; op ..,rT` and a relocated
  /// immediate form denote the same constant.
  TermId imm_token(const AsmOp& op) {
    if (op.reloc_sym.empty()) return table.make(kConst, op.ins.imm);
    std::size_t s = 0;
    while (s < syms.size() && syms[s] != op.reloc_sym) ++s;
    if (s == syms.size()) syms.push_back(op.reloc_sym);
    const TermId sym = table.make(kSym, static_cast<std::int64_t>(s));
    return table.make(
        kRel,
        pack_imm(static_cast<std::uint64_t>(op.reloc_kind),
                 static_cast<std::uint32_t>(op.reloc_addend)),
        {sym});
  }

  /// The text of `root`, children of commutative operators sorted as
  /// strings; `text` memoizes node texts across calls.
  std::string render(TermId root, std::vector<std::string>& text) const {
    text.resize(table.size());
    table.for_each_reachable(root, [&](TermId t) {
      if (text[t].empty()) text[t] = render_node(t, text);
    });
    return text[root];
  }

 private:
  std::string render_node(TermId t,
                          const std::vector<std::string>& text) const {
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
        s = std::string(syms[static_cast<std::size_t>(imm)]);
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
};

/// Register state: the current term of each of the 73 machine resources.
struct SymEnv {
  std::array<TermId, IssueModel::kNumResources> val;

  SymEnv() {
    for (std::size_t r = 0; r < val.size(); ++r)
      val[r] = static_cast<TermId>(r);  // the segment's initial values
  }
  TermId& gpr(int r) { return val[static_cast<std::size_t>(r)]; }
  TermId& fpr(int r) { return val[static_cast<std::size_t>(32 + r)]; }
  TermId& crf(int f) {
    return val[static_cast<std::size_t>(IssueModel::kCrBase + f)];
  }
};

/// A memory access or control transfer, in program order within a segment.
/// Branch events snapshot the full environment; the comparison restricts it
/// to the live-after set of the *before* side's branch.
struct MEvent {
  TermId tag = kNoTerm;  // kind + operand terms
  bool is_branch = false;
  std::size_t pos = 0;   // op index (before side: liveness anchor)
  std::array<TermId, IssueModel::kNumResources> env{};
};

/// Executes one op over `env`, appending memory/branch events. `n_loads`
/// numbers loads within the segment: the j-th load of either side binds the
/// same fresh symbol (their addresses are forced equal by event comparison).
void sym_step(const AsmOp& op, std::size_t pos, SegmentTerms& st, SymEnv& env,
              std::vector<MEvent>& events, int& n_loads) {
  const MInstr& m = op.ins;
  TermTable& t = st.table;
  const auto un = [&](MKind k, TermId x) { return t.make(k, 0, {x}); };
  const auto bin = [&](MKind k, TermId a, TermId b) {
    return t.make(k, 0, {a, b});
  };
  const auto comm = [&](MKind k, TermId a, TermId b) {
    return t.make_commutative(k, a, b);
  };
  const auto imm = [&] { return st.imm_token(op); };
  const auto mem_addr_d = [&] { return comm(kAdd, env.gpr(m.ra), imm()); };
  const auto mem_addr_x = [&] {
    return comm(kAdd, env.gpr(m.ra), env.gpr(m.rb));
  };
  const auto load = [&](MKind width, TermId addr) {
    events.push_back({t.make(width, 0, {addr}), false, pos, {}});
    return t.make(kMem, pack_imm(st.segment, n_loads++));
  };
  const auto store = [&](MKind width, TermId addr, TermId value) {
    events.push_back({t.make(width, 0, {addr, value}), false, pos, {}});
  };
  const auto branch = [&](TermId tag) {
    events.push_back({tag, true, pos, env.val});
  };

  switch (m.op) {
    case MOp::Li:
      env.gpr(m.rd) = imm();
      break;
    case MOp::Lis:
      env.gpr(m.rd) = un(kLis, imm());
      break;
    case MOp::Ori:
      env.gpr(m.rd) = comm(kOr, env.gpr(m.ra), imm());
      break;
    case MOp::Xori:
      env.gpr(m.rd) = comm(kXor, env.gpr(m.ra), imm());
      break;
    case MOp::Addi:
      env.gpr(m.rd) = comm(kAdd, env.gpr(m.ra), imm());
      break;
    case MOp::Mr:
      env.gpr(m.rd) = env.gpr(m.ra);
      break;
    case MOp::Add:
      env.gpr(m.rd) = comm(kAdd, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Subf:  // rd <- rb - ra
      env.gpr(m.rd) = bin(kSub, env.gpr(m.rb), env.gpr(m.ra));
      break;
    case MOp::Mullw:
      env.gpr(m.rd) = comm(kMul, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Divw:
      env.gpr(m.rd) = bin(kDiv, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::And:
      env.gpr(m.rd) = comm(kAnd, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Or:
      env.gpr(m.rd) = comm(kOr, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Xor:
      env.gpr(m.rd) = comm(kXor, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Nor:
      env.gpr(m.rd) = comm(kNor, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Neg:
      env.gpr(m.rd) = un(kNeg, env.gpr(m.ra));
      break;
    case MOp::Slw:
      env.gpr(m.rd) = bin(kSlw, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Sraw:
      env.gpr(m.rd) = bin(kSraw, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Srw:
      env.gpr(m.rd) = bin(kSrw, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Rlwinm:
      env.gpr(m.rd) = t.make(kRlwinm, m.sh << 16 | m.mb << 8 | m.me,
                             {env.gpr(m.ra)});
      break;
    case MOp::Cmpw:
      env.crf(m.crf) = bin(kCmp, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Cmpwi:  // the folded form of li rT,imm; cmpw crf,ra,rT
      env.crf(m.crf) = bin(kCmp, env.gpr(m.ra), imm());
      break;
    case MOp::Fcmpu:
      env.crf(m.crf) = bin(kFcmp, env.fpr(m.ra), env.fpr(m.rb));
      break;
    case MOp::Cror: {
      // Writes one bit of the destination field; the rest carries over.
      TermId& d = env.crf(m.crbd / 4);
      d = t.make(kCrins, m.crbd % 4 << 16 | m.crba % 4 << 8 | m.crbb % 4,
                 {d, env.crf(m.crba / 4), env.crf(m.crbb / 4)});
      break;
    }
    case MOp::Mfcr: {
      std::array<TermId, 8> fields;
      for (int f = 0; f < 8; ++f)
        fields[static_cast<std::size_t>(f)] = env.crf(f);
      env.gpr(m.rd) = t.make(kMfcr, 0, fields);
      break;
    }
    case MOp::Fadd:
      env.fpr(m.rd) = comm(kFadd, env.fpr(m.ra), env.fpr(m.rb));
      break;
    case MOp::Fsub:
      env.fpr(m.rd) = bin(kFsub, env.fpr(m.ra), env.fpr(m.rb));
      break;
    case MOp::Fmul:
      env.fpr(m.rd) = comm(kFmul, env.fpr(m.ra), env.fpr(m.rb));
      break;
    case MOp::Fdiv:
      env.fpr(m.rd) = bin(kFdiv, env.fpr(m.ra), env.fpr(m.rb));
      break;
    case MOp::Fmadd:  // fd <- fa*fb + fc: the fused fmul;fadd pair
      env.fpr(m.rd) = comm(kFadd, comm(kFmul, env.fpr(m.ra), env.fpr(m.rb)),
                           env.fpr(m.rc));
      break;
    case MOp::Fmsub:  // fd <- fa*fb - fc
      env.fpr(m.rd) = bin(kFsub, comm(kFmul, env.fpr(m.ra), env.fpr(m.rb)),
                          env.fpr(m.rc));
      break;
    case MOp::Fneg:
      env.fpr(m.rd) = un(kFneg, env.fpr(m.ra));
      break;
    case MOp::Fabs:
      env.fpr(m.rd) = un(kFabs, env.fpr(m.ra));
      break;
    case MOp::Fmr:
      env.fpr(m.rd) = env.fpr(m.ra);
      break;
    case MOp::Fcti:
      env.gpr(m.rd) = un(kFcti, env.fpr(m.ra));
      break;
    case MOp::Icvf:
      env.fpr(m.rd) = un(kIcvf, env.gpr(m.ra));
      break;
    case MOp::Lwz:
      env.gpr(m.rd) = load(kLoad4, mem_addr_d());
      break;
    case MOp::Lwzx:
      env.gpr(m.rd) = load(kLoad4, mem_addr_x());
      break;
    case MOp::Lfd:
      env.fpr(m.rd) = load(kLoad8, mem_addr_d());
      break;
    case MOp::Lfdx:
      env.fpr(m.rd) = load(kLoad8, mem_addr_x());
      break;
    case MOp::Stw:
      store(kStore4, mem_addr_d(), env.gpr(m.rd));
      break;
    case MOp::Stwx:
      store(kStore4, mem_addr_x(), env.gpr(m.rd));
      break;
    case MOp::Stfd:
      store(kStore8, mem_addr_d(), env.fpr(m.rd));
      break;
    case MOp::Stfdx:
      store(kStore8, mem_addr_x(), env.fpr(m.rd));
      break;
    case MOp::B:
      branch(t.make(kJump, op.target_label));
      break;
    case MOp::Bc:
      branch(t.make(kJumpCond,
                    std::int64_t{op.target_label} << 16 | m.crbit << 1 |
                        (m.expect ? 1 : 0),
                    {env.crf(m.crbit / 4)}));
      break;
    case MOp::Blr:
      branch(t.make(kReturn));
      break;
    case MOp::Nop:
      break;
    case MOp::Lui:
      env.gpr(m.rd) = un(kLui, imm());
      break;
    case MOp::Sll:
      env.gpr(m.rd) = bin(kSll, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Srl:
      env.gpr(m.rd) = bin(kSrl, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Sra:
      env.gpr(m.rd) = bin(kSra, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Slli:
      env.gpr(m.rd) = bin(kSll, env.gpr(m.ra), imm());
      break;
    case MOp::Slt:
      env.gpr(m.rd) = bin(kSlt, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Sltu:
      env.gpr(m.rd) = bin(kSltu, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Sltiu:
      env.gpr(m.rd) = bin(kSltu, env.gpr(m.ra), imm());
      break;
    case MOp::Rem:
      env.gpr(m.rd) = bin(kRem, env.gpr(m.ra), env.gpr(m.rb));
      break;
    case MOp::Feq:
      env.gpr(m.rd) = comm(kFeq, env.fpr(m.ra), env.fpr(m.rb));
      break;
    case MOp::Flt:
      env.gpr(m.rd) = bin(kFlt, env.fpr(m.ra), env.fpr(m.rb));
      break;
    case MOp::Fle:
      env.gpr(m.rd) = bin(kFle, env.fpr(m.ra), env.fpr(m.rb));
      break;
    case MOp::Beq:
    case MOp::Bne:
    case MOp::Blt:
    case MOp::Bge:
      // Compare-and-branch: the tag carries the tested operand terms, so
      // both the condition and the target must agree.
      branch(t.make(kCmpBranch,
                    std::int64_t{op.target_label} << 8 |
                        static_cast<std::uint8_t>(m.op),
                    {env.gpr(m.ra), env.gpr(m.rb)}));
      break;
  }
}

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
      sym_step(before.ops[i], i, st, env_b, ev_b, loads_b);
    for (std::size_t i = a0; i < a1; ++i)
      sym_step(after.ops[i], i, st, env_a, ev_a, loads_a);

    if (ev_b.size() != ev_a.size())
      return CheckResult::fail(where() +
                               ": memory/branch event count differs");
    for (std::size_t k = 0; k < ev_b.size(); ++k) {
      if (ev_b[k].tag != ev_a[k].tag) {
        std::vector<std::string> text;
        return CheckResult::fail(where() + ": event " + std::to_string(k) +
                                 " differs: " + st.render(ev_b[k].tag, text) +
                                 " vs " + st.render(ev_a[k].tag, text));
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
