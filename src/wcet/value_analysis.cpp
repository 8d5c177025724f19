#include "wcet/value_analysis.hpp"

#include <algorithm>

#include "mach/semantics.hpp"
#include "mach/target.hpp"
#include "machine/machine.hpp"

namespace vc::wcet {

using mach::Image;
using mach::MInstr;
using mach::MOp;

namespace {

constexpr std::uint32_t kEntryR1 = Image::kStackTop - 64;
constexpr std::uint32_t kStackLo = Image::kStackTop - (1u << 16);
constexpr std::uint32_t kStackHi = Image::kStackTop;

bool in_stack(std::int64_t addr) {
  return addr >= kStackLo && addr < kStackHi;
}

Interval u32_interval(const Interval& v) {
  // Addresses are computed with wrap-around u32 arithmetic; our intervals are
  // signed 64-bit. Values stay well within u32 range for valid programs; on
  // overflow fall back to the full range.
  if (v.is_bottom()) return Interval::range(0, 0xFFFFFFFFll);
  if (v.lo() < 0 || v.hi() > 0xFFFFFFFFll)
    return Interval::range(0, 0xFFFFFFFFll);
  return v;
}

}  // namespace

std::uint32_t stack_loc_address(const mach::MLoc& loc) {
  check(loc.kind == mach::MLoc::Kind::StackSlot, "not a stack location");
  return kEntryR1 + static_cast<std::uint32_t>(loc.offset);
}

AbsState AbsState::entry_state(const mach::TargetDesc& desc) {
  AbsState s;
  s.reachable = true;
  for (auto& g : s.gpr) g = Interval::i32_range();
  // Pinned registers (calling convention / linker script facts).
  s.gpr[desc.stack_ptr] = Interval::constant(kEntryR1);
  s.gpr[desc.data_base] = Interval::constant(Image::kDataBase);
  if (desc.zero_gpr >= 0) s.gpr[desc.zero_gpr] = Interval::constant(0);
  return s;
}

AbsState AbsState::join(const AbsState& other) const {
  if (!reachable) return other;
  if (!other.reachable) return *this;
  AbsState out;
  out.reachable = true;
  for (int i = 0; i < 32; ++i) out.gpr[i] = gpr[i].join(other.gpr[i]);
  for (const auto& [addr, v] : stack) {
    auto it = other.stack.find(addr);
    if (it != other.stack.end()) out.stack[addr] = v.join(it->second);
  }
  return out;
}

AbsState AbsState::widen(const AbsState& next) const {
  if (!reachable) return next;
  if (!next.reachable) return *this;
  AbsState out;
  out.reachable = true;
  for (int i = 0; i < 32; ++i) out.gpr[i] = gpr[i].widen(next.gpr[i]);
  for (const auto& [addr, v] : stack) {
    auto it = next.stack.find(addr);
    if (it != next.stack.end()) out.stack[addr] = v.widen(it->second);
  }
  return out;
}

bool AbsState::operator==(const AbsState& other) const {
  return reachable == other.reachable && gpr == other.gpr &&
         stack == other.stack;
}

namespace {

/// mach::step's interval domain. GPRs are intervals and the tracked stack
/// cells are memory; FPRs, CR fields and branch conditions carry nothing
/// (Unit). An immediate is an Imm, which converts to its constant interval;
/// ori, xori and slli have their own precision rules and overload on it.
struct IntervalStep {
  struct Unit {};
  struct Imm {
    std::int32_t v;
    operator Interval() const { return Interval::constant(v); }
  };

  AbsState& s;
  const MInstr& m;
  std::vector<MemAccess>* accesses;  // the recording pass's, else null
  int block;
  int index;
  std::uint32_t addr;

  static Interval top() { return Interval::i32_range(); }
  static std::uint32_t u32(std::int64_t v) {
    return static_cast<std::uint32_t>(v);
  }
  static Interval constant(std::uint32_t v) {
    return Interval::constant(static_cast<std::int32_t>(v));
  }
  static bool boolean(const Interval& v) {
    return Interval::boolean().contains(v);
  }

  const Interval& gpr(int r) const { return s.gpr[r]; }
  static Unit fpr(int) { return {}; }
  static Unit crf(int) { return {}; }
  void set_gpr(int r, const Interval& v) { s.gpr[r] = v; }
  static void set_fpr(int, Unit) {}
  static void set_crf(int, Unit) {}
  Imm imm() const { return {m.imm}; }

  static Interval lis(Imm i) { return constant(u32(i.v) << 16); }
  static Interval lui(Imm i) { return constant(u32(i.v) << 12); }
  static Interval add(const Interval& a, const Interval& b) {
    return a.add(b).clamp_i32();
  }
  static Interval sub(const Interval& a, const Interval& b) {
    return a.sub(b).clamp_i32();
  }
  static Interval mul(const Interval& a, const Interval& b) {
    return a.mul(b).clamp_i32();
  }
  static Interval div(const Interval& a, const Interval& b) {
    const Interval q = a.div(b).clamp_i32();
    return q.is_bottom() ? top() : q;
  }
  static Interval rem(const Interval&, const Interval&) { return top(); }
  // Common case: masking a boolean.
  static Interval and_(const Interval& a, const Interval& b) {
    return boolean(a) || boolean(b) ? Interval::boolean() : top();
  }
  static Interval or_(const Interval& a, const Interval& b) {
    return boolean(a) && boolean(b) ? Interval::boolean() : top();
  }
  static Interval or_(const Interval& a, Imm i) {
    const auto c = a.as_constant();
    return c ? constant(u32(*c) | u32(i.v)) : top();
  }
  static Interval xor_(const Interval& a, const Interval& b) {
    return or_(a, b);
  }
  static Interval xor_(const Interval& a, Imm i) {
    if (const auto c = a.as_constant()) return constant(u32(*c) ^ u32(i.v));
    return i.v == 1 && boolean(a) ? Interval::boolean() : top();
  }
  static Interval nor(const Interval&, const Interval&) { return top(); }
  static Interval neg(const Interval& a) { return a.neg().clamp_i32(); }
  static Interval slw(const Interval&, const Interval&) { return top(); }
  static Interval srw(const Interval&, const Interval&) { return top(); }
  static Interval sraw(const Interval&, const Interval&) { return top(); }
  static Interval sll(const Interval&, const Interval&) { return top(); }
  // slli by a constant is a multiplication by 2^sh, like slwi below.
  static Interval sll(const Interval& a, Imm i) {
    return mul(a, Interval::constant(std::int64_t{1} << (i.v & 31)));
  }
  static Interval srl(const Interval&, const Interval&) { return top(); }
  static Interval sra(const Interval&, const Interval&) { return top(); }
  static Interval rlwinm(const Interval& x, int sh, int mb, int me) {
    if (mb == 0 && me == 31 - sh)  // slwi: multiply by 2^sh
      return mul(x, Interval::constant(std::int64_t{1} << sh));
    if (mb == 31 && me == 31) return Interval::boolean();  // one-bit extract
    return top();
  }
  static Interval slt(const Interval&, const Interval&) {
    return Interval::boolean();
  }
  static Interval sltu(const Interval&, const Interval&) {
    return Interval::boolean();
  }
  static Unit cmp(const Interval&, const Interval&) { return {}; }
  static Unit fcmp(Unit, Unit) { return {}; }
  static Unit cror(Unit, Unit, Unit, int, int, int) { return {}; }
  static Interval mfcr() { return top(); }
  static Unit fadd(Unit, Unit) { return {}; }
  static Unit fsub(Unit, Unit) { return {}; }
  static Unit fmul(Unit, Unit) { return {}; }
  static Unit fdiv(Unit, Unit) { return {}; }
  static Unit fneg(Unit) { return {}; }
  static Unit fabs(Unit) { return {}; }
  static Interval fcti(Unit) { return top(); }
  static Unit icvf(const Interval&) { return {}; }
  static Interval feq(Unit, Unit) { return Interval::boolean(); }
  static Interval flt(Unit, Unit) { return Interval::boolean(); }
  static Interval fle(Unit, Unit) { return Interval::boolean(); }
  static Interval ea(const Interval& base, const Interval& offset) {
    return u32_interval(base.add(offset));
  }

  void record(const Interval& ea, bool is_store, bool is_f64) const {
    if (accesses == nullptr) return;
    MemAccess acc;
    acc.block = block;
    acc.index = index;
    acc.addr_of_instr = addr;
    acc.is_store = is_store;
    acc.is_f64 = is_f64;
    acc.address = ea;
    accesses->push_back(acc);
  }
  Interval load4(const Interval& ea) const {
    record(ea, false, false);
    if (const auto c = ea.as_constant(); c && in_stack(*c)) {
      const auto it = s.stack.find(static_cast<std::uint32_t>(*c));
      if (it != s.stack.end()) return it->second;
    }
    return top();
  }
  Unit load8(const Interval& ea) const {
    record(ea, false, true);
    return {};
  }
  // A w-byte store at any a in [lo, hi] overlaps every tracked 4-byte cell
  // k in [lo-3, hi+w-1]: drop them all, precise or not (cf. Gebhard et al.
  // on imprecise memory accesses); only then may a constant-address stw set
  // its own cell.
  void drop_overlapped(const Interval& ea, std::int64_t width) {
    const std::int64_t first = std::max<std::int64_t>(ea.lo() - 3, 0);
    const std::int64_t last = ea.hi() + width - 1;
    for (auto it = s.stack.lower_bound(static_cast<std::uint32_t>(first));
         it != s.stack.end() && static_cast<std::int64_t>(it->first) <= last;)
      it = s.stack.erase(it);
  }
  void store4(const Interval& ea, const Interval& v) {
    record(ea, true, false);
    drop_overlapped(ea, 4);
    if (const auto c = ea.as_constant(); c && in_stack(*c))
      s.stack[static_cast<std::uint32_t>(*c)] = v;
  }
  void store8(const Interval& ea, Unit) {
    record(ea, true, true);
    drop_overlapped(ea, 8);
  }
  static Unit eq(const Interval&, const Interval&) { return {}; }
  static Unit ne(const Interval&, const Interval&) { return {}; }
  static Unit lt(const Interval&, const Interval&) { return {}; }
  static Unit ge(const Interval&, const Interval&) { return {}; }
  static Unit crbit(Unit, int, bool) { return {}; }
  static void branch_if(Unit) {}
  static void jump() {}
  static void ret() {}
};

class Analyzer {
 public:
  Analyzer(const Cfg& cfg, const AnnotIndex& annots,
           const mach::TargetDesc& desc)
      : cfg_(cfg), annots_(annots), desc_(desc) {}

  ValueAnalysisResult run() {
    const std::size_t n = cfg_.blocks.size();
    result_.block_in.assign(n, AbsState{});
    result_.block_in[0] = AbsState::entry_state(desc_);

    // Worklist to fixpoint with widening at loop headers.
    std::vector<int> widen_count(n, 0);
    std::vector<bool> in_list(n, false);
    std::vector<int> worklist{0};
    in_list[0] = true;
    while (!worklist.empty()) {
      const int b = worklist.back();
      worklist.pop_back();
      in_list[b] = false;

      AbsState s = result_.block_in[static_cast<std::size_t>(b)];
      if (!s.reachable) continue;
      transfer_block(b, &s, /*record=*/false);

      for (std::size_t k = 0;
           k < cfg_.blocks[static_cast<std::size_t>(b)].succs.size(); ++k) {
        const int succ = cfg_.blocks[static_cast<std::size_t>(b)].succs[k];
        AbsState refined = refine_edge(b, static_cast<int>(k), s);
        AbsState& dest = result_.block_in[static_cast<std::size_t>(succ)];
        AbsState joined = dest.join(refined);
        const bool is_header = is_loop_header(succ);
        if (is_header && widen_count[static_cast<std::size_t>(succ)] > 2)
          joined = dest.widen(joined);
        if (!(joined == dest)) {
          dest = joined;
          if (is_header) ++widen_count[static_cast<std::size_t>(succ)];
          if (!in_list[static_cast<std::size_t>(succ)]) {
            in_list[static_cast<std::size_t>(succ)] = true;
            worklist.push_back(succ);
          }
        }
      }
    }

    // Final recording pass: memory accesses, compare facts, edge states.
    for (std::size_t b = 0; b < n; ++b) {
      AbsState s = result_.block_in[b];
      if (!s.reachable) continue;
      transfer_block(static_cast<int>(b), &s, /*record=*/true);
      for (std::size_t k = 0; k < cfg_.blocks[b].succs.size(); ++k) {
        const int succ = cfg_.blocks[b].succs[k];
        result_.edge_out[{static_cast<int>(b), succ}] =
            refine_edge(static_cast<int>(b), static_cast<int>(k), s);
      }
    }
    return std::move(result_);
  }

 private:
  [[nodiscard]] bool is_loop_header(int block) const {
    for (const auto& loop : cfg_.loops)
      if (loop.header == block) return true;
    return false;
  }

  void apply_constraints(std::uint32_t addr, AbsState* s) const {
    auto it = annots_.constraints.find(addr);
    if (it == annots_.constraints.end()) return;
    for (const ValueConstraint& c : it->second) {
      if (c.loc.kind == mach::MLoc::Kind::Gpr) {
        Interval& g = s->gpr[c.loc.index];
        const Interval met = g.meet(c.range);
        if (!met.is_bottom()) g = met;
      } else if (c.loc.kind == mach::MLoc::Kind::StackSlot && !c.loc.is_f64) {
        const std::uint32_t cell = stack_loc_address(c.loc);
        Interval cur = s->stack.count(cell) ? s->stack[cell]
                                            : Interval::i32_range();
        const Interval met = cur.meet(c.range);
        if (!met.is_bottom()) s->stack[cell] = met;
      }
    }
  }

  struct PendingCmp {
    bool valid = false;
    bool is_int = false;
    int lhs = -1, rhs = -1;
    std::int32_t imm = 0;
  };

  /// The GPR an instruction defines (rd, where the op table lists it as a
  /// written GPR), or -1. Used by the copy tracker.
  static int def_gpr(const MInstr& m) {
    return mach::op_desc(m.op).rd == mach::RegUse::GW ? m.rd : -1;
  }

  /// The GPR whose value a register-to-register copy duplicates, or -1.
  static int copy_src(const MInstr& m) {
    if (m.op == MOp::Mr) return m.ra;
    if ((m.op == MOp::Addi || m.op == MOp::Ori) && m.imm == 0) return m.ra;
    return -1;
  }

  void transfer_block(int b, AbsState* s, bool record) {
    const MachineBlock& bb = cfg_.blocks[static_cast<std::size_t>(b)];
    // Track the most recent compare writing each CR field in this block.
    PendingCmp cr_state[8];
    // Block-local copy classes: root[i] is the representative of the set of
    // registers known to hold the same value as r_i. Lets the terminator's
    // compare refine every copy of the tested register in refine_edge —
    // without this, a fact on the compared register is lost whenever the
    // optimizer routed the dominating use through a different copy.
    std::array<std::uint8_t, 32> root;
    for (int i = 0; i < 32; ++i) root[i] = static_cast<std::uint8_t>(i);
    auto detach = [&root](int d) {
      const auto du = static_cast<std::uint8_t>(d);
      if (root[d] != du) {  // non-representative member: just leave the class
        root[d] = du;
        return;
      }
      int nrep = -1;  // representative dies: promote the first other member
      for (int j = 0; j < 32; ++j)
        if (j != d && root[j] == du) {
          if (nrep < 0) nrep = j;
          root[j] = static_cast<std::uint8_t>(nrep);
        }
    };

    std::uint32_t addr = bb.start;
    for (std::size_t i = 0; i < bb.instrs.size(); ++i, addr += 4) {
      apply_constraints(addr, s);
      const MInstr& m = bb.instrs[i];
      IntervalStep step{*s, m, record ? &result_.accesses : nullptr, b,
                        static_cast<int>(i), addr};
      mach::step(step, m);
      if (desc_.zero_gpr >= 0)
        s->gpr[desc_.zero_gpr] = Interval::constant(0);
      if (const int d = def_gpr(m); d >= 0) {
        const int src = copy_src(m);
        detach(d);
        if (src >= 0 && src != d) root[d] = root[src];
      }
      switch (m.op) {
        case MOp::Cmpw:
          cr_state[m.crf] = PendingCmp{true, true, m.ra, m.rb, 0};
          break;
        case MOp::Cmpwi:
          cr_state[m.crf] = PendingCmp{true, true, m.ra, -1, m.imm};
          break;
        case MOp::Fcmpu:
          cr_state[m.crf] = PendingCmp{true, false, -1, -1, 0};
          break;
        case MOp::Cror:
          cr_state[m.crbd / 4].valid = false;
          break;
        default:
          break;
      }
      if (record && m.op == MOp::Bc) {
        const PendingCmp& p = cr_state[m.crbit / 4];
        if (p.valid && p.is_int) {
          ValueAnalysisResult::CompareFact fact;
          fact.lhs_reg = p.lhs;
          fact.rhs_reg = p.rhs;
          fact.rhs_imm = p.imm;
          fact.lhs_at_test = s->gpr[p.lhs];
          fact.rhs_at_test =
              p.rhs >= 0 ? s->gpr[p.rhs] : Interval::constant(p.imm);
          result_.compare_facts[b] = fact;
        }
      }
      if (record && mach::is_cond_branch(m.op) && m.op != MOp::Bc) {
        // Compare-and-branch: the operands are on the branch itself.
        ValueAnalysisResult::CompareFact fact;
        fact.lhs_reg = m.ra;
        fact.rhs_reg = m.rb;
        fact.lhs_at_test = s->gpr[m.ra];
        fact.rhs_at_test = s->gpr[m.rb];
        result_.compare_facts[b] = fact;
      }
      if (i + 1 == bb.instrs.size() && m.op == MOp::Bc) {
        // Stash the pending compare for edge refinement.
        last_cmp_[b] = cr_state[m.crbit / 4].valid && cr_state[m.crbit / 4].is_int
                           ? cr_state[m.crbit / 4]
                           : PendingCmp{};
      }
    }
    block_copies_[b] = root;
  }

  /// Refines the post-block state along successor edge `k` using the
  /// terminator's compare, when recognized.
  AbsState refine_edge(int b, int k, const AbsState& out) const {
    const MachineBlock& bb = cfg_.blocks[static_cast<std::size_t>(b)];
    const MInstr& t = bb.instrs.back();
    if (!mach::is_cond_branch(t.op)) return out;
    const auto cond = mach::branch_condition(t);
    if (!cond) return out;
    PendingCmp cmp;
    if (cond->has_operands) {
      // Compare-and-branch carries its integer operands directly.
      cmp = PendingCmp{true, true, t.ra, t.rb, 0};
    } else {
      auto it = last_cmp_.find(b);
      if (it == last_cmp_.end() || !it->second.valid) return out;
      cmp = it->second;
    }

    // Edge 0 is taken (relation == when_true), edge 1 is fall-through.
    const bool cond_true = (k == 0) == cond->when_true;
    const int rel = cond->rel;

    AbsState s = out;
    Interval& a = s.gpr[cmp.lhs];
    Interval bval =
        cmp.rhs >= 0 ? s.gpr[cmp.rhs] : Interval::constant(cmp.imm);
    if (a.is_bottom() || bval.is_bottom()) return s;

    Interval a2 = a;
    Interval b2 = bval;
    if (rel == mach::kLt) {
      if (cond_true) {  // a < b
        a2 = a.refine_lt(bval.hi());
        b2 = bval.refine_gt(a.lo());
      } else {  // a >= b
        a2 = a.refine_ge(bval.lo());
        b2 = bval.refine_le(a.hi());
      }
    } else if (rel == mach::kGt) {
      if (cond_true) {  // a > b
        a2 = a.refine_gt(bval.lo());
        b2 = bval.refine_lt(a.hi());
      } else {  // a <= b
        a2 = a.refine_le(bval.hi());
        b2 = bval.refine_ge(a.lo());
      }
    } else if (rel == mach::kEq) {
      if (cond_true) {
        a2 = a.meet(bval);
        b2 = a2;
      }
      // a != b: no useful interval refinement in general.
    }
    // An empty refinement means the edge is infeasible.
    if (a2.is_bottom() || b2.is_bottom()) {
      s.reachable = false;
      return s;
    }
    // Apply each refinement to the whole copy class of the tested register:
    // every member holds the same concrete value, so meeting its interval
    // with the refined one stays sound (and an empty meet proves the edge
    // infeasible).
    const auto& root = block_copies_.at(b);
    auto apply_class = [&](int reg, const Interval& refined) {
      const std::uint8_t r = root[reg];
      for (int i = 0; i < 32; ++i) {
        if (root[i] != r) continue;
        const Interval met = s.gpr[i].meet(refined);
        if (met.is_bottom()) {
          s.reachable = false;
          return;
        }
        s.gpr[i] = met;
      }
    };
    apply_class(cmp.lhs, a2);
    if (!s.reachable) return s;
    if (cmp.rhs >= 0) apply_class(cmp.rhs, b2);
    return s;
  }

  const Cfg& cfg_;
  const AnnotIndex& annots_;
  const mach::TargetDesc& desc_;
  ValueAnalysisResult result_;
  std::map<int, PendingCmp> last_cmp_;
  // Per-block copy classes at the terminator (position-independent within
  // the block walk, so one snapshot per block suffices).
  std::map<int, std::array<std::uint8_t, 32>> block_copies_;
};

}  // namespace

ValueAnalysisResult analyze_values(const Cfg& cfg, const AnnotIndex& annots,
                                  const mach::TargetDesc& desc) {
  return Analyzer(cfg, annots, desc).run();
}

}  // namespace vc::wcet
