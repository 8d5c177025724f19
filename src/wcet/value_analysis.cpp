#include "wcet/value_analysis.hpp"

#include <algorithm>

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
      transfer_instr(m, s, record, b, static_cast<int>(i), addr);
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

  void transfer_instr(const MInstr& m, AbsState* s, bool record, int block,
                      int index, std::uint32_t addr) {
    auto& g = s->gpr;
    auto top = [] { return Interval::i32_range(); };
    switch (m.op) {
      case MOp::Li:
        g[m.rd] = Interval::constant(m.imm);
        break;
      case MOp::Lis:
        g[m.rd] = Interval::constant(static_cast<std::int32_t>(
            static_cast<std::uint32_t>(m.imm) << 16));
        break;
      case MOp::Ori:
        if (auto c = g[m.ra].as_constant())
          g[m.rd] = Interval::constant(
              static_cast<std::int32_t>(static_cast<std::uint32_t>(*c) |
                                        static_cast<std::uint32_t>(m.imm)));
        else
          g[m.rd] = top();
        break;
      case MOp::Xori:
        if (auto c = g[m.ra].as_constant())
          g[m.rd] = Interval::constant(
              static_cast<std::int32_t>(static_cast<std::uint32_t>(*c) ^
                                        static_cast<std::uint32_t>(m.imm)));
        else if (static_cast<std::uint32_t>(m.imm) == 1 &&
                 Interval::boolean().contains(g[m.ra]))
          g[m.rd] = Interval::boolean();
        else
          g[m.rd] = top();
        break;
      case MOp::Addi:
        g[m.rd] = g[m.ra].add(Interval::constant(m.imm)).clamp_i32();
        break;
      case MOp::Mr:
        g[m.rd] = g[m.ra];
        break;
      case MOp::Add:
        g[m.rd] = g[m.ra].add(g[m.rb]).clamp_i32();
        break;
      case MOp::Subf:
        g[m.rd] = g[m.rb].sub(g[m.ra]).clamp_i32();
        break;
      case MOp::Mullw:
        g[m.rd] = g[m.ra].mul(g[m.rb]).clamp_i32();
        break;
      case MOp::Divw:
        g[m.rd] = g[m.ra].div(g[m.rb]).clamp_i32();
        if (g[m.rd].is_bottom()) g[m.rd] = top();
        break;
      case MOp::Neg:
        g[m.rd] = g[m.ra].neg().clamp_i32();
        break;
      case MOp::And:
        // Common case: masking a boolean.
        if (Interval::boolean().contains(g[m.ra]) ||
            Interval::boolean().contains(g[m.rb]))
          g[m.rd] = Interval::boolean();
        else
          g[m.rd] = top();
        break;
      case MOp::Or:
      case MOp::Xor:
        if (Interval::boolean().contains(g[m.ra]) &&
            Interval::boolean().contains(g[m.rb]))
          g[m.rd] = Interval::boolean();
        else
          g[m.rd] = top();
        break;
      case MOp::Nor:
        g[m.rd] = top();
        break;
      case MOp::Slw:
      case MOp::Srw:
      case MOp::Sraw:
        g[m.rd] = top();
        break;
      case MOp::Rlwinm: {
        // Recognize slwi (mb=0, me=31-sh): multiply by 2^sh.
        if (m.mb == 0 && m.me == 31 - m.sh) {
          g[m.rd] = g[m.ra]
                        .mul(Interval::constant(std::int64_t{1} << m.sh))
                        .clamp_i32();
        } else if (m.mb == 31 && m.me == 31) {
          g[m.rd] = Interval::boolean();  // single-bit extraction
        } else {
          g[m.rd] = top();
        }
        break;
      }
      case MOp::Mfcr:
        g[m.rd] = top();
        break;
      case MOp::Fcti:
        g[m.rd] = top();
        break;
      case MOp::Lwz:
      case MOp::Lwzx:
      case MOp::Lfd:
      case MOp::Lfdx:
      case MOp::Stw:
      case MOp::Stwx:
      case MOp::Stfd:
      case MOp::Stfdx: {
        const bool is_store = mach::is_store(m.op);
        const bool is_f64 = mach::mem_bytes(m.op) == 8;
        Interval ea = mach::is_x_form(m.op)
                          ? g[m.ra].add(g[m.rb])
                          : g[m.ra].add(Interval::constant(m.imm));
        ea = u32_interval(ea);
        if (record) {
          MemAccess acc;
          acc.block = block;
          acc.index = index;
          acc.addr_of_instr = addr;
          acc.is_store = is_store;
          acc.is_f64 = is_f64;
          acc.address = ea;
          result_.accesses.push_back(acc);
        }
        if (is_store) {
          // A w-byte store at any a in [lo, hi] overlaps every tracked
          // 4-byte cell k in [lo-3, hi+w-1]: drop them all, precise or not
          // (cf. Gebhard et al. on imprecise memory accesses), and only then
          // let a constant-address stw set its own cell.
          const std::int64_t first = std::max<std::int64_t>(ea.lo() - 3, 0);
          const std::int64_t last =
              ea.hi() + static_cast<std::int64_t>(mach::mem_bytes(m.op)) - 1;
          for (auto it = s->stack.lower_bound(static_cast<std::uint32_t>(first));
               it != s->stack.end() &&
               static_cast<std::int64_t>(it->first) <= last;)
            it = s->stack.erase(it);
          if (auto c = ea.as_constant(); c && !is_f64 && in_stack(*c))
            s->stack[static_cast<std::uint32_t>(*c)] = g[m.rd];
        } else if (!is_f64) {
          Interval v = top();
          if (auto c = ea.as_constant()) {
            if (in_stack(*c)) {
              auto it = s->stack.find(static_cast<std::uint32_t>(*c));
              if (it != s->stack.end()) v = it->second;
            }
          }
          g[m.rd] = v;
        }
        break;
      }
      case MOp::Lui:
        g[m.rd] = Interval::constant(static_cast<std::int32_t>(
            static_cast<std::uint32_t>(m.imm) << 12));
        break;
      case MOp::Slli:
        // Multiply by 2^sh (shift left by immediate, like slwi).
        g[m.rd] = g[m.ra]
                      .mul(Interval::constant(std::int64_t{1} << (m.imm & 31)))
                      .clamp_i32();
        break;
      case MOp::Slt: case MOp::Sltu: case MOp::Sltiu:
      case MOp::Feq: case MOp::Flt: case MOp::Fle:
        g[m.rd] = Interval::boolean();
        break;
      case MOp::Sll: case MOp::Srl: case MOp::Sra: case MOp::Rem:
        g[m.rd] = top();
        break;
      case MOp::Icvf:
      case MOp::Fadd: case MOp::Fsub: case MOp::Fmul: case MOp::Fdiv:
      case MOp::Fmadd: case MOp::Fmsub: case MOp::Fneg: case MOp::Fabs:
      case MOp::Fmr:
      case MOp::Cmpw: case MOp::Cmpwi: case MOp::Fcmpu: case MOp::Cror:
      case MOp::B: case MOp::Bc: case MOp::Blr: case MOp::Nop:
      case MOp::Beq: case MOp::Bne: case MOp::Blt: case MOp::Bge:
        break;
    }
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
