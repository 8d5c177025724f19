// Op-table property test. For every op legal on each registered target,
// random operands and random register/memory state run through a
// hand-assembled image [op; b +1; blr], and the op's row (mach/isa.hpp) is
// checked against the simulator and the interval analysis:
//   (a) the simulator changes only the resources the row lists as written:
//       the registers and CR fields of IssueModel::resources, and for a
//       store the bytes at its address;
//   (b) changing every resource the row does not list as read leaves the
//       written values, the stored bytes and the branch outcome unchanged;
//   (c) a GPR result lies in analyze_values' interval for the instruction,
//       with its read GPRs constrained to intervals around their values;
//   (d) the machine checker's term for every written register and CR field,
//       for a stored value and for a branch condition, evaluated over the
//       initial state by an evaluator written here kind by kind, equals the
//       simulator's result.
// The stack pointer, the data base and a hardwired zero register keep the
// values the calling convention pins; memory ops address the data segment.
// A second lane runs [store; load; b +1; blr] pairs over overlapping stack
// offsets and checks the loaded GPR against analyze_values' interval.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "mach/codegen.hpp"
#include "mach/isa.hpp"
#include "mach/liveness.hpp"
#include "mach/program.hpp"
#include "mach/target.hpp"
#include "mach/timing.hpp"
#include "machine/machine.hpp"
#include "support/interval.hpp"
#include "support/rng.hpp"
#include "validate/machine_terms.hpp"
#include "wcet/annotations.hpp"
#include "wcet/cfg.hpp"
#include "wcet/value_analysis.hpp"

namespace vc {
namespace {

using mach::Image;
using mach::IssueModel;
using mach::MInstr;
using mach::MOp;
using machine::Machine;

constexpr int kTrialsPerOp = 150;
constexpr std::uint32_t kEntrySp = Image::kStackTop - 64;  // call() seeds it
constexpr std::size_t kDataWords = 64;
// Base register value of the memory ops: displacements and indices stay
// within +-32 bytes, so every access lands inside the data segment.
constexpr std::uint32_t kMemBase = Image::kDataBase + 128;

struct State {
  Machine::Registers regs;
  std::vector<std::uint32_t> mem = std::vector<std::uint32_t>(kDataWords);
};

struct Outcome {
  State state;
  std::uint64_t taken = 0;
};

/// The resources an instruction reads and writes (IssueModel numbering:
/// GPR r, FPR 32 + r, CR field 64 + f).
struct Roles {
  std::vector<int> reads, writes;

  [[nodiscard]] bool reads_res(int r) const {
    return std::find(reads.begin(), reads.end(), r) != reads.end();
  }
  [[nodiscard]] bool writes_res(int r) const {
    return std::find(writes.begin(), writes.end(), r) != writes.end();
  }
};

Roles roles_of(const MInstr& ins) {
  int reads[IssueModel::kMaxResourcesPerInstr];
  int writes[IssueModel::kMaxResourcesPerInstr];
  int n_reads = 0;
  int n_writes = 0;
  IssueModel::resources(ins, reads, &n_reads, writes, &n_writes);
  return {{reads, reads + n_reads}, {writes, writes + n_writes}};
}

std::uint32_t cr_field(std::uint32_t cr, int f) {
  return (cr >> (28 - 4 * f)) & 0xF;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

std::uint32_t random_word(Rng& rng) {
  static const std::uint32_t kEdges[] = {0x80000000u, 0x7FFFFFFFu,
                                         0xFFFFFFFFu, 0x80000001u, 0x10000u};
  switch (rng.next_below(5)) {
    case 0: return static_cast<std::uint32_t>(rng.next_below(2));  // boolean
    case 1: return static_cast<std::uint32_t>(rng.next_range(-40, 40));
    case 2: return kEdges[rng.next_below(std::size(kEdges))];
    default: return static_cast<std::uint32_t>(rng.next_u64());
  }
}

double random_double(Rng& rng) {
  static const double kEdges[] = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -1e300, 2147483648.0};
  switch (rng.next_below(4)) {
    case 0: return static_cast<double>(rng.next_range(-5, 5));
    case 1: return kEdges[rng.next_below(std::size(kEdges))];
    case 2: return rng.next_double(-1e10, 1e10);
    default: {
      const std::uint64_t b = rng.next_u64();
      double d = 0;
      std::memcpy(&d, &b, sizeof d);
      return d;
    }
  }
}

/// An i32 interval around `v`: each side lies 0 or a random amount below
/// 2^(bits - 1) away from it.
Interval around(Rng& rng, std::int64_t v, unsigned bits) {
  auto slack = [&rng, bits]() -> std::int64_t {
    return rng.next_bool() ? 0
                           : static_cast<std::int64_t>(
                                 rng.next_below(1u << rng.next_below(bits)));
  };
  const std::int64_t lo = std::max<std::int64_t>(
      v - slack(), std::numeric_limits<std::int32_t>::min());
  const std::int64_t hi = std::min<std::int64_t>(
      v + slack(), std::numeric_limits<std::int32_t>::max());
  return Interval::range(lo, hi);
}

/// Test fixture state for one target: its descriptor and pinned registers.
struct Target {
  const mach::TargetDesc& desc;

  [[nodiscard]] bool pinned(int gpr) const {
    return gpr == desc.stack_ptr || gpr == desc.data_base ||
           gpr == desc.zero_gpr;
  }
  [[nodiscard]] std::uint32_t pinned_value(int gpr) const {
    if (gpr == desc.stack_ptr) return kEntrySp;
    if (gpr == desc.data_base) return Image::kDataBase;
    return 0;
  }
  [[nodiscard]] std::uint8_t free_gpr(Rng& rng) const {
    for (;;) {
      const auto r = static_cast<std::uint8_t>(rng.next_below(32));
      if (!pinned(r)) return r;
    }
  }
};

/// Random registers, CR and data words; pinned GPRs keep their values.
State random_state(const Target& t, Rng& rng) {
  State s;
  for (int r = 0; r < 32; ++r) {
    s.regs.gpr[r] = t.pinned(r) ? t.pinned_value(r) : random_word(rng);
    s.regs.fpr[r] = random_double(rng);
  }
  s.regs.cr = static_cast<std::uint32_t>(rng.next_u64());
  for (auto& w : s.mem) w = random_word(rng);
  return s;
}

/// Random operands for `op`; for a memory op also the base/index values
/// that keep its address inside the data segment.
MInstr random_instr(MOp op, const Target& t, Rng& rng, State* s) {
  MInstr m;
  m.op = op;
  m.rd = static_cast<std::uint8_t>(rng.next_below(32));
  m.ra = static_cast<std::uint8_t>(rng.next_below(32));
  m.rb = static_cast<std::uint8_t>(rng.next_below(32));
  m.rc = static_cast<std::uint8_t>(rng.next_below(32));
  m.sh = static_cast<std::uint8_t>(rng.next_below(32));
  m.mb = static_cast<std::uint8_t>(rng.next_below(32));
  m.me = static_cast<std::uint8_t>(rng.next_below(32));
  m.crf = static_cast<std::uint8_t>(rng.next_below(8));
  m.crbd = static_cast<std::uint8_t>(rng.next_below(32));
  m.crba = static_cast<std::uint8_t>(rng.next_below(32));
  m.crbb = static_cast<std::uint8_t>(rng.next_below(32));
  m.crbit = static_cast<std::uint8_t>(rng.next_below(32));
  m.expect = rng.next_bool();
  m.disp = 1;  // taken or not, the next instruction runs
  const mach::OpDesc& d = mach::op_desc(op);
  if (d.format == mach::Format::RegImmWide)
    m.imm = static_cast<std::int32_t>(rng.next_range(-(1 << 19), (1 << 19) - 1));
  else if (d.imm == mach::Imm::U)
    m.imm = static_cast<std::int32_t>(rng.next_below(65536));
  else if (rng.next_bool())
    m.imm = static_cast<std::int32_t>(rng.next_range(-40, 40));
  else
    m.imm = static_cast<std::int32_t>(rng.next_range(-32768, 32767));
  if (mach::is_memory_op(op)) {
    m.ra = t.free_gpr(rng);
    s->regs.gpr[m.ra] = kMemBase;
    const auto offset = static_cast<std::int32_t>(rng.next_range(-8, 8) * 4);
    if (mach::is_x_form(op)) {
      do m.rb = t.free_gpr(rng); while (m.rb == m.ra);
      s->regs.gpr[m.rb] = static_cast<std::uint32_t>(offset);
    } else {
      m.imm = offset;
    }
  }
  return m;
}

/// The data-segment words a memory op accesses ([first, last]).
std::pair<std::size_t, std::size_t> accessed_words(const MInstr& m,
                                                 const State& s) {
  const std::uint32_t ea =
      s.regs.gpr[m.ra] + (mach::is_x_form(m.op)
                              ? s.regs.gpr[m.rb]
                              : static_cast<std::uint32_t>(m.imm));
  const std::size_t first = (ea - Image::kDataBase) / 4;
  return {first, first + mach::mem_bytes(m.op) / 4 - 1};
}

/// The image [body...; b +1; blr] of function "f". Global "mem" is the data
/// segment's first kDataWords words.
Image image_for(const std::string& target, const std::vector<MInstr>& body) {
  MInstr b;
  b.op = MOp::B;
  b.disp = 1;
  MInstr blr;
  blr.op = MOp::Blr;
  Image img;
  img.target = target;
  for (const MInstr& m : body) img.words.push_back(mach::encode(m));
  img.words.push_back(mach::encode(b));
  img.words.push_back(mach::encode(blr));
  img.data_init.assign(kDataWords * 4, 0);
  img.fn_entry["f"] = Image::kCodeBase;
  img.fn_end["f"] =
      Image::kCodeBase + 4 * static_cast<std::uint32_t>(img.words.size());
  img.global_addr["mem"] = Image::kDataBase;
  return img;
}

Outcome run(const Image& img, const State& s) {
  Machine machine(img);
  for (std::size_t i = 0; i < kDataWords; ++i)
    machine.write_global("mem", i,
                         minic::Value::of_i32(static_cast<std::int32_t>(s.mem[i])));
  machine.set_registers(s.regs);
  machine.call("f", {}, minic::Type::I32);
  Outcome out;
  out.state.regs = machine.registers();
  for (std::size_t i = 0; i < kDataWords; ++i)
    out.state.mem[i] = static_cast<std::uint32_t>(
        machine.read_global("mem", i, minic::Type::I32).i);
  out.taken = machine.stats().taken_branches;
  return out;
}

/// Compares two states on the registers and CR fields `roles` lists as
/// written (`written_only`) or on all the others; names the first that
/// differs, or returns "".
std::string differs(const State& x, const State& y, const Roles& roles,
                    bool written_only) {
  for (int r = 0; r < 32; ++r) {
    if (roles.writes_res(r) != written_only) continue;
    if (x.regs.gpr[r] != y.regs.gpr[r]) return "r" + std::to_string(r);
  }
  for (int r = 0; r < 32; ++r) {
    if (roles.writes_res(32 + r) != written_only) continue;
    if (bits_of(x.regs.fpr[r]) != bits_of(y.regs.fpr[r]))
      return "f" + std::to_string(r);
  }
  for (int f = 0; f < 8; ++f) {
    if (roles.writes_res(IssueModel::kCrBase + f) != written_only) continue;
    if (cr_field(x.regs.cr, f) != cr_field(y.regs.cr, f))
      return "cr" + std::to_string(f);
  }
  return "";
}

/// Evaluates the machine checker's terms over a concrete initial state.
/// Leaves: kInit is the resource's initial value, kMem the word(s) its load
/// event read from the initial memory, kConst the constant. Each operator
/// kind is restated here, independently of the simulator. GPR values and CR
/// fields are u32; FPR values are the double's bits.
class TermEval {
 public:
  TermEval(const validate::SegmentTerms& st, const State& s,
           const std::vector<validate::MEvent>& events)
      : t_(st.table), s_(s) {
    for (const validate::MEvent& e : events) {
      const auto kind = t_.kind(e.tag);
      if (kind != validate::kLoad4 && kind != validate::kLoad8) continue;
      const std::size_t w = word_index(eval(t_.kids(e.tag)[0]));
      loaded_.push_back(kind == validate::kLoad4
                            ? s.mem[w]
                            : std::uint64_t{s.mem[w]} << 32 | s.mem[w + 1]);
    }
  }

  static std::size_t word_index(std::uint64_t addr) {
    return (static_cast<std::uint32_t>(addr) - Image::kDataBase) / 4;
  }

  std::uint64_t eval(validate::TermId id) const {
    using namespace validate;
    const std::int64_t imm = t_.imm(id);
    const auto kids = t_.kids(id);
    const auto u = [&](std::size_t k) {
      return static_cast<std::uint32_t>(eval(kids[k]));
    };
    const auto i = [&](std::size_t k) { return static_cast<std::int32_t>(u(k)); };
    const auto f = [&](std::size_t k) {
      const std::uint64_t b = eval(kids[k]);
      double d = 0;
      std::memcpy(&d, &b, sizeof d);
      return d;
    };
    const auto field = [](bool lt, bool gt, bool eq, bool so) -> std::uint64_t {
      return (lt ? 8u : 0u) | (gt ? 4u : 0u) | (eq ? 2u : 0u) | (so ? 1u : 0u);
    };
    const auto fbit = [](std::uint64_t fld, std::int64_t b) {
      return (fld >> (3 - b)) & 1;
    };
    const auto w32 = [](std::uint32_t v) -> std::uint64_t { return v; };
    switch (static_cast<MKind>(t_.kind(id))) {
      case kInit: {
        const auto r = static_cast<int>(imm & 0xFFFFFFFF);
        if (r < 32) return s_.regs.gpr[r];
        if (r < 64) return bits_of(s_.regs.fpr[r - 32]);
        return cr_field(s_.regs.cr, r - IssueModel::kCrBase);
      }
      case kMem: return loaded_.at(static_cast<std::size_t>(imm & 0xFFFFFFFF));
      case kConst: return static_cast<std::uint32_t>(imm);
      case kRlwinm: {
        const unsigned sh = imm >> 16 & 31, mb = imm >> 8 & 31, me = imm & 31;
        const std::uint32_t rot = sh == 0 ? u(0) : u(0) << sh | u(0) >> (32 - sh);
        std::uint32_t mask = 0;
        for (unsigned b = mb;; b = (b + 1) & 31) {
          mask |= 0x80000000u >> b;
          if (b == me) break;
        }
        return rot & mask;
      }
      case kCrins: {
        const std::int64_t bd = imm >> 16 & 3, ba = imm >> 8 & 3, bb = imm & 3;
        const std::uint64_t bit =
            fbit(eval(kids[1]), ba) | fbit(eval(kids[2]), bb);
        return (eval(kids[0]) & ~(8u >> bd)) | bit << (3 - bd);
      }
      case kAdd: return w32(u(0) + u(1));
      case kMul: return w32(u(0) * u(1));
      case kAnd: return u(0) & u(1);
      case kOr: return u(0) | u(1);
      case kXor: return u(0) ^ u(1);
      case kNor: return w32(~(u(0) | u(1)));
      case kFadd: return bits_of(f(0) + f(1));
      case kFmul: return bits_of(f(0) * f(1));
      case kFeq: return f(0) == f(1) ? 1 : 0;
      case kSub: return w32(u(0) - u(1));
      case kDiv:
        return i(1) == -1 ? w32(0u - u(0)) : w32(static_cast<std::uint32_t>(i(0) / i(1)));
      case kRem:
        return i(1) == -1 ? 0 : w32(static_cast<std::uint32_t>(i(0) % i(1)));
      case kSlw: return (u(1) & 63) >= 32 ? 0 : w32(u(0) << (u(1) & 63));
      case kSrw: return (u(1) & 63) >= 32 ? 0 : w32(u(0) >> (u(1) & 63));
      case kSraw:
        return w32(static_cast<std::uint32_t>(i(0) >> std::min(u(1) & 63, 31u)));
      case kSll: return w32(u(0) << (u(1) & 31));
      case kSrl: return w32(u(0) >> (u(1) & 31));
      case kSra: return w32(static_cast<std::uint32_t>(i(0) >> (u(1) & 31)));
      case kCmp: return field(i(0) < i(1), i(0) > i(1), i(0) == i(1), false);
      case kFcmp:
        if (std::isnan(f(0)) || std::isnan(f(1))) return field(false, false, false, true);
        return field(f(0) < f(1), f(0) > f(1), f(0) == f(1), false);
      case kFsub: return bits_of(f(0) - f(1));
      case kFdiv: return bits_of(f(0) / f(1));
      case kSlt: return i(0) < i(1) ? 1 : 0;
      case kSltu: return u(0) < u(1) ? 1 : 0;
      case kFlt: return f(0) < f(1) ? 1 : 0;
      case kFle: return f(0) <= f(1) ? 1 : 0;
      case kLis: return w32(u(0) << 16);
      case kLui: return w32(u(0) << 12);
      case kNeg: return w32(0u - u(0));
      case kFneg: return bits_of(-f(0));
      case kFabs: return bits_of(std::fabs(f(0)));
      case kFcti: {
        const double d = f(0);
        if (std::isnan(d) || d <= -2147483649.0) return 0x80000000u;
        if (d >= 2147483648.0) return 0x7FFFFFFFu;
        return w32(static_cast<std::uint32_t>(static_cast<std::int32_t>(d)));
      }
      case kIcvf: return bits_of(static_cast<double>(i(0)));
      case kMfcr: {
        std::uint64_t cr = 0;
        for (std::size_t k = 0; k < 8; ++k) cr = cr << 4 | eval(kids[k]);
        return cr;
      }
      case kJumpCond:
        return fbit(eval(kids[0]), imm >> 1 & 3) == static_cast<std::uint64_t>(imm & 1);
      case kCmpBranch:
        switch (static_cast<MOp>(imm & 0xFF)) {
          case MOp::Beq: return u(0) == u(1);
          case MOp::Bne: return u(0) != u(1);
          case MOp::Blt: return i(0) < i(1);
          case MOp::Bge: return i(0) >= i(1);
          default: break;
        }
        break;
      case kJump: case kReturn: return 1;
      default: break;
    }
    ADD_FAILURE() << "no evaluation for term kind " << t_.kind(id);
    return 0;
  }

 private:
  const validate::TermTable& t_;
  const State& s_;
  std::vector<std::uint64_t> loaded_;  // kMem n: the n-th load's value
};

/// (d): the checker's terms for `m`, evaluated over `s`, against the
/// simulator's outcome `out`.
void check_terms(const Target& t, const MInstr& m, const Roles& roles,
                 const State& s, const Outcome& out, const std::string& what) {
  validate::SegmentTerms st;
  st.reset(0);
  validate::SymEnv env;
  std::vector<validate::MEvent> events;
  int n_loads = 0;
  mach::AsmOp op;
  op.ins = m;
  validate::sym_step(op, 0, t.desc.zero_gpr, st, env, events, n_loads);
  const TermEval ev(st, s, events);
  for (int r : roles.writes) {
    std::uint64_t want = 0;
    if (r < 32) {
      want = out.state.regs.gpr[r];
    } else if (r < 64) {
      want = bits_of(out.state.regs.fpr[r - 32]);
    } else {
      want = cr_field(out.state.regs.cr, r - IssueModel::kCrBase);
    }
    EXPECT_EQ(ev.eval(env.val[static_cast<std::size_t>(r)]), want)
        << what << ": the term of resource " << r
        << " evaluates to another value than the simulator's";
  }
  for (const validate::MEvent& e : events) {
    const auto kind = st.table.kind(e.tag);
    if (kind == validate::kStore4 || kind == validate::kStore8) {
      const auto kids = st.table.kids(e.tag);
      const std::size_t w = TermEval::word_index(ev.eval(kids[0]));
      const std::uint64_t stored =
          kind == validate::kStore4
              ? out.state.mem[w]
              : std::uint64_t{out.state.mem[w]} << 32 | out.state.mem[w + 1];
      EXPECT_EQ(ev.eval(kids[1]), stored) << what << ": stored value";
    } else if (kind == validate::kJumpCond || kind == validate::kCmpBranch) {
      // [op; b +1; blr] takes two branches besides a taken op.
      EXPECT_EQ(ev.eval(e.tag), out.taken == 3 ? 1u : 0u)
          << what << ": branch condition";
    }
  }
}

/// Runs the trials of one op; counts the (c) checks made and those whose
/// interval was narrower than the whole i32 range.
void check_op(const std::string& target_name, MOp op, Rng& rng,
              int* analyzed, int* narrow) {
  const Target t{mach::target_by_name(target_name)};
  int ran = 0;
  for (int trial = 0; trial < kTrialsPerOp; ++trial) {
    State s = random_state(t, rng);
    const MInstr m = random_instr(op, t, rng, &s);
    const Roles roles = roles_of(m);
    const Image img = image_for(target_name, {m});
    const std::string what =
        target_name + " `" + mach::format_instr(m, Image::kCodeBase) + "`";

    Outcome base;
    try {
      base = run(img, s);
    } catch (const machine::MachineError&) {
      continue;  // a trapping divide by zero has no result to compare
    }
    ++ran;

    // (a) Only the listed resources change.
    const std::string changed = differs(s, base.state, roles, false);
    EXPECT_EQ(changed, "") << what << " changed unlisted " << changed;
    for (std::size_t i = 0; i < kDataWords; ++i) {
      if (mach::is_store(op)) {
        const auto [first, last] = accessed_words(m, s);
        if (i >= first && i <= last) continue;
      }
      EXPECT_EQ(s.mem[i], base.state.mem[i])
          << what << " changed unlisted memory word " << i;
    }
    if (!mach::is_branch(op)) {
      EXPECT_EQ(base.taken, 2u) << what << " transferred control";
    }

    // (b) Unlisted reads do not influence the written values.
    State other = s;
    for (int r = 0; r < 32; ++r) {
      if (!t.pinned(r) && !roles.reads_res(r))
        other.regs.gpr[r] = random_word(rng);
      if (!roles.reads_res(32 + r)) other.regs.fpr[r] = random_double(rng);
    }
    for (int f = 0; f < 8; ++f) {
      if (roles.reads_res(IssueModel::kCrBase + f)) continue;
      const int shift = 28 - 4 * f;
      other.regs.cr = (other.regs.cr & ~(0xFu << shift)) |
                      (static_cast<std::uint32_t>(rng.next_below(16)) << shift);
    }
    for (std::size_t i = 0; i < kDataWords; ++i) {
      if (mach::is_load(op)) {
        const auto [first, last] = accessed_words(m, s);
        if (i >= first && i <= last) continue;
      }
      other.mem[i] = random_word(rng);
    }
    const Outcome alt = run(img, other);
    const std::string moved = differs(base.state, alt.state, roles, true);
    EXPECT_EQ(moved, "") << what << ": " << moved
                         << " depends on a resource the table does not read";
    if (mach::is_store(op)) {
      const auto [first, last] = accessed_words(m, s);
      for (std::size_t i = first; i <= last; ++i)
        EXPECT_EQ(base.state.mem[i], alt.state.mem[i])
            << what << ": stored word " << i << " depends on an unread resource";
    }
    EXPECT_EQ(base.taken, alt.taken)
        << what << ": branch outcome depends on an unread resource";

    // (d) The checker's terms evaluate to the simulator's results.
    check_terms(t, m, roles, s, base, what);

    // (c) The concrete GPR result lies in the interval analysis's result.
    if (mach::op_desc(op).rd != mach::RegUse::GW) continue;
    wcet::AnnotIndex annots;
    for (int r : roles.reads) {
      if (r >= 32) continue;
      annots.constraints[Image::kCodeBase].push_back(
          {mach::MLoc{mach::MLoc::Kind::Gpr, r, 0, false},
           around(rng, static_cast<std::int32_t>(s.regs.gpr[r]), 20)});
    }
    const wcet::Cfg cfg = wcet::build_cfg(img, "f");
    const wcet::ValueAnalysisResult values =
        wcet::analyze_values(cfg, annots, t.desc);
    const int after = cfg.block_at(Image::kCodeBase + 8);
    ASSERT_GE(after, 0);
    const Interval& got =
        values.block_in[static_cast<std::size_t>(after)].gpr[m.rd];
    const std::int64_t concrete = static_cast<std::int32_t>(base.state.regs.gpr[m.rd]);
    EXPECT_TRUE(got.contains(concrete))
        << what << ": result " << concrete << " outside the analysis interval ["
        << got.lo() << ", " << got.hi() << "]";
    ++*analyzed;
    if (!(got == Interval::i32_range())) ++*narrow;
  }
  EXPECT_GT(ran, kTrialsPerOp / 2) << target_name << " " << mach::mnemonic(op);
}

TEST(OpTable, RowsAgreeWithTheSimulatorAndTheValueAnalysis) {
  Rng rng(20110318);
  for (const std::string& name : mach::target_names()) {
    const mach::TargetDesc& desc = mach::target_by_name(name);
    int ops = 0;
    int analyzed = 0;
    int narrow = 0;
    for (std::size_t i = 0; i < mach::kNumOps; ++i) {
      const auto op = static_cast<MOp>(i);
      if (!desc.is_legal(op)) continue;
      ++ops;
      check_op(name, op, rng, &analyzed, &narrow);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(ops, 30) << name;
    EXPECT_GT(analyzed, 0) << name;
    EXPECT_GT(narrow, analyzed / 4) << name << ": (c) compared mostly tops";
    std::printf("%s: %d ops, %d interval checks, %d narrower than i32\n",
                name.c_str(), ops, analyzed, narrow);
  }
}

// Every op whose row is not a branch falls through: the simulator times a
// straight-line run as the words from its first pc up to the next branch op,
// which holds only if every other op leaves `next_pc = pc + 4` and sets no
// taken flag. Each trial runs the image [op; blr] with a branch displacement
// that would leave the image: the call must execute exactly the op and the
// blr, and take exactly one branch (the blr's return).
TEST(OpTable, NonBranchOpsFallThroughWithoutTakenFlag) {
  Rng rng(20110320);
  for (const std::string& name : mach::target_names()) {
    const Target t{mach::target_by_name(name)};
    int ops = 0;
    for (std::size_t i = 0; i < mach::kNumOps; ++i) {
      const auto op = static_cast<MOp>(i);
      if (!t.desc.is_legal(op) || mach::is_branch(op)) continue;
      ++ops;
      for (int trial = 0; trial < 20; ++trial) {
        State s = random_state(t, rng);
        MInstr m = random_instr(op, t, rng, &s);
        m.disp = 5;
        Image img = image_for(name, {});  // [b +1; blr] becomes [op; blr]
        img.words.front() = mach::encode(m);
        Machine machine(img);
        machine.set_registers(s.regs);
        try {
          machine.call("f", {}, minic::Type::I32);
        } catch (const machine::MachineError&) {
          continue;  // a trapping divide by zero
        }
        const std::string what =
            name + " `" + mach::format_instr(m, Image::kCodeBase) + "`";
        EXPECT_EQ(machine.stats().instructions, 2u)
            << what << " did not fall through to pc + 4";
        EXPECT_EQ(machine.stats().taken_branches, 1u)
            << what << " set the taken flag";
      }
    }
    EXPECT_GT(ops, 30) << name;
  }
}

// The store/load lane. Each trial runs [store; load; b +1; blr] with both
// accesses on the stack near the entry stack pointer, at offsets at most 8
// bytes apart, so the load reads the stored bytes, part of them, or a
// neighbouring cell. The analysis starts with every stack cell around the
// access annotated to an interval that holds its initial value, and with
// the store's value and address registers annotated the same way (an index
// register's slack makes the store address imprecise). The loaded GPR must
// lie in the analysis interval after the load: a store that leaves a cell it
// overlaps tracked would show as a stale interval here.
constexpr std::size_t kStackWords = 32;
constexpr std::uint32_t kStackBase = kEntrySp - 64;  // kStackWords around sp

/// One trial of the lane; returns whether the interval was narrower than
/// the whole i32 range.
bool store_then_load(const std::string& name, MOp store_op, MOp load_op,
                     Rng& rng) {
  const Target t{mach::target_by_name(name)};
  Machine::Registers regs;
  for (int r = 0; r < 32; ++r) {
    regs.gpr[r] = t.pinned(r) ? t.pinned_value(r) : random_word(rng);
    regs.fpr[r] = random_double(rng);
  }
  std::vector<std::uint32_t> stack(kStackWords);
  for (auto& w : stack) w = random_word(rng);

  wcet::AnnotIndex annots;
  auto& at_entry = annots.constraints[Image::kCodeBase];
  const auto annotate_gpr = [&](int r, const Interval& range) {
    at_entry.push_back({mach::MLoc{mach::MLoc::Kind::Gpr, r, 0, false}, range});
  };
  std::vector<std::uint8_t> used;  // distinct free registers for every role
  const auto fresh = [&] {
    for (;;) {
      const std::uint8_t r = t.free_gpr(rng);
      if (std::find(used.begin(), used.end(), r) != used.end()) continue;
      used.push_back(r);
      return r;
    }
  };
  // An access at `offset` from sp: d-form offset(sp), or x-form with a base
  // register holding sp and an index register holding offset.
  const auto address = [&](MInstr* m, std::int32_t offset) {
    if (!mach::is_x_form(m->op)) {
      m->ra = static_cast<std::uint8_t>(t.desc.stack_ptr);
      m->imm = offset;
      return;
    }
    m->ra = fresh();
    m->rb = fresh();
    regs.gpr[m->ra] = kEntrySp;
    regs.gpr[m->rb] = static_cast<std::uint32_t>(offset);
    annotate_gpr(m->ra, Interval::constant(kEntrySp));
    annotate_gpr(m->rb, around(rng, offset, 12));
  };
  const auto store_off = static_cast<std::int32_t>(rng.next_range(-8, 4) * 4);
  const auto load_off =
      store_off + static_cast<std::int32_t>(rng.next_range(-2, 2) * 4);
  MInstr store;
  store.op = store_op;
  if (mach::mem_bytes(store_op) == 8) {
    store.rd = static_cast<std::uint8_t>(rng.next_below(32));
  } else {
    store.rd = fresh();
    annotate_gpr(store.rd,
                 around(rng, static_cast<std::int32_t>(regs.gpr[store.rd]), 12));
  }
  address(&store, store_off);
  MInstr load;
  load.op = load_op;
  load.rd = fresh();
  address(&load, load_off);
  for (std::size_t w = 0; w < kStackWords; ++w) {
    const auto offset =
        static_cast<std::int32_t>(kStackBase + 4 * w - kEntrySp);
    at_entry.push_back(
        {mach::MLoc{mach::MLoc::Kind::StackSlot, 0, offset, false},
         around(rng, static_cast<std::int32_t>(stack[w]), 12)});
  }

  Image img = image_for(name, {store, load});
  img.global_addr["stack"] = kStackBase;
  Machine machine(img);
  for (std::size_t w = 0; w < kStackWords; ++w)
    machine.write_global(
        "stack", w, minic::Value::of_i32(static_cast<std::int32_t>(stack[w])));
  machine.set_registers(regs);
  machine.call("f", {}, minic::Type::I32);
  const std::int64_t loaded =
      static_cast<std::int32_t>(machine.registers().gpr[load.rd]);

  const wcet::Cfg cfg = wcet::build_cfg(img, "f");
  const wcet::ValueAnalysisResult values =
      wcet::analyze_values(cfg, annots, t.desc);
  const int after = cfg.block_at(Image::kCodeBase + 12);
  EXPECT_GE(after, 0);
  if (after < 0) return false;
  const Interval& got =
      values.block_in[static_cast<std::size_t>(after)].gpr[load.rd];
  EXPECT_TRUE(got.contains(loaded))
      << name << " `" << mach::format_instr(store, Image::kCodeBase) << "; "
      << mach::format_instr(load, Image::kCodeBase + 4) << "`: loaded "
      << loaded << " outside the analysis interval [" << got.lo() << ", "
      << got.hi() << "]";
  return !(got == Interval::i32_range());
}

TEST(OpTable, StoreThenLoadStaysInsideTheAnalysisInterval) {
  constexpr int kTrialsPerPair = 120;
  Rng rng(20110319);
  int checked = 0;
  int narrow = 0;
  for (const std::string& name : mach::target_names()) {
    const mach::TargetDesc& desc = mach::target_by_name(name);
    for (const MOp store : {MOp::Stw, MOp::Stwx, MOp::Stfd, MOp::Stfdx}) {
      for (const MOp load : {MOp::Lwz, MOp::Lwzx}) {
        if (!desc.is_legal(store) || !desc.is_legal(load)) continue;
        for (int trial = 0; trial < kTrialsPerPair; ++trial) {
          ++checked;
          if (store_then_load(name, store, load, rng)) ++narrow;
        }
      }
    }
  }
  EXPECT_GT(narrow, checked / 3) << "the lane compared mostly tops";
  std::printf("store/load lane: %d checks, %d narrower than i32\n", checked,
              narrow);
}

// Pinned case found by the property test: cror writes one bit of its
// destination field and keeps the other three, so it reads that field. When
// its row listed the field as written only, machine liveness took cr2 as
// dead between the cmpw and the cror, so the machine checkers would not have
// compared the bits of cr2 that the mfcr reads.
TEST(OpTable, CrorKeepsTheRestOfItsDestinationFieldLive) {
  MInstr cmp;
  cmp.op = MOp::Cmpw;
  cmp.crf = 2;
  cmp.ra = 3;
  cmp.rb = 4;
  MInstr cror;  // cr2.lt <- cr0.lt | cr0.gt
  cror.op = MOp::Cror;
  cror.crbd = 8;
  cror.crba = 0;
  cror.crbb = 1;
  MInstr mfcr;
  mfcr.op = MOp::Mfcr;
  mfcr.rd = 3;
  MInstr blr;
  blr.op = MOp::Blr;
  mach::AsmFunction fn;
  fn.name = "f";
  for (const MInstr& m : {cmp, cror, mfcr, blr}) {
    mach::AsmOp op;
    op.ins = m;
    fn.ops.push_back(op);
  }

  const Roles roles = roles_of(cror);
  EXPECT_TRUE(roles.reads_res(IssueModel::kCrBase + 2));
  EXPECT_TRUE(roles.writes_res(IssueModel::kCrBase + 2));
  const mach::MachineLiveness live(fn, mach::target_by_name("ppc"));
  EXPECT_TRUE(live.live_after(0, IssueModel::kCrBase + 2));
}

}  // namespace
}  // namespace vc
