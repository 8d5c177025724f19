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
//       with its read GPRs constrained to intervals around their values.
// The stack pointer, the data base and a hardwired zero register keep the
// values the calling convention pins; memory ops address the data segment.
#include <gtest/gtest.h>

#include <algorithm>
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

Image image_for(const std::string& target, const MInstr& m) {
  MInstr b;
  b.op = MOp::B;
  b.disp = 1;
  MInstr blr;
  blr.op = MOp::Blr;
  Image img;
  img.target = target;
  img.words = {mach::encode(m), mach::encode(b), mach::encode(blr)};
  img.data_init.assign(kDataWords * 4, 0);
  img.fn_entry["f"] = Image::kCodeBase;
  img.fn_end["f"] = Image::kCodeBase + 12;
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

/// Runs the trials of one op; counts the (c) checks made and those whose
/// interval was narrower than the whole i32 range.
void check_op(const std::string& target_name, MOp op, Rng& rng,
              int* analyzed, int* narrow) {
  const Target t{mach::target_by_name(target_name)};
  int ran = 0;
  for (int trial = 0; trial < kTrialsPerOp; ++trial) {
    State s;
    for (int r = 0; r < 32; ++r) {
      s.regs.gpr[r] = t.pinned(r) ? t.pinned_value(r) : random_word(rng);
      s.regs.fpr[r] = random_double(rng);
    }
    s.regs.cr = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& w : s.mem) w = random_word(rng);
    const MInstr m = random_instr(op, t, rng, &s);
    const Roles roles = roles_of(m);
    const Image img = image_for(target_name, m);
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

    // (c) The concrete GPR result lies in the interval analysis's result.
    if (mach::op_desc(op).rd != mach::RegUse::GW) continue;
    wcet::AnnotIndex annots;
    for (int r : roles.reads) {
      if (r >= 32) continue;
      const std::int64_t v = static_cast<std::int32_t>(s.regs.gpr[r]);
      auto slack = [&rng]() -> std::int64_t {
        return rng.next_bool() ? 0 : static_cast<std::int64_t>(
                                         rng.next_below(1u << rng.next_below(20)));
      };
      const std::int64_t lo =
          std::max<std::int64_t>(v - slack(), std::numeric_limits<std::int32_t>::min());
      const std::int64_t hi =
          std::min<std::int64_t>(v + slack(), std::numeric_limits<std::int32_t>::max());
      annots.constraints[Image::kCodeBase].push_back(
          {mach::MLoc{mach::MLoc::Kind::Gpr, r, 0, false},
           Interval::range(lo, hi)});
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
