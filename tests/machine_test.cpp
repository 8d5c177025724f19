// Machine simulator tests: instruction semantics on hand-assembled images,
// big-endian memory, cache statistics, traps, pinned execution statistics
// of multi-run programs (the simulator times each straight-line run as a
// unit), and the IssueModel timing rules shared with the WCET analyzer.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "machine/machine.hpp"
#include "mach/program.hpp"
#include "mach/timing.hpp"
#include "mach/target.hpp"

namespace vc {
namespace {

using machine::Machine;
using mach::MInstr;
using mach::MOp;

/// Assembles a raw instruction sequence (ending in blr) into an image with a
/// single function "f" and no globals.
mach::Image assemble(std::vector<MInstr> code) {
  MInstr blr;
  blr.op = MOp::Blr;
  code.push_back(blr);
  mach::MachineFunction fn;
  fn.name = "f";
  fn.code = std::move(code);
  minic::Program empty;
  const mach::DataLayout layout(empty);
  return mach::link({fn}, layout);
}

MInstr ri(MOp op, int rd, int ra, std::int32_t imm) {
  MInstr m;
  m.op = op;
  m.rd = static_cast<std::uint8_t>(rd);
  m.ra = static_cast<std::uint8_t>(ra);
  m.imm = imm;
  return m;
}

MInstr r3(MOp op, int rd, int ra, int rb) {
  MInstr m;
  m.op = op;
  m.rd = static_cast<std::uint8_t>(rd);
  m.ra = static_cast<std::uint8_t>(ra);
  m.rb = static_cast<std::uint8_t>(rb);
  return m;
}

/// Runs "f" and returns the final value of r3.
std::int32_t run_gpr(const std::vector<MInstr>& code) {
  const mach::Image image = assemble(code);
  Machine m(image);
  return m.call("f", {}, minic::Type::I32).i;
}

TEST(Machine, ImmediateConstruction) {
  // lis/ori pair builds a full 32-bit constant.
  EXPECT_EQ(run_gpr({ri(MOp::Lis, 3, 0, 0x1234), ri(MOp::Ori, 3, 3, 0x5678)}),
            0x12345678);
  EXPECT_EQ(run_gpr({ri(MOp::Li, 3, 0, -5)}), -5);
  EXPECT_EQ(run_gpr({ri(MOp::Li, 3, 0, 10), ri(MOp::Addi, 3, 3, -20)}), -10);
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 0x00FF), ri(MOp::Xori, 3, 4, 0x0F0F)}),
            0x0FF0);
}

TEST(Machine, IntegerAluAndShifts) {
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 21), ri(MOp::Li, 5, 0, 2),
                     r3(MOp::Mullw, 3, 4, 5)}),
            42);
  // subf rd, ra, rb = rb - ra.
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 5), ri(MOp::Li, 5, 0, 30),
                     r3(MOp::Subf, 3, 4, 5)}),
            25);
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, -32), ri(MOp::Li, 5, 0, 3),
                     r3(MOp::Divw, 3, 4, 5)}),
            -10);
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 1), ri(MOp::Li, 5, 0, 33),
                     r3(MOp::Slw, 3, 4, 5)}),
            0);  // shift >= 32 clears
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, -64), ri(MOp::Li, 5, 0, 4),
                     r3(MOp::Sraw, 3, 4, 5)}),
            -4);
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 7), r3(MOp::Nor, 3, 4, 4)}), ~7);
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 7), r3(MOp::Neg, 3, 4, 0)}), -7);
}

TEST(Machine, RlwinmMasks) {
  // slwi 2 == rlwinm sh=2, mb=0, me=29.
  MInstr slwi;
  slwi.op = MOp::Rlwinm;
  slwi.rd = 3;
  slwi.ra = 4;
  slwi.sh = 2;
  slwi.mb = 0;
  slwi.me = 29;
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 5), slwi}), 20);
  // Single-bit extraction: bit 31 (LSB after rotate).
  MInstr bit;
  bit.op = MOp::Rlwinm;
  bit.rd = 3;
  bit.ra = 4;
  bit.sh = 1;
  bit.mb = 31;
  bit.me = 31;
  EXPECT_EQ(run_gpr({ri(MOp::Lis, 4, 0, static_cast<std::int16_t>(0x8000)),
                     bit}),
            1);  // MSB rotated into LSB
}

TEST(Machine, CompareBranchAndCr) {
  // if (10 < 20) r3 = 1 else r3 = 2, via cmpwi + bc.
  MInstr cmp;
  cmp.op = MOp::Cmpwi;
  cmp.crf = 0;
  cmp.ra = 4;
  cmp.imm = 20;
  MInstr bc;
  bc.op = MOp::Bc;
  bc.crbit = mach::kLt;  // cr0.lt
  bc.expect = true;
  bc.disp = 3;  // skip the else arm (2 instructions ahead)
  MInstr b_end;
  b_end.op = MOp::B;
  b_end.disp = 2;
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 10), cmp, bc, ri(MOp::Li, 3, 0, 2),
                     b_end, ri(MOp::Li, 3, 0, 1)}),
            1);
  // mfcr materialization: EQ bit of cr0 after equal compare.
  MInstr cmp2;
  cmp2.op = MOp::Cmpwi;
  cmp2.crf = 0;
  cmp2.ra = 4;
  cmp2.imm = 10;
  MInstr mfcr;
  mfcr.op = MOp::Mfcr;
  mfcr.rd = 5;
  MInstr extract;
  extract.op = MOp::Rlwinm;
  extract.rd = 3;
  extract.ra = 5;
  extract.sh = mach::kEq + 1;
  extract.mb = 31;
  extract.me = 31;
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 10), cmp2, mfcr, extract}), 1);
}

TEST(Machine, FloatPipelineAndConversion) {
  // icvf/fcti round trip with truncation.
  MInstr icvf = r3(MOp::Icvf, 1, 4, 0);
  MInstr fadd = r3(MOp::Fadd, 1, 1, 1);  // f1 = 2 * f1
  MInstr fcti = r3(MOp::Fcti, 3, 1, 0);
  EXPECT_EQ(run_gpr({ri(MOp::Li, 4, 0, 21), icvf, fadd, fcti}), 42);
}

TEST(Machine, MemoryIsBigEndianAndBounded) {
  // stw to the stack then byte-order-sensitive reload.
  std::vector<MInstr> code;
  code.push_back(ri(MOp::Lis, 4, 0, 0x1122));
  code.push_back(ri(MOp::Ori, 4, 4, 0x3344));
  code.push_back(ri(MOp::Stw, 4, 1, -8));  // store below the stack pointer
  code.push_back(ri(MOp::Lwz, 3, 1, -8));
  EXPECT_EQ(run_gpr(code), 0x11223344);

  // Out-of-segment access traps.
  std::vector<MInstr> bad;
  bad.push_back(ri(MOp::Li, 4, 0, 0));
  bad.push_back(ri(MOp::Lwz, 3, 4, 16));  // address 16: unmapped
  const mach::Image image = assemble(bad);
  Machine m(image);
  EXPECT_THROW(m.call("f", {}, minic::Type::I32), machine::MachineError);
}

TEST(Machine, DivideByZeroTraps) {
  const mach::Image image = assemble(
      {ri(MOp::Li, 4, 0, 1), ri(MOp::Li, 5, 0, 0), r3(MOp::Divw, 3, 4, 5)});
  Machine m(image);
  EXPECT_THROW(m.call("f", {}, minic::Type::I32), machine::MachineError);
}

TEST(Machine, CacheStatisticsAreCounted) {
  std::vector<MInstr> code;
  code.push_back(ri(MOp::Li, 4, 0, 7));
  code.push_back(ri(MOp::Stw, 4, 1, -8));
  code.push_back(ri(MOp::Lwz, 3, 1, -8));
  code.push_back(ri(MOp::Lwz, 5, 1, -8));
  const mach::Image image = assemble(code);
  Machine m(image);
  m.call("f", {}, minic::Type::I32);
  EXPECT_EQ(m.stats().dcache_reads, 2u);
  EXPECT_EQ(m.stats().dcache_writes, 1u);
  // First access to the line misses; the rest hit.
  EXPECT_EQ(m.stats().dcache_write_misses, 1u);
  EXPECT_EQ(m.stats().dcache_read_misses, 0u);
  EXPECT_GE(m.stats().ifetch_line_misses, 1u);
  EXPECT_GT(m.stats().cycles, 0u);
  EXPECT_EQ(m.stats().instructions, 5u);  // incl. blr
}

TEST(Cache, LruEviction) {
  mach::CacheConfig cfg;
  cfg.sets = 1;
  cfg.ways = 2;
  cfg.line_bytes = 32;
  machine::Cache cache(cfg);
  EXPECT_FALSE(cache.access(0));    // miss, insert A
  EXPECT_FALSE(cache.access(32));   // miss, insert B
  EXPECT_TRUE(cache.access(0));     // hit A (B becomes LRU)
  EXPECT_FALSE(cache.access(64));   // miss, evicts B
  EXPECT_TRUE(cache.access(0));     // A still present
  EXPECT_FALSE(cache.access(32));   // B was evicted
}

// An odd geometry (3 sets x 2 ways): each set keeps its own LRU order, and
// clear() empties every way without changing the replacement order after.
TEST(Cache, LruOrderPerSetAcrossClear) {
  mach::CacheConfig cfg;
  cfg.sets = 3;
  cfg.ways = 2;
  cfg.line_bytes = 32;
  machine::Cache cache(cfg);
  // Lines 0, 3, 6 map to set 0; lines 1, 4 to set 1 (addr = line * 32).
  const auto line = [](std::uint32_t n) { return n * 32; };
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(cache.access(line(0)));
    EXPECT_FALSE(cache.access(line(3)));
    EXPECT_FALSE(cache.access(line(1)));  // set 1 leaves set 0 alone
    EXPECT_TRUE(cache.access(line(0)));   // set 0: [0, 3]
    EXPECT_FALSE(cache.access(line(6)));  // evicts 3: [6, 0]
    EXPECT_TRUE(cache.access(line(0)));   // [0, 6]
    EXPECT_FALSE(cache.access(line(3)));  // evicts 6: [3, 0]
    EXPECT_FALSE(cache.access(line(6)));  // evicts 0: [6, 3]
    EXPECT_TRUE(cache.access(line(3)));
    EXPECT_TRUE(cache.access(line(1)));   // set 1 still holds line 1
    EXPECT_FALSE(cache.access(line(4)));  // set 1: [4, 1]
    EXPECT_TRUE(cache.access(line(1)));
    cache.clear();
  }
  EXPECT_FALSE(cache.access(line(1)));  // clear() emptied set 1 as well
}

TEST(Machine, BranchOutOfImageIsAnInternalError) {
  MInstr b;
  b.op = MOp::B;
  b.disp = 100;
  const mach::Image image = assemble({b});
  Machine m(image);
  try {
    m.call("f", {}, minic::Type::I32);
    FAIL() << "expected an out-of-segment fetch";
  } catch (const InternalError& e) {
    EXPECT_STREQ(e.what(),
                 "internal error: instruction fetch outside code segment: "
                 "0x00001190");
  }
}

TEST(Machine, InvalidWordFaultsOnlyWhenExecuted) {
  MInstr blr;
  blr.op = MOp::Blr;
  // li r3,7; blr; <corrupt word>; blr
  mach::Image image = assemble({ri(MOp::Li, 3, 0, 7), blr, blr});
  constexpr std::uint32_t kBadWord = 0xFFFFFFFFu;
  image.words[2] = kBadWord;
  image.fn_entry["bad"] = mach::Image::kCodeBase + 2 * 4;
  std::string decode_error;
  try {
    (void)mach::decode(kBadWord);
  } catch (const CompileError& e) {
    decode_error = e.what();
  }
  ASSERT_FALSE(decode_error.empty());

  Machine m(image);
  EXPECT_EQ(m.call("f", {}, minic::Type::I32).i, 7);
  // The same machine entering at the corrupt word raises decode's error.
  try {
    m.call("bad", {}, minic::Type::I32);
    FAIL() << "expected the decode error";
  } catch (const CompileError& e) {
    EXPECT_EQ(e.what(), decode_error);
  }
  EXPECT_EQ(m.call("f", {}, minic::Type::I32).i, 7);
}

/// cmpw/cmpwi into cr0 and a bc on one of cr0's bits.
MInstr cmpw(int ra, int rb) {
  MInstr m;
  m.op = MOp::Cmpw;
  m.ra = static_cast<std::uint8_t>(ra);
  m.rb = static_cast<std::uint8_t>(rb);
  return m;
}

MInstr cmpwi(int ra, std::int32_t imm) { return ri(MOp::Cmpwi, 0, ra, imm); }

MInstr bc(int crbit, bool expect, std::int32_t disp) {
  MInstr m;
  m.op = MOp::Bc;
  m.crbit = static_cast<std::uint8_t>(crbit);
  m.expect = expect;
  m.disp = disp;
  return m;
}

/// Every ExecStats field on one line, for pinned comparisons.
std::string stats_line(const machine::ExecStats& s) {
  return "cycles=" + std::to_string(s.cycles) +
         " insns=" + std::to_string(s.instructions) +
         " dr=" + std::to_string(s.dcache_reads) +
         " dw=" + std::to_string(s.dcache_writes) +
         " drm=" + std::to_string(s.dcache_read_misses) +
         " dwm=" + std::to_string(s.dcache_write_misses) +
         " im=" + std::to_string(s.ifetch_line_misses) +
         " tb=" + std::to_string(s.taken_branches);
}

// A 16-iteration loop striding 8 bytes through the stack: every fourth
// iteration's load enters a new D-cache line, so the same straight-line run
// alternates between missing and hitting within one call.
std::vector<MInstr> stride_loop() {
  return {ri(MOp::Addi, 7, 1, -256),  // 0
          ri(MOp::Li, 4, 0, 0),       // 1
          ri(MOp::Li, 5, 0, 16),      // 2
          ri(MOp::Lwz, 6, 7, 0),      // 3: loop head
          ri(MOp::Stw, 4, 7, 4),      // 4
          ri(MOp::Addi, 7, 7, 8),     // 5
          ri(MOp::Addi, 4, 4, 1),     // 6
          cmpw(4, 5),                 // 7
          bc(mach::kLt, true, -5),    // 8: back to 3
          ri(MOp::Addi, 3, 6, 0)};    // 9, then blr
}

// The divider's destination is overwritten before the run's branch (a WAW
// across a blocking unit), and the bc at word 6 falls through, when not
// taken, into word 7 of the same I-cache line.
std::vector<MInstr> divider_waw_loop() {
  return {ri(MOp::Li, 4, 0, 100),     // 0
          ri(MOp::Li, 5, 0, 7),       // 1
          ri(MOp::Li, 8, 0, 0),       // 2
          r3(MOp::Divw, 6, 4, 5),     // 3: loop head
          ri(MOp::Li, 6, 0, 1),       // 4: overwrites the quotient
          cmpwi(8, 1),                // 5
          bc(mach::kEq, true, 2),     // 6: taken only when r8 == 1
          ri(MOp::Addi, 6, 6, 2),     // 7: same line as 6
          ri(MOp::Addi, 8, 8, 1),     // 8
          cmpwi(8, 3),                // 9
          bc(mach::kLt, true, -7),    // 10: back to 3
          ri(MOp::Addi, 3, 6, 0)};    // 11, then blr
}

TEST(MachineTiming, RepeatedWarmCallsArePinned) {
  const mach::Image image = assemble(stride_loop());
  Machine m(image);
  const char* want[] = {
      "cycles=316 insns=101 dr=16 dw=16 drm=4 dwm=0 im=2 tb=16",
      "cycles=179 insns=101 dr=16 dw=16 drm=0 dwm=0 im=0 tb=16",
      "cycles=179 insns=101 dr=16 dw=16 drm=0 dwm=0 im=0 tb=16",
  };
  for (const char* line : want) {
    EXPECT_EQ(m.call("f", {}, minic::Type::I32).i, 0);
    EXPECT_EQ(stats_line(m.stats()), line);
  }
}

TEST(MachineTiming, ColdCallsArePinned) {
  const mach::Image image = assemble(stride_loop());
  Machine m(image);
  for (int call = 0; call < 3; ++call) {
    m.clear_caches();
    m.call("f", {}, minic::Type::I32);
    EXPECT_EQ(stats_line(m.stats()), "cycles=316 insns=101 dr=16 dw=16 drm=4 dwm=0 im=2 tb=16") << "call " << call;
  }
}

TEST(MachineTiming, DividerWawAndSameLineFallThroughArePinned) {
  const mach::Image image = assemble(divider_waw_loop());
  Machine m(image);
  EXPECT_EQ(m.call("f", {}, minic::Type::I32).i, 3);
  EXPECT_EQ(stats_line(m.stats()), "cycles=160 insns=28 dr=0 dw=0 drm=0 dwm=0 im=2 tb=4");
  EXPECT_EQ(m.call("f", {}, minic::Type::I32).i, 3);
  EXPECT_EQ(stats_line(m.stats()), "cycles=100 insns=28 dr=0 dw=0 drm=0 dwm=0 im=0 tb=4");
  m.clear_caches();
  m.call("f", {}, minic::Type::I32);
  EXPECT_EQ(stats_line(m.stats()), "cycles=160 insns=28 dr=0 dw=0 drm=0 dwm=0 im=2 tb=4");
}

// Fuel running out after the lwz and stw of the third iteration, in the
// middle of a run: the truncated call reports the cycles of the 17 words it
// executed, cold and then warm.
TEST(MachineTiming, FuelExhaustedMidRunIsPinned) {
  const mach::Image image = assemble(stride_loop());
  Machine m(image);
  m.set_fuel(17);
  EXPECT_THROW(m.call("f", {}, minic::Type::I32), machine::FuelExhausted);
  EXPECT_EQ(stats_line(m.stats()), "cycles=84 insns=17 dr=3 dw=3 drm=1 dwm=0 im=2 tb=2");
  m.set_fuel(1000);
  m.call("f", {}, minic::Type::I32);
  m.set_fuel(17);
  EXPECT_THROW(m.call("f", {}, minic::Type::I32), machine::FuelExhausted);
  EXPECT_EQ(stats_line(m.stats()), "cycles=25 insns=17 dr=3 dw=3 drm=0 dwm=0 im=0 tb=2");
}

TEST(IssueModel, DualIssueAndHazards) {
  mach::IssueModel pipe(mach::target_by_name("ppc"));
  pipe.reset();
  int reads[16];
  int writes[16];
  int n_reads = 0;
  int n_writes = 0;
  auto issue = [&](const MInstr& m, std::uint32_t mem = 0,
                   std::uint32_t fetch = 0) {
    mach::IssueModel::resources(m, reads, &n_reads, writes, &n_writes);
    return pipe.issue(m, reads, n_reads, writes, n_writes, mem, fetch);
  };

  // Two independent simple IU ops pair in one cycle.
  const auto t0 = issue(ri(MOp::Li, 14, 0, 1));
  const auto t1 = issue(ri(MOp::Li, 15, 0, 2));
  EXPECT_EQ(t0, t1);
  // A third cannot (only two slots per cycle).
  const auto t2 = issue(ri(MOp::Li, 16, 0, 3));
  EXPECT_GT(t2, t1);
  // RAW hazard: consumer of a mullw result waits for its 3-cycle latency.
  const auto t3 = issue(r3(MOp::Mullw, 17, 14, 15));
  const auto t4 = issue(ri(MOp::Addi, 18, 17, 1));
  EXPECT_GE(t4, t3 + 3);
  // The divider blocks its unit until complete.
  const auto t5 = issue(r3(MOp::Divw, 19, 14, 15));
  const auto t6 = issue(r3(MOp::Mullw, 20, 14, 15));  // independent, same IU?
  EXPECT_GE(t6, t5);  // complex IU ops cannot pair
  pipe.drain();
  EXPECT_GE(pipe.current_cycle(), t5 + 19);
}

TEST(IssueModel, FetchStallDelaysIssue) {
  mach::IssueModel pipe(mach::target_by_name("ppc"));
  pipe.reset();
  int reads[16];
  int writes[16];
  int n_reads = 0;
  int n_writes = 0;
  MInstr li = ri(MOp::Li, 14, 0, 1);
  mach::IssueModel::resources(li, reads, &n_reads, writes, &n_writes);
  const auto t = pipe.issue(li, reads, n_reads, writes, n_writes, 0, 30);
  EXPECT_GE(t, 30u);
}

// From a drained state, the cycles a sequence takes do not depend on the
// cycle it starts at or on the history that preceded the drain: the same
// words, issued after two different prefixes, take the same delta.
TEST(IssueModel, DrainedStateIsTranslationInvariant) {
  const mach::TargetDesc& ppc = mach::target_by_name("ppc");
  int reads[mach::IssueModel::kMaxResourcesPerInstr];
  int writes[mach::IssueModel::kMaxResourcesPerInstr];
  int n_reads = 0;
  int n_writes = 0;
  auto issue = [&](mach::IssueModel& pipe, const MInstr& m,
                   std::uint32_t mem = 0) {
    mach::IssueModel::resources(m, reads, &n_reads, writes, &n_writes);
    pipe.issue(m, reads, n_reads, writes, n_writes, mem, 0);
  };
  MInstr fdiv = r3(MOp::Fdiv, 2, 1, 1);
  const std::vector<MInstr> body = {
      r3(MOp::Divw, 6, 4, 5), ri(MOp::Lwz, 7, 1, -8), fdiv,
      ri(MOp::Addi, 8, 6, 1), r3(MOp::Mullw, 9, 7, 8), ri(MOp::Li, 6, 0, 1),
      cmpw(9, 6)};

  mach::IssueModel fresh(ppc);
  fresh.reset();
  fresh.drain();
  mach::IssueModel busy(ppc);
  busy.reset();
  issue(busy, r3(MOp::Divw, 4, 4, 5));
  issue(busy, ri(MOp::Lwz, 5, 1, -16), 30);
  issue(busy, fdiv);
  busy.drain();
  busy.add_stall(6);
  ASSERT_NE(fresh.current_cycle(), busy.current_cycle());

  std::uint64_t delta[2] = {};
  int i = 0;
  for (mach::IssueModel* pipe : {&fresh, &busy}) {
    const std::uint64_t start = pipe->current_cycle();
    for (const MInstr& m : body) issue(*pipe, m);
    pipe->drain();
    delta[i++] = pipe->current_cycle() - start;
  }
  EXPECT_EQ(delta[0], delta[1]);
  EXPECT_GT(delta[0], 19u);  // at least the divider's latency
}

}  // namespace
}  // namespace vc
