// ISA tests: encode/decode round-trips over the whole instruction space
// (randomized per-format sweeps), field-width enforcement, invalid-word
// rejection, classification helpers, and the per-op listing golden file
// (tests/data/isa_listing.txt: one encoded word and assembly line per op).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "mach/isa.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace vc {
namespace {

using mach::MInstr;
using mach::MOp;

using mach::Format;

/// A random instruction over all ops, its immediate and displacement drawn
/// from the full range of the op's format and signedness (op table).
MInstr random_instr(Rng& rng) {
  MInstr m;
  m.op = static_cast<MOp>(rng.next_below(static_cast<int>(mach::kNumOps)));
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
  const mach::OpDesc& d = mach::op_desc(m.op);
  if (d.format == Format::RegImmWide)
    m.imm = static_cast<std::int32_t>(rng.next_range(-(1 << 19), (1 << 19) - 1));
  else if (d.imm == mach::Imm::U)
    m.imm = static_cast<std::int32_t>(rng.next_below(65536));
  else
    m.imm = static_cast<std::int32_t>(rng.next_range(-32768, 32767));
  if (d.format == Format::B)
    m.disp = static_cast<std::int32_t>(rng.next_range(-(1 << 25), (1 << 25) - 1));
  else
    m.disp = static_cast<std::int32_t>(rng.next_range(-32768, 32767));
  return m;
}

/// Normalizes fields the encoding does not carry for this opcode, so that
/// round-trip comparison is meaningful.
MInstr normalized(const MInstr& in) {
  const std::uint32_t word = mach::encode(in);
  return mach::decode(word);
}

class IsaRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsaRoundTrip, EncodeDecodeIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const MInstr m = random_instr(rng);
    const MInstr once = normalized(m);
    // decode(encode(x)) must be a fixed point.
    const MInstr twice = normalized(once);
    EXPECT_TRUE(once == twice) << mach::mnemonic(m.op);
    EXPECT_EQ(mach::encode(once), mach::encode(twice));
    // The carried fields must survive (spot-check the important ones).
    EXPECT_EQ(once.op, m.op);
    const Format f = mach::op_desc(m.op).format;
    if (f == Format::RegImm || f == Format::RegImmWide ||
        f == Format::CmpImm) {
      EXPECT_EQ(once.imm, m.imm) << mach::mnemonic(m.op);
    }
    if (f == Format::B || f == Format::Bc || f == Format::CmpBranch) {
      EXPECT_EQ(once.disp, m.disp) << mach::mnemonic(m.op);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsaRoundTrip, ::testing::Values(11u, 22u, 33u));

TEST(Isa, SpecificEncodingsSurviveExactly) {
  MInstr li;
  li.op = MOp::Li;
  li.rd = 14;
  li.imm = -1234;
  EXPECT_EQ(mach::decode(mach::encode(li)).imm, -1234);

  MInstr rl;
  rl.op = MOp::Rlwinm;
  rl.rd = 15;
  rl.ra = 16;
  rl.sh = 3;
  rl.mb = 31;
  rl.me = 31;
  const MInstr rl2 = mach::decode(mach::encode(rl));
  EXPECT_EQ(rl2.sh, 3);
  EXPECT_EQ(rl2.mb, 31);
  EXPECT_EQ(rl2.me, 31);

  MInstr bc;
  bc.op = MOp::Bc;
  bc.crbit = 6;
  bc.expect = true;
  bc.disp = -12;
  const MInstr bc2 = mach::decode(mach::encode(bc));
  EXPECT_EQ(bc2.crbit, 6);
  EXPECT_TRUE(bc2.expect);
  EXPECT_EQ(bc2.disp, -12);

  MInstr b;
  b.op = MOp::B;
  b.disp = -(1 << 20);
  EXPECT_EQ(mach::decode(mach::encode(b)).disp, -(1 << 20));
}

TEST(Isa, FieldOverflowIsRejected) {
  MInstr li;
  li.op = MOp::Li;
  li.rd = 1;
  li.imm = 40000;  // does not fit simm16
  EXPECT_THROW(mach::encode(li), InternalError);

  MInstr ori;
  ori.op = MOp::Ori;
  ori.imm = -1;  // uimm16 must be non-negative
  EXPECT_THROW(mach::encode(ori), InternalError);

  MInstr b;
  b.op = MOp::B;
  b.disp = 1 << 26;
  EXPECT_THROW(mach::encode(b), InternalError);
}

TEST(Isa, InvalidOpcodeRejectedOnDecode) {
  EXPECT_THROW(mach::decode(0xFFFFFFFFu), CompileError);
}

TEST(Isa, Classification) {
  EXPECT_TRUE(mach::is_memory_op(MOp::Lwz));
  EXPECT_TRUE(mach::is_memory_op(MOp::Stfdx));
  EXPECT_FALSE(mach::is_memory_op(MOp::Add));
  EXPECT_TRUE(mach::is_branch(MOp::B));
  EXPECT_TRUE(mach::is_branch(MOp::Bc));
  EXPECT_TRUE(mach::is_branch(MOp::Blr));
  EXPECT_FALSE(mach::is_branch(MOp::Cmpw));
}

TEST(Isa, FormattingSmoke) {
  MInstr lfd;
  lfd.op = MOp::Lfd;
  lfd.rd = 13;
  lfd.ra = 1;
  lfd.imm = 24;
  EXPECT_EQ(mach::format_instr(lfd, 0x1000), "lfd f13, 24(r1)");
  MInstr fadd;
  fadd.op = MOp::Fadd;
  fadd.rd = 5;
  fadd.ra = 4;
  fadd.rb = 3;
  EXPECT_EQ(mach::format_instr(fadd, 0x1000), "fadd f5, f4, f3");
  MInstr b;
  b.op = MOp::B;
  b.disp = 4;
  EXPECT_EQ(mach::format_instr(b, 0x1000), "b 0x00001010");
}

/// One representative instruction per op, every field set to a distinct
/// value, rendered as "word  listing". Pins the encoding and the printed
/// register classes (r/f) of every field each op uses.
std::string listing_lines() {
  std::string out;
  auto line = [&out](const MInstr& m) {
    out += hex32(mach::encode(m)) + "  " + mach::format_instr(m, 0x1000) + "\n";
  };
  for (std::size_t i = 0; i < mach::kNumOps; ++i) {
    MInstr m;
    m.op = static_cast<MOp>(i);
    m.rd = 3;
    m.ra = 4;
    m.rb = 5;
    m.rc = 6;
    m.imm = (m.op == MOp::Ori || m.op == MOp::Xori) ? 40000 : -12;
    m.sh = 7;
    m.mb = 8;
    m.me = 9;
    m.crf = 2;
    m.crbd = 9;
    m.crba = 10;
    m.crbb = 11;
    m.crbit = 6;
    m.expect = true;
    m.disp = -3;
    line(m);
    if (m.op == MOp::Bc) {
      m.expect = false;
      line(m);
    }
  }
  return out;
}

TEST(Isa, ListingMatchesTheGoldenFile) {
  std::ifstream in(std::string(VCFLIGHT_TEST_DATA_DIR) + "/isa_listing.txt",
                   std::ios::binary);
  std::stringstream want;
  want << in.rdbuf();
  const std::string got = listing_lines();
  if (got != want.str())
    std::ofstream("isa_listing.got.txt", std::ios::binary) << got;
  ASSERT_FALSE(want.str().empty());
  std::istringstream want_lines(want.str());
  std::istringstream got_lines(got);
  std::string w, g;
  for (int line = 1;; ++line) {
    const bool more_w = static_cast<bool>(std::getline(want_lines, w));
    const bool more_g = static_cast<bool>(std::getline(got_lines, g));
    if (!more_w && !more_g) break;
    ASSERT_EQ(more_w, more_g) << "line count differs at line " << line;
    ASSERT_EQ(w, g) << "first differing line " << line;
  }
}

}  // namespace
}  // namespace vc
