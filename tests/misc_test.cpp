// Miscellaneous invariants: build determinism, string helpers, WCET report
// formatting, driver artifact bookkeeping, and image well-formedness.
#include <gtest/gtest.h>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/compiler.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "support/bitset.hpp"
#include "support/strings.hpp"
#include "wcet/report.hpp"
#include "wcet/wcet.hpp"

namespace vc {
namespace {

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

TEST(Strings, Helpers) {
  EXPECT_EQ(hex32(0x1234), "0x00001234");
  EXPECT_EQ(hex32(0xFFFFFFFF), "0xffffffff");
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_TRUE(starts_with("--config=O2", "--config="));
  EXPECT_FALSE(starts_with("-c", "--"));
  // format_double round-trips exactly.
  for (double v : {0.1, 1.0 / 3.0, -0.0, 1e-300, 12345.678}) {
    EXPECT_EQ(std::stod(format_double(v)), v);
  }
}

TEST(Strings, ParseCountFlag) {
  EXPECT_EQ(parse_count_flag("8"), 8);
  EXPECT_EQ(parse_count_flag("0"), 0);
  EXPECT_FALSE(parse_count_flag("").has_value());
  EXPECT_FALSE(parse_count_flag("abc").has_value());
  EXPECT_FALSE(parse_count_flag("-1").has_value());
  EXPECT_FALSE(parse_count_flag("8x").has_value());
  EXPECT_FALSE(parse_count_flag("10000001").has_value());
  // A value past `long`'s or `int`'s range is rejected, never truncated.
  EXPECT_FALSE(parse_count_flag("4294967297").has_value());
  EXPECT_FALSE(parse_count_flag("99999999999999999999").has_value());
}

TEST(Bitset, DenseBitsetOperations) {
  DenseBitset a(130);
  EXPECT_TRUE(a.none());
  a.set(0);
  a.set(63);
  a.set(64);
  a.set(129);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_TRUE(a.test(63) && a.test(64));
  EXPECT_FALSE(a.test(1));
  a.reset(63);
  EXPECT_EQ(a.count(), 3u);

  DenseBitset b(130);
  b.set(0);
  b.set(100);
  EXPECT_TRUE(a.union_with(b));       // adds bit 100
  EXPECT_FALSE(a.union_with(b));      // already a superset: no change
  EXPECT_EQ(a.count(), 4u);
  DenseBitset c = a;
  EXPECT_TRUE(c.intersect_with(b));   // drops 64 and 129
  EXPECT_EQ(c.count(), 2u);
  a.subtract(b);
  EXPECT_FALSE(a.test(0));
  EXPECT_TRUE(a.test(64));

  std::vector<std::size_t> seen;
  c.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 100}));
  c.clear();
  EXPECT_TRUE(c.none());
  EXPECT_TRUE(c == DenseBitset(130));
}

TEST(Determinism, CompilingTwiceYieldsIdenticalImages) {
  const auto nodes = dataflow::generate_suite(4242, 3);
  for (const auto& node : nodes) {
    minic::Program program;
    dataflow::generate_node(node, &program);
    minic::type_check(program);
    for (driver::Config config : driver::kAllConfigs) {
      const auto a = driver::compile_program(program, config);
      const auto b = driver::compile_program(program, config);
      ASSERT_EQ(a.image.words, b.image.words)
          << node.name() << " under " << driver::to_string(config);
      ASSERT_EQ(a.image.data_init, b.image.data_init);
      ASSERT_EQ(a.image.annotations.size(), b.image.annotations.size());
    }
  }
}

TEST(Determinism, WcetIsDeterministic) {
  const auto program = parse(R"(
    global f64 s = 0.0;
    func f64 f(f64 x) {
      local i32 i;
      for (i = 0; i < 7; i = i + 1) { s = s + x; }
      return s;
    }
  )");
  const auto compiled = driver::compile_program(program, driver::Config::O2Full);
  const auto r1 = wcet::analyze_wcet(compiled.image, "f");
  const auto r2 = wcet::analyze_wcet(compiled.image, "f");
  EXPECT_EQ(r1.wcet_cycles, r2.wcet_cycles);
  EXPECT_EQ(r1.block_costs, r2.block_costs);
}

TEST(Report, ContainsTheEssentials) {
  const auto program = parse(R"(
    func i32 f() {
      local i32 i; local i32 s;
      s = 0;
      for (i = 0; i < 4; i = i + 1) { s = s + i; }
      return s;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  const auto result = wcet::analyze_wcet(compiled.image, "f");
  const std::string report = wcet::format_report(compiled.image, "f", result);
  EXPECT_NE(report.find("WCET report for 'f'"), std::string::npos);
  EXPECT_NE(report.find("bound: " + std::to_string(result.wcet_cycles)),
            std::string::npos);
  EXPECT_NE(report.find("bound 4"), std::string::npos);  // the loop bound
  EXPECT_NE(report.find("blocks"), std::string::npos);
}

TEST(Driver, ArtifactsRecordThePipeline) {
  const auto program = parse(R"(
    func f64 f(f64 x) {
      local f64 a; local f64 b;
      a = x * 2.0;
      b = x * 2.0;   // CSE food
      return a + b + (1.0 + 2.0);
    }
  )");
  const auto verified =
      driver::compile_program(program, driver::Config::Verified);
  const auto& art = verified.artifacts.at("f");
  EXPECT_FALSE(art.passes_applied.empty());
  EXPECT_LE(art.rtl_optimized.instruction_count(),
            art.rtl_lowered.instruction_count());
  EXPECT_EQ(art.spill_count, 0);

  const auto o0 = driver::compile_program(program, driver::Config::O0Pattern);
  EXPECT_TRUE(o0.artifacts.at("f").passes_applied.empty());
}

TEST(Image, CodeAndDataAreWellFormed) {
  const auto nodes = dataflow::generate_suite(99, 2);
  for (const auto& node : nodes) {
    minic::Program program;
    dataflow::generate_node(node, &program);
    minic::type_check(program);
    const auto compiled =
        driver::compile_program(program, driver::Config::O2Full);
    const mach::Image& image = compiled.image;
    // Every word decodes; every branch lands inside the function it is in.
    for (std::size_t i = 0; i < image.words.size(); ++i) {
      const std::uint32_t addr =
          mach::Image::kCodeBase + static_cast<std::uint32_t>(i) * 4;
      ASSERT_NO_THROW({
        const mach::MInstr ins = mach::decode(image.words[i]);
        if (ins.op == mach::MOp::B || ins.op == mach::MOp::Bc) {
          const std::uint32_t target =
              addr + static_cast<std::uint32_t>(ins.disp) * 4;
          ASSERT_GE(target, mach::Image::kCodeBase);
          ASSERT_LT(target, mach::Image::kCodeBase + image.code_size_bytes());
        }
      });
    }
    // Annotation addresses point into the code segment.
    for (const auto& a : image.annotations) {
      EXPECT_GE(a.addr, mach::Image::kCodeBase);
      EXPECT_LT(a.addr, mach::Image::kCodeBase + image.code_size_bytes());
    }
    // The data segment fits the 16-bit displacement window.
    EXPECT_LE(image.data_init.size(), 32767u);
  }
}

}  // namespace
}  // namespace vc
