// WCET analyzer internals: value analysis intervals, cache classification
// behavior, loop-forest construction, block costs, and option monotonicity.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "machine/machine.hpp"
#include "mach/target.hpp"
#include "minic/interp.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "wcet/annotations.hpp"
#include "wcet/cache.hpp"
#include "wcet/cfg.hpp"
#include "wcet/monitor_spec.hpp"
#include "wcet/value_analysis.hpp"
#include "wcet/wcet.hpp"

namespace vc {
namespace {

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

driver::Compiled compile(const minic::Program& p,
                         driver::Config config = driver::Config::Verified) {
  return driver::compile_program(p, config);
}

TEST(WcetValueAnalysis, TracksConstantsAndRefinement) {
  const auto program = parse(R"(
    func i32 f(i32 n) {
      local i32 r;
      if (n < 10) { r = n; } else { r = 10; }
      return r;
    }
  )");
  const auto compiled = compile(program);
  const wcet::Cfg cfg = wcet::build_cfg(compiled.image, "f");
  const wcet::AnnotIndex annots;
  const auto values = wcet::analyze_values(cfg, annots, mach::target_by_name("ppc"));
  // r2 is pinned to the data base everywhere reachable.
  for (const auto& state : values.block_in) {
    if (!state.reachable) continue;
    EXPECT_EQ(state.gpr[2].as_constant(),
              static_cast<std::int64_t>(mach::Image::kDataBase));
    EXPECT_TRUE(state.gpr[1].as_constant().has_value());  // stack pointer
  }
  // A compare fact must be recorded for the conditional block.
  EXPECT_FALSE(values.compare_facts.empty());
}

TEST(WcetValueAnalysis, MemoryAccessAddressesAreResolved) {
  const auto program = parse(R"(
    global f64 arr[8] = {0,1,2,3,4,5,6,7};
    func f64 f(i32 k) {
      local i32 idx;
      // Sequential self-clamps, the idiom interval analysis can refine
      // (a nested ternary hides the relation between arms — documented
      // limitation of non-relational domains).
      idx = k;
      idx = idx < 0 ? 0 : idx;
      idx = idx > 7 ? 7 : idx;
      return arr[idx];
    }
  )");
  const auto compiled = compile(program);
  const wcet::Cfg cfg = wcet::build_cfg(compiled.image, "f");
  const wcet::AnnotIndex annots;
  const auto values = wcet::analyze_values(cfg, annots, mach::target_by_name("ppc"));
  // The array access address interval must be inside the array, thanks to
  // the clamp refinement: [base, base + 7*8].
  const std::uint32_t base = compiled.image.global_addr.at("arr");
  bool found_indexed = false;
  for (const auto& acc : values.accesses) {
    if (acc.is_f64 && !acc.is_store && !acc.address.as_constant()) {
      found_indexed = true;
      EXPECT_GE(acc.address.lo(), base);
      EXPECT_LE(acc.address.hi(), base + 7 * 8);
    }
  }
  EXPECT_TRUE(found_indexed);
}

TEST(WcetCfg, LoopForestForNestedLoops) {
  const auto program = parse(R"(
    func i32 f() {
      local i32 i; local i32 j; local i32 s;
      s = 0;
      for (i = 0; i < 3; i = i + 1) {
        for (j = 0; j < 4; j = j + 1) {
          s = s + 1;
        }
      }
      return s;
    }
  )");
  const auto compiled = compile(program);
  const wcet::Cfg cfg = wcet::build_cfg(compiled.image, "f");
  ASSERT_EQ(cfg.loops.size(), 2u);
  // One loop nested in the other.
  const bool nested_0_in_1 = cfg.loops[0].parent == 1;
  const bool nested_1_in_0 = cfg.loops[1].parent == 0;
  EXPECT_TRUE(nested_0_in_1 || nested_1_in_0);
  const auto& outer = nested_1_in_0 ? cfg.loops[0] : cfg.loops[1];
  const auto& inner = nested_1_in_0 ? cfg.loops[1] : cfg.loops[0];
  EXPECT_GT(outer.blocks.size(), inner.blocks.size());
  EXPECT_FALSE(inner.latches.empty());
  EXPECT_FALSE(inner.exits.empty());
}

TEST(WcetCache, FirstMissThenPersistentHits) {
  // A loop touching one global repeatedly: the line must be classified
  // persistent (one miss per function entry), not miss-per-iteration.
  const auto program = parse(R"(
    global f64 g = 1.0;
    func f64 f() {
      local f64 s;
      local i32 i;
      s = 0.0;
      for (i = 0; i < 50; i = i + 1) {
        s = s + g;
      }
      return s;
    }
  )");
  const auto compiled = compile(program);
  const wcet::WcetResult with_cache =
      wcet::analyze_wcet(compiled.image, "f");
  wcet::WcetOptions no_cache;
  no_cache.cache_analysis = false;
  const wcet::WcetResult without_cache =
      wcet::analyze_wcet(compiled.image, "f", no_cache);
  // Without cache analysis, 50 iterations each pay the miss penalty for the
  // load of g and for the I-lines: vastly larger.
  EXPECT_GT(without_cache.wcet_cycles, with_cache.wcet_cycles * 2);
}

TEST(WcetCache, ImpreciseAccessDoesNotBreakSoundness) {
  // An unclamped data-dependent index (bounded only by the annotation)
  // produces an imprecise access; analysis must still complete and stay
  // above any actual run.
  const auto program = parse(R"(
    global f64 arr[64];
    global f64 sink = 0.0;
    func void f(i32 k) {
      __annot("0 <= %1 <= 63", k);
      sink = arr[k];
    }
  )");
  const auto compiled = compile(program);
  const wcet::WcetResult r = wcet::analyze_wcet(compiled.image, "f");
  machine::Machine m(compiled.image);
  for (int k = 0; k < 64; k += 7) {
    m.clear_caches();
    m.call("f", {minic::Value::of_i32(k)}, minic::Type::I32);
    EXPECT_LE(m.stats().cycles, r.wcet_cycles);
  }
}

TEST(Wcet, LoopBoundTakesMinimumOfSources) {
  // Annotation says 100 but the derived bound is 10: the analyzer must use
  // the tighter derived bound.
  const auto program = parse(R"(
    func i32 f() {
      local i32 i; local i32 s;
      s = 0;
      for (i = 0; i < 10; i = i + 1) {
        __annot("loop <= 100");
        s = s + i;
      }
      return s;
    }
  )");
  const auto compiled = compile(program);
  const wcet::WcetResult r = wcet::analyze_wcet(compiled.image, "f");
  ASSERT_EQ(r.loops.size(), 1u);
  EXPECT_EQ(r.loops[0].bound, 10);
}

TEST(Wcet, ZeroTripLoopIsHandled) {
  const auto program = parse(R"(
    func i32 f() {
      local i32 i; local i32 s;
      s = 7;
      for (i = 5; i < 5; i = i + 1) { s = s + 100; }
      return s;
    }
  )");
  const auto compiled = compile(program);
  const wcet::WcetResult r = wcet::analyze_wcet(compiled.image, "f");
  machine::Machine m(compiled.image);
  EXPECT_EQ(m.call("f", {}, minic::Type::I32), minic::Value::of_i32(7));
  EXPECT_LE(m.stats().cycles, r.wcet_cycles);
}

TEST(Wcet, BlockCostsArePositiveAndReported) {
  const auto program = parse(R"(
    func f64 f(f64 x) { return x * x + 1.0; }
  )");
  const auto compiled = compile(program);
  const wcet::WcetResult r = wcet::analyze_wcet(compiled.image, "f");
  ASSERT_FALSE(r.block_costs.empty());
  for (const auto& [addr, cost] : r.block_costs) {
    EXPECT_GE(addr, mach::Image::kCodeBase);
    EXPECT_GT(cost, 0u);
  }
}

TEST(Wcet, UnknownFunctionThrows) {
  const auto program = parse("func i32 f() { return 1; }");
  const auto compiled = compile(program);
  // A named error listing what the image does define, never a bare
  // std::out_of_range from a map lookup.
  try {
    (void)wcet::analyze_wcet(compiled.image, "ghost");
    FAIL() << "unknown function accepted";
  } catch (const wcet::UnknownFunctionError& e) {
    EXPECT_STREQ(e.what(),
                 "no function 'ghost' in the image (functions: f)");
  }
  EXPECT_THROW(wcet::build_monitor_spec(compiled.image, "ghost",
                                        machine::MonitorMode::Cfg),
               wcet::UnknownFunctionError);
}

}  // namespace
}  // namespace vc
