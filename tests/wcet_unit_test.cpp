// WCET analyzer internals: value analysis intervals, cache classification
// behavior, loop-forest construction, block costs, and option monotonicity.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "machine/machine.hpp"
#include "mach/isa.hpp"
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

mach::MInstr instr(mach::MOp op, int rd, int ra, std::int32_t imm,
                       int rb = 0) {
  mach::MInstr m;
  m.op = op;
  m.rd = static_cast<std::uint8_t>(rd);
  m.ra = static_cast<std::uint8_t>(ra);
  m.rb = static_cast<std::uint8_t>(rb);
  m.imm = imm;
  return m;
}

/// Runs `body; b +1; blr` as a ppc function with f1 = 1.5 and r7 = `r7`,
/// and checks that the simulator's r6 lies in the interval analyze_values
/// gives r6 after the body. Returns the simulated r6.
std::int64_t expect_r6_in_analysis(const std::vector<mach::MInstr>& body,
                                   std::int32_t r7,
                                   const wcet::AnnotIndex& annots) {
  mach::Image img;
  img.target = "ppc";
  for (const mach::MInstr& m : body) img.words.push_back(mach::encode(m));
  mach::MInstr b;
  b.op = mach::MOp::B;
  b.disp = 1;
  mach::MInstr blr;
  blr.op = mach::MOp::Blr;
  img.words.push_back(mach::encode(b));
  img.words.push_back(mach::encode(blr));
  const std::uint32_t after_body =
      mach::Image::kCodeBase + 4 * static_cast<std::uint32_t>(body.size());
  img.fn_entry["f"] = mach::Image::kCodeBase;
  img.fn_end["f"] = after_body + 8;

  machine::Machine m(img);
  machine::Machine::Registers regs = m.registers();
  regs.gpr[7] = static_cast<std::uint32_t>(r7);
  m.set_registers(regs);
  m.call("f", {minic::Value::of_f64(1.5)}, minic::Type::I32);
  const std::int64_t r6 = static_cast<std::int32_t>(m.registers().gpr[6]);

  const wcet::Cfg cfg = wcet::build_cfg(img, "f");
  const auto values =
      wcet::analyze_values(cfg, annots, mach::target_by_name("ppc"));
  const int after = cfg.block_at(after_body + 4);
  EXPECT_GE(after, 0);
  if (after < 0) return r6;
  const Interval& got =
      values.block_in[static_cast<std::size_t>(after)].gpr[6];
  EXPECT_TRUE(got.contains(r6))
      << "r6 = " << r6 << " outside [" << got.lo() << ", " << got.hi() << "]";
  return r6;
}

// An 8-byte store that partly overlaps a tracked 4-byte stack cell must drop
// that cell: stfd at sp-12 writes sp-12..sp-5, so the word stw left at sp-8
// is overwritten by the low half of 1.5 (0 on big-endian ppc). The same
// holds when the store's address is only known to lie in an interval whose
// top end overlaps the cell.
TEST(WcetValueAnalysis, StoreDropsEveryTrackedCellItOverlaps) {
  using mach::MOp;
  const wcet::AnnotIndex none;
  EXPECT_EQ(expect_r6_in_analysis({instr(MOp::Li, 5, 0, 7),
                                   instr(MOp::Stw, 5, 1, -8),
                                   instr(MOp::Stfd, 1, 1, -12),
                                   instr(MOp::Lwz, 6, 1, -8)},
                                  0, none),
            0);

  // stfdx f1, r1, r7 with r7 in [-16, -12]: sp-12 is the top of the range.
  wcet::AnnotIndex r7_range;
  r7_range.constraints[mach::Image::kCodeBase + 8].push_back(
      {mach::MLoc{mach::MLoc::Kind::Gpr, 7, 0, false},
       Interval::range(-16, -12)});
  EXPECT_EQ(expect_r6_in_analysis({instr(MOp::Li, 5, 0, 7),
                                   instr(MOp::Stw, 5, 1, -8),
                                   instr(MOp::Stfdx, 1, 1, 0, 7),
                                   instr(MOp::Lwz, 6, 1, -8)},
                                  -12, r7_range),
            0);
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

// Depth Reducible schedules the structural fold once; analyze_wcet
// evaluates costs along that schedule, and schedules its own fold only for
// facts computed to depth Bounds. Both give the same bound.
TEST(WcetFold, ScheduleIsKeptInTheFlowFactsAndGivesTheSameBound) {
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
  const wcet::FlowFacts bounds =
      wcet::flow_facts(compiled.image, "f", wcet::FlowDepth::Bounds);
  const wcet::FlowFacts reducible =
      wcet::flow_facts(compiled.image, "f", wcet::FlowDepth::Reducible);
  EXPECT_TRUE(bounds.fold.regions.empty());
  const wcet::Cfg& cfg = reducible.cfg;
  ASSERT_EQ(reducible.fold.regions.size(), cfg.loops.size() + 1);
  EXPECT_EQ(reducible.fold.regions[0].nodes.front(), 0);
  for (std::size_t l = 0; l < cfg.loops.size(); ++l) {
    const wcet::FoldRegion& region = reducible.fold.regions[l + 1];
    ASSERT_FALSE(region.nodes.empty()) << "loop " << l << " not scheduled";
    EXPECT_EQ(region.nodes.front(), cfg.loops[l].header);
    EXPECT_EQ(region.latches.size(), cfg.loops[l].latches.size());
    EXPECT_EQ(region.exits.size(), cfg.loops[l].exits.size());
  }
  const std::uint64_t from_bounds =
      wcet::analyze_wcet(compiled.image, bounds).wcet_cycles;
  EXPECT_GT(from_bounds, 0u);
  EXPECT_EQ(wcet::analyze_wcet(compiled.image, reducible).wcet_cycles,
            from_bounds);
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
