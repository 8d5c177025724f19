// Cache-analysis tests through the analyzer's public pipeline: must-hit
// classification for repeated accesses, persistence scoping, imprecise
// access pollution, and agreement with the simulator's actual miss counts.
// A second group drives the must analysis directly on hand-built CFGs over a
// 2-way cache (rv32's associativity), where aging and eviction fire on the
// third line of a set.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "machine/machine.hpp"
#include "mach/target.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "wcet/annotations.hpp"
#include "wcet/cache.hpp"
#include "wcet/cfg.hpp"
#include "wcet/value_analysis.hpp"

namespace vc {
namespace {

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

struct Analysis {
  wcet::Cfg cfg;
  wcet::ValueAnalysisResult values;
  wcet::CacheAnalysisResult caches;
};

Analysis analyze(const driver::Compiled& compiled, const std::string& fn) {
  Analysis a{wcet::build_cfg(compiled.image, fn), {}, {}};
  const wcet::AnnotIndex annots = wcet::index_annotations(
      compiled.image, compiled.image.fn_entry.at(fn),
      compiled.image.fn_end.at(fn));
  a.values = wcet::analyze_values(a.cfg, annots, mach::target_by_name("ppc"));
  a.caches = wcet::analyze_caches(a.cfg, a.values, mach::MachineConfig{});
  return a;
}

int count_daccess(const Analysis& a, wcet::CacheClass cls) {
  int n = 0;
  for (const auto& c : a.caches.daccess)
    if (c.cls == cls) ++n;
  return n;
}

TEST(CacheAnalysis, RepeatedAccessIsAlwaysHit) {
  // Two consecutive reads of the same global: the second must be a must-hit.
  const auto program = parse(R"(
    global f64 g = 1.0;
    func f64 f() {
      return g + g * 2.0;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::O0Pattern);
  const Analysis a = analyze(compiled, "f");
  EXPECT_GE(count_daccess(a, wcet::CacheClass::AlwaysHit), 1);
  // And nothing is an unconditional per-execution miss: straight-line code
  // in a function fits the cache, so first accesses are function-persistent.
  EXPECT_EQ(count_daccess(a, wcet::CacheClass::Miss), 0);
}

TEST(CacheAnalysis, LoopBodyLinesArePersistentNotMiss) {
  const auto program = parse(R"(
    global f64 buf[16];
    func f64 f() {
      local f64 s;
      local i32 i;
      s = 0.0;
      for (i = 0; i < 16; i = i + 1) {
        s = s + buf[i];
      }
      return s;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  const Analysis a = analyze(compiled, "f");
  // I-cache: every line event must be classified AlwaysHit or Persistent —
  // a Miss classification inside the loop would charge 30 cycles * 16.
  for (const auto& block : a.caches.ilines) {
    for (const auto& ev : block) {
      EXPECT_NE(ev.cls.cls, wcet::CacheClass::Miss);
    }
  }
  // The indexed array access has an imprecise (interval) address -> Miss by
  // classification, which is the sound choice.
  EXPECT_GE(count_daccess(a, wcet::CacheClass::Miss), 1);
}

TEST(CacheAnalysis, PersistenceScopeIsOutermost) {
  // A global accessed in a nested loop should be persistent at function
  // scope (one miss total), not per-iteration of any loop.
  const auto program = parse(R"(
    global f64 k = 2.0;
    global f64 acc = 0.0;
    func void f() {
      local i32 i; local i32 j;
      for (i = 0; i < 3; i = i + 1) {
        for (j = 0; j < 3; j = j + 1) {
          acc = acc + k;
        }
      }
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  const Analysis a = analyze(compiled, "f");
  bool found_function_scope = false;
  for (const auto& c : a.caches.daccess) {
    if (c.cls == wcet::CacheClass::Persistent && c.scope == -1)
      found_function_scope = true;
    EXPECT_NE(c.cls, wcet::CacheClass::Miss);
  }
  EXPECT_TRUE(found_function_scope);
}

TEST(CacheAnalysis, ClassificationAgreesWithSimulatedMissCounts) {
  // End-to-end agreement: on a straight-line stateful kernel, the number of
  // simulated D-misses (cold caches) must not exceed the analyzer's charge
  // (persistent lines + per-execution misses).
  const auto program = parse(R"(
    global f64 s0 = 0.0;
    global f64 s1 = 0.0;
    func f64 f(f64 x) {
      s0 = s0 * 0.9 + x;
      s1 = s1 * 0.8 + s0;
      return s0 + s1;
    }
  )");
  for (driver::Config config : driver::kAllConfigs) {
    const auto compiled = driver::compile_program(program, config);
    const Analysis a = analyze(compiled, "f");
    int charged = 0;
    for (const auto& c : a.caches.daccess)
      if (c.cls != wcet::CacheClass::AlwaysHit) ++charged;
    machine::Machine m(compiled.image);
    m.call("f", {minic::Value::of_f64(1.0)}, minic::Type::F64);
    const auto observed = m.stats().dcache_read_misses +
                          m.stats().dcache_write_misses;
    EXPECT_LE(observed, static_cast<std::uint64_t>(charged))
        << driver::to_string(config);
  }
}

// ------------------------------------------- must analysis, 2-way caches

// 4 sets x 2 ways x 32-byte lines: lines 0x000, 0x080, 0x100 share set 0;
// 0x020 sits in set 1, 0x040 in set 2.
constexpr std::uint32_t kA = 0x000;
constexpr std::uint32_t kB = 0x080;
constexpr std::uint32_t kC = 0x100;
constexpr std::uint32_t kP = 0x020;
constexpr std::uint32_t kQ = 0x040;

mach::MachineConfig two_way() {
  mach::MachineConfig config;
  config.icache = {4, 2, 32};
  config.dcache = {4, 2, 32};
  return config;
}

/// A hand-built CFG: block b issues the data accesses blocks[b] in order
/// (one instruction each) and flows to succs[b]. values.accesses lists the
/// accesses block by block, so result.daccess[k] is the k-th access overall.
struct HandCfg {
  wcet::Cfg cfg;
  wcet::ValueAnalysisResult values;
};

HandCfg hand_cfg(const std::vector<std::vector<Interval>>& blocks,
                 const std::vector<std::vector<int>>& succs) {
  HandCfg h;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    wcet::MachineBlock block;
    block.start = 0x1000 + static_cast<std::uint32_t>(b) * 0x100;
    block.instrs.resize(std::max<std::size_t>(blocks[b].size(), 1));
    block.succs = succs[b];
    h.cfg.blocks.push_back(block);
    h.cfg.loop_of.push_back(-1);
    for (std::size_t i = 0; i < blocks[b].size(); ++i) {
      wcet::MemAccess acc;
      acc.block = static_cast<int>(b);
      acc.index = static_cast<int>(i);
      acc.address = blocks[b][i];
      h.values.accesses.push_back(acc);
    }
  }
  return h;
}

Interval at(std::uint32_t addr) { return Interval::constant(addr); }

std::vector<wcet::CacheClass> classes(const HandCfg& h) {
  const wcet::CacheAnalysisResult r =
      wcet::analyze_caches(h.cfg, h.values, two_way());
  std::vector<wcet::CacheClass> out;
  for (const wcet::AccessClass& c : r.daccess) out.push_back(c.cls);
  return out;
}

constexpr wcet::CacheClass kHit = wcet::CacheClass::AlwaysHit;
constexpr wcet::CacheClass kMiss = wcet::CacheClass::Miss;

TEST(MustCacheTwoWay, ThirdLineInASetEvictsTheOldest) {
  // A B C evicts A; B then hits and ages C; A misses and evicts C.
  const auto got = classes(
      hand_cfg({{at(kA), at(kB), at(kC), at(kB), at(kA), at(kB), at(kC)}},
               {{}}));
  EXPECT_EQ(got, (std::vector<wcet::CacheClass>{kMiss, kMiss, kMiss, kHit,
                                                kMiss, kHit, kMiss}));
}

TEST(MustCacheTwoWay, JoinKeepsCommonLinesAtTheLargerAge) {
  // Block 1 loads A then B (A older), block 2 loads B then A and also P;
  // block 3 joins them. A and B are guaranteed there, both at age 1, so
  // the access to C evicts B; P is guaranteed on one path only.
  const auto got = classes(hand_cfg(
      {{}, {at(kA), at(kB)}, {at(kB), at(kA), at(kP)},
       {at(kA), at(kP), at(kC), at(kB)}},
      {{1, 2}, {3}, {3}, {}}));
  ASSERT_EQ(got.size(), 9u);
  EXPECT_EQ(got[5], kHit);   // A: common to both paths
  EXPECT_NE(got[6], kHit);   // P: only on the path through block 2
  EXPECT_EQ(got[8], kMiss);  // B: evicted by C, so the join kept age 1
}

TEST(MustCacheTwoWay, ImpreciseAccessAgesOnlyTheSetsItCovers) {
  // A range over sets 1 and 2, accessed twice, evicts P (set 1) and Q
  // (set 2) but leaves A (set 0) at age 0.
  const Interval sets_1_2 = Interval::range(kP, kQ + 31);
  const auto got = classes(
      hand_cfg({{at(kA), at(kP), at(kQ), sets_1_2, sets_1_2, at(kA), at(kP),
                 at(kQ)}},
               {{}}));
  ASSERT_EQ(got.size(), 8u);
  EXPECT_EQ(got[5], kHit);
  EXPECT_NE(got[6], kHit);
  EXPECT_NE(got[7], kHit);

  // A range of 4 lines covers every set, wherever it starts: twice evicts A.
  const Interval all_sets = Interval::range(0x2020, 0x2020 + 4 * 32 - 1);
  const auto wide = classes(
      hand_cfg({{at(kA), all_sets, at(kA), all_sets, all_sets, at(kA)}}, {{}}));
  ASSERT_EQ(wide.size(), 6u);
  EXPECT_EQ(wide[2], kHit);
  EXPECT_NE(wide[5], kHit);
}

TEST(MustCacheTwoWay, LoopBodyEvictionMakesTheHeaderAccessMiss) {
  // Block 0 loads A, header block 1 reloads it, body block 2 loops back,
  // block 3 is the exit.
  // A body touching one other line of A's set keeps A guaranteed at the
  // header; a body touching two evicts it on the back edge.
  const auto fits =
      classes(hand_cfg({{at(kA)}, {at(kA)}, {at(kB)}, {}},
                       {{1}, {2, 3}, {1}, {}}));
  ASSERT_EQ(fits.size(), 3u);
  EXPECT_EQ(fits[1], kHit);

  const auto evicts =
      classes(hand_cfg({{at(kA)}, {at(kA)}, {at(kB), at(kC)}, {}},
                       {{1}, {2, 3}, {1}, {}}));
  ASSERT_EQ(evicts.size(), 4u);
  EXPECT_EQ(evicts[1], kMiss);

  // The body's own reload of A hits on the first trip only; the fixpoint
  // must carry the back edge's state through the header into the body.
  const auto reload =
      classes(hand_cfg({{at(kA)}, {at(kP)}, {at(kA), at(kB), at(kC)}, {}},
                       {{1}, {2, 3}, {1}, {}}));
  ASSERT_EQ(reload.size(), 5u);
  EXPECT_EQ(reload[2], kMiss);
}

}  // namespace
}  // namespace vc
