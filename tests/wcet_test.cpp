// WCET analyzer tests: CFG reconstruction sanity, loop-bound derivation,
// and the central soundness property — the static bound dominates every
// observed execution, for every compiler configuration.
#include <gtest/gtest.h>

#include "driver/compiler.hpp"
#include "driver/run_spec.hpp"
#include "machine/machine.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "support/rng.hpp"
#include "wcet/cfg.hpp"
#include "wcet/wcet.hpp"

namespace vc {
namespace {

using minic::Value;

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

void expect_sound(const minic::Program& program, const std::string& fn,
                  const std::vector<std::vector<Value>>& input_sets) {
  for (driver::Config config : driver::kAllConfigs) {
    const driver::Compiled compiled = driver::compile_program(program, config);
    const wcet::WcetResult bound = wcet::analyze_wcet(compiled.image, fn);
    machine::Machine m(compiled.image);
    const minic::Function* f = program.find_function(fn);
    ASSERT_NE(f, nullptr);
    std::uint64_t observed_max = 0;
    for (const auto& args : input_sets) {
      m.clear_caches();  // unknown initial cache state per run
      m.call(fn, args, f->has_return ? f->return_type : minic::Type::I32);
      observed_max = std::max(observed_max, m.stats().cycles);
      ASSERT_GE(bound.wcet_cycles, m.stats().cycles)
          << "UNSOUND bound for config " << driver::to_string(config);
    }
    // The bound should not be absurdly loose either (10x is a generous cap
    // for these small kernels).
    EXPECT_LE(bound.wcet_cycles, observed_max * 10 + 2000)
        << "bound suspiciously loose for " << driver::to_string(config);
  }
}

TEST(Wcet, StraightLine) {
  const auto program = parse(R"(
    func f64 law(f64 a, f64 b) {
      local f64 t;
      t = a * b + a - b;
      return t / (b + 2.5);
    }
  )");
  expect_sound(program, "law",
               {{Value::of_f64(1.0), Value::of_f64(2.0)},
                {Value::of_f64(-3.5), Value::of_f64(0.25)}});
}

TEST(Wcet, BranchyMax) {
  const auto program = parse(R"(
    func f64 sel(f64 x, i32 mode) {
      local f64 r;
      r = 0.0;
      if (mode == 0) { r = x * 2.0; }
      else if (mode == 1) { r = x * x * x; }
      else { r = fabs(x) + 17.5; }
      return r;
    }
  )");
  std::vector<std::vector<Value>> inputs;
  for (int mode = 0; mode < 4; ++mode)
    inputs.push_back({Value::of_f64(1.25), Value::of_i32(mode)});
  expect_sound(program, "sel", inputs);
}

TEST(Wcet, CountedLoopDerivedBound) {
  const auto program = parse(R"(
    global f64 buf[16] = {1,1,1,1, 2,2,2,2, 3,3,3,3, 4,4,4,4};
    func f64 sum16() {
      local f64 acc;
      local i32 i;
      acc = 0.0;
      for (i = 0; i < 16; i = i + 1) {
        acc = acc + buf[i];
      }
      return acc;
    }
  )");
  expect_sound(program, "sum16", {{}});

  // In the optimizing configs the counter lives in a register and the bound
  // must be derivable automatically, with no annotation in the source.
  const driver::Compiled compiled =
      driver::compile_program(program, driver::Config::Verified);
  const wcet::WcetResult r = wcet::analyze_wcet(compiled.image, "sum16");
  ASSERT_EQ(r.loops.size(), 1u);
  EXPECT_TRUE(r.loops[0].derived);
  EXPECT_EQ(r.loops[0].bound, 16);
}

TEST(Wcet, WhileLoopNeedsAnnotation) {
  const std::string body = R"(
    func f64 ramp(f64 x) {
      local f64 r;
      r = 0.0;
      while (r < x) {
        {ANNOT}
        r = r + 1.0;
      }
      return r;
    }
  )";
  // Without an annotation the analysis must refuse (no loop bound).
  {
    std::string src = body;
    src.replace(src.find("{ANNOT}"), 7, "");
    const auto program = parse(src);
    const auto compiled =
        driver::compile_program(program, driver::Config::Verified);
    EXPECT_THROW(wcet::analyze_wcet(compiled.image, "ramp"), wcet::WcetError);
  }
  // With the annotation, analysis succeeds and is sound for inputs within
  // the annotated bound.
  {
    std::string src = body;
    src.replace(src.find("{ANNOT}"), 7, "__annot(\"loop <= 50\");");
    const auto program = parse(src);
    expect_sound(program, "ramp",
                 {{Value::of_f64(0.0)}, {Value::of_f64(12.5)},
                  {Value::of_f64(50.0)}});
  }
}

TEST(Wcet, NestedLoops) {
  const auto program = parse(R"(
    global f64 mat[24] = {0,1,2,3,4,5, 6,7,8,9,10,11,
                          12,13,14,15,16,17, 18,19,20,21,22,23};
    func f64 frob() {
      local f64 acc;
      local i32 i;
      local i32 j;
      acc = 0.0;
      for (i = 0; i < 4; i = i + 1) {
        for (j = 0; j < 6; j = j + 1) {
          acc = acc + mat[i * 6 + j];
        }
      }
      return acc;
    }
  )");
  expect_sound(program, "frob", {{}});
}

TEST(Wcet, ConfigOrderingOnSymbolChain) {
  // A straight-line "symbol chain" like the ACG emits: the WCET improvements
  // must reproduce the paper's ordering:
  //   O2-full <= verified < O1-noregalloc <= O0-pattern.
  const auto program = parse(R"(
    global f64 s0 = 0.1;
    global f64 s1 = 0.2;
    func f64 law(f64 in1, f64 in2, f64 in3) {
      local f64 t1; local f64 t2; local f64 t3; local f64 t4;
      local f64 t5; local f64 t6; local f64 t7; local f64 t8;
      t1 = in1 + in2;
      t2 = t1 * 0.75;
      t3 = t2 + in3;
      t4 = t3 * t1;
      t5 = t4 - in1;
      t6 = t5 * 0.5 + s0;
      t7 = t6 * t6;
      t8 = fmin(fmax(t7, -100.0), 100.0);
      s0 = t6;
      s1 = t8;
      return t8 + t2 * 0.125;
    }
  )");
  std::map<driver::Config, std::uint64_t> wcet;
  for (driver::Config config : driver::kAllConfigs) {
    const auto compiled = driver::compile_program(program, config);
    wcet[config] = wcet::analyze_wcet(compiled.image, "law").wcet_cycles;
  }
  EXPECT_LE(wcet[driver::Config::O2Full], wcet[driver::Config::Verified]);
  EXPECT_LT(wcet[driver::Config::Verified],
            wcet[driver::Config::O1NoRegalloc]);
  EXPECT_LE(wcet[driver::Config::O1NoRegalloc],
            wcet[driver::Config::O0Pattern]);
}

// ----------------------------------------------------------- cross-engine

/// Runs engine=Both across all configs: both bounds must dominate every
/// observed execution, the IPET certificate must verify, and IPET must
/// never be looser than structural.
void expect_cross_engine_sound(const minic::Program& program,
                               const std::string& fn,
                               const std::vector<std::vector<Value>>& inputs) {
  for (driver::Config config : driver::kAllConfigs) {
    const driver::Compiled compiled = driver::compile_program(program, config);
    wcet::WcetOptions options;
    options.engine = wcet::WcetEngine::Both;
    const wcet::WcetResult r =
        wcet::analyze_wcet(compiled.image, fn, options);
    ASSERT_TRUE(r.structural_cycles.has_value());
    ASSERT_TRUE(r.ipet.has_value());
    EXPECT_TRUE(r.ipet->certificate_verified);
    EXPECT_EQ(r.wcet_cycles, r.ipet->wcet_cycles);
    EXPECT_LE(r.ipet->wcet_cycles, *r.structural_cycles)
        << "IPET looser than structural for " << driver::to_string(config);
    machine::Machine m(compiled.image);
    const minic::Function* f = program.find_function(fn);
    ASSERT_NE(f, nullptr);
    for (const auto& args : inputs) {
      m.clear_caches();
      m.call(fn, args, f->has_return ? f->return_type : minic::Type::I32);
      EXPECT_GE(r.ipet->wcet_cycles, m.stats().cycles)
          << "UNSOUND IPET bound for " << driver::to_string(config);
      EXPECT_GE(*r.structural_cycles, m.stats().cycles)
          << "UNSOUND structural bound for " << driver::to_string(config);
    }
  }
}

TEST(WcetIpet, CrossEngineStraightLine) {
  const auto program = parse(R"(
    func f64 law(f64 a, f64 b) {
      local f64 t;
      t = a * b + a - b;
      return t / (b + 2.5);
    }
  )");
  expect_cross_engine_sound(program, "law",
                            {{Value::of_f64(1.0), Value::of_f64(2.0)},
                             {Value::of_f64(-3.5), Value::of_f64(0.25)}});
}

TEST(WcetIpet, CrossEngineBranchesAndNestedLoops) {
  const auto program = parse(R"(
    global f64 mat[24] = {0,1,2,3,4,5, 6,7,8,9,10,11,
                          12,13,14,15,16,17, 18,19,20,21,22,23};
    func f64 frob(i32 mode) {
      local f64 acc;
      local i32 i;
      local i32 j;
      acc = 0.0;
      if (mode == 0) { acc = 100.0; }
      for (i = 0; i < 4; i = i + 1) {
        for (j = 0; j < 6; j = j + 1) {
          acc = acc + mat[i * 6 + j];
        }
      }
      return acc;
    }
  )");
  expect_cross_engine_sound(
      program, "frob", {{Value::of_i32(0)}, {Value::of_i32(1)}});
}

TEST(WcetIpet, InfeasibleEdgeMakesIpetStrictlyTighter) {
  // The range annotation proves the error arm can never execute. The
  // structural engine still pays for it (longest path has no notion of
  // infeasibility); IPET pins the guarded edge's frequency to zero and the
  // bound drops strictly.
  const auto program = parse(R"(
    func f64 guarded(i32 k, f64 x) {
      local f64 r;
      __annot("0 <= %1 <= 9", k);
      r = x * 0.5;
      if (k < 0) {
        r = r * x + 3.25;
        r = r * r - x;
        r = r * r + r * x;
        r = r * r * r;
      }
      return r + 1.0;
    }
  )");
  for (driver::Config config :
       {driver::Config::Verified, driver::Config::O2Full}) {
    const auto compiled = driver::compile_program(program, config);
    wcet::WcetOptions options;
    options.engine = wcet::WcetEngine::Both;
    const wcet::WcetResult r =
        wcet::analyze_wcet(compiled.image, "guarded", options);
    ASSERT_TRUE(r.ipet.has_value());
    EXPECT_GE(r.ipet->capped_edges, 1) << driver::to_string(config);
    EXPECT_LT(r.ipet->wcet_cycles, *r.structural_cycles)
        << "IPET failed to exploit the infeasible edge under "
        << driver::to_string(config);
    // Still sound for every in-range input.
    machine::Machine m(compiled.image);
    for (int k : {0, 5, 9}) {
      m.clear_caches();
      m.call("guarded", {Value::of_i32(k), Value::of_f64(2.0)},
             minic::Type::F64);
      EXPECT_GE(r.ipet->wcet_cycles, m.stats().cycles);
    }
  }
}

TEST(WcetIpet, IpetOnlyEngineOmitsStructural) {
  const auto program = parse(R"(
    func f64 twice(f64 x) { return x + x; }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  wcet::WcetOptions options;
  options.engine = wcet::WcetEngine::Ipet;
  const wcet::WcetResult r =
      wcet::analyze_wcet(compiled.image, "twice", options);
  EXPECT_FALSE(r.structural_cycles.has_value());
  ASSERT_TRUE(r.ipet.has_value());
  EXPECT_EQ(r.wcet_cycles, r.ipet->wcet_cycles);
  EXPECT_GT(r.wcet_cycles, 0u);
}

TEST(WcetIpet, EngineNamesRoundTrip) {
  using wcet::WcetEngine;
  // Engine names are parsed by the job-knob table (driver/run_spec.hpp).
  const auto parse_engine =
      [](const std::string& name) -> std::optional<WcetEngine> {
    driver::JobSpec spec;
    const std::string error = driver::find_spec_field("wcet_engine")
                                  ->set(spec, json::Value(name));
    if (!error.empty()) return std::nullopt;
    return spec.wcet_engine;
  };
  for (WcetEngine e : {WcetEngine::Structural, WcetEngine::Ipet,
                       WcetEngine::Both}) {
    const auto parsed = parse_engine(wcet::to_string(e));
    ASSERT_TRUE(parsed.has_value()) << wcet::to_string(e);
    EXPECT_EQ(*parsed, e);
  }
  EXPECT_FALSE(parse_engine("exact").has_value());
  EXPECT_FALSE(parse_engine("").has_value());
  EXPECT_FALSE(parse_engine("Structural").has_value());
}

TEST(Wcet, CfgReconstruction) {
  const auto program = parse(R"(
    func i32 gcd(i32 a, i32 b) {
      local i32 t;
      __annot("0 <= %1", a);
      while (b != 0) {
        __annot("loop <= 64");
        t = b;
        b = a % b;
        a = t;
      }
      return a;
    }
  )");
  const auto compiled =
      driver::compile_program(program, driver::Config::Verified);
  const wcet::Cfg cfg = wcet::build_cfg(compiled.image, "gcd");
  EXPECT_GE(cfg.blocks.size(), 3u);
  EXPECT_EQ(cfg.loops.size(), 1u);
  // Every block ends with a branch and successors are consistent.
  for (const auto& bb : cfg.blocks) {
    ASSERT_FALSE(bb.instrs.empty());
    EXPECT_TRUE(mach::is_branch(bb.instrs.back().op));
    for (int s : bb.succs) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, static_cast<int>(cfg.blocks.size()));
    }
  }
}

}  // namespace
}  // namespace vc
