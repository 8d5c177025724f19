// The system-level property sweep — the repository's strongest guarantees,
// checked over freshly generated random workloads (parameterized by seed):
//
//   P1 (semantic preservation): for every generated node and configuration,
//       the compiled binary on the machine simulator agrees bit-exactly with
//       the block-diagram reference simulator over stateful call sequences.
//   P2 (WCET soundness): the static bound dominates every observed run.
//   P3 (validator acceptance): validated compilation accepts every genuine
//       pipeline (no false rejections).
//   P4 (cache-analysis monotonicity): disabling the cache analysis never
//       produces a smaller bound.
//   P5 (cross-engine agreement): the exact LP-based IPET engine is sound
//       against every observed run, carries a verified certificate, and on
//       the optimizing configurations never exceeds the structural bound.
//   P6 (dynamic refutation): every P1/P2 execution runs with the execution
//       monitor fully armed — every control transfer must be an edge of the
//       reconstructed CFG, every annotation interval must hold live, and no
//       loop may exceed its bound row (a MonitorError fails the sweep).
//   P7 (cross-target soundness): the same source compiled for every
//       registered target yields, per target, an IPET bound that dominates
//       that target's own monitored executions, with a verified certificate
//       — and every target agrees bit-exactly with the reference simulator.
//   P8 (SSA pipeline determinism + soundness): with the SSA mid-end bracket
//       enabled, a validated fleet campaign over the seed's nodes produces
//       byte-identical semantic records at jobs=1 and jobs=8, every IPET
//       bound dominates its own monitored executions, and the fully-armed
//       monitor refutes nothing — on every registered target.
#include <gtest/gtest.h>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "dataflow/simulator.hpp"
#include "driver/compiler.hpp"
#include "driver/fleet.hpp"
#include "machine/machine.hpp"
#include "mach/target.hpp"
#include "minic/typecheck.hpp"
#include "support/rng.hpp"
#include "validate/validate.hpp"
#include "wcet/monitor_spec.hpp"
#include "wcet/wcet.hpp"

namespace vc {
namespace {

using minic::Value;

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweep, AllInvariantsHold) {
  const std::uint64_t seed = GetParam();
  const std::vector<dataflow::Node> nodes = dataflow::generate_suite(seed, 3);

  for (const auto& node : nodes) {
    minic::Program program;
    program.name = node.name();
    dataflow::generate_node(node, &program);
    minic::type_check(program);
    const std::string fn = dataflow::step_function_name(node);
    const bool has_io =
        program.find_global(dataflow::kIoBusGlobal) != nullptr;

    for (driver::Config config : driver::kAllConfigs) {
      const driver::Compiled compiled =
          driver::compile_program(program, config);

      // P2 setup: static bounds from both engines (P5 needs the pair).
      wcet::WcetOptions engines;
      engines.engine = wcet::WcetEngine::Both;
      const wcet::WcetResult bound =
          wcet::analyze_wcet(compiled.image, fn, engines);
      ASSERT_TRUE(bound.structural_cycles.has_value());
      ASSERT_TRUE(bound.ipet.has_value());
      const std::uint64_t structural = *bound.structural_cycles;
      const std::uint64_t ipet = bound.ipet->wcet_cycles;
      // P5: every IPET bound ships with an independently checked certificate,
      // and the exact engine never loses to the structural one where the
      // paper's optimizing configurations are concerned.
      EXPECT_TRUE(bound.ipet->certificate_verified)
          << node.name() << " under " << driver::to_string(config);
      if (config == driver::Config::Verified ||
          config == driver::Config::O2Full) {
        EXPECT_LE(ipet, structural)
            << "P5 violated: " << node.name() << " under "
            << driver::to_string(config);
      }
      // P4: cache analysis only tightens (structural vs structural).
      wcet::WcetOptions nocache;
      nocache.cache_analysis = false;
      const wcet::WcetResult loose =
          wcet::analyze_wcet(compiled.image, fn, nocache);
      EXPECT_GE(loose.wcet_cycles, structural);

      // P1 + P2 over a stateful sequence, with the monitor fully armed (P6).
      const machine::MonitorSpec mspec =
          wcet::build_monitor_spec(compiled.image, fn,
                                   machine::MonitorMode::Full);
      machine::Machine m(compiled.image);
      m.arm_monitor(mspec, machine::MonitorMode::Full);
      dataflow::NodeSimulator reference(node);
      Rng rng(seed ^ 0xC0FFEE);
      std::uint64_t executed = 0;
      for (int cycle = 0; cycle < 8; ++cycle) {
        std::vector<double> f_inputs;
        std::vector<std::int32_t> i_inputs;
        std::vector<Value> args;
        for (const auto& p : program.find_function(fn)->params) {
          if (p.type == minic::Type::F64) {
            const double v = rng.next_double(-40.0, 40.0);
            f_inputs.push_back(v);
            args.push_back(Value::of_f64(v));
          } else {
            const auto v =
                static_cast<std::int32_t>(rng.next_range(-3, 3));
            i_inputs.push_back(v);
            args.push_back(Value::of_i32(v));
          }
        }
        const double io = rng.next_double(-2.0, 2.0);
        if (has_io)
          m.write_global(dataflow::kIoBusGlobal, 0, Value::of_f64(io));
        const std::vector<double> want =
            reference.step(f_inputs, i_inputs, io);
        m.clear_caches();
        m.call(fn, args, minic::Type::I32);
        executed += m.stats().instructions;
        ASSERT_LE(m.stats().cycles, structural)
            << "P2 violated: " << node.name() << " under "
            << driver::to_string(config);
        ASSERT_LE(m.stats().cycles, ipet)
            << "P5 violated (ipet unsound): " << node.name() << " under "
            << driver::to_string(config);
        for (int k = 0; k < node.output_count(); ++k) {
          ASSERT_EQ(Value::of_f64(want[static_cast<std::size_t>(k)]),
                    m.read_global(dataflow::output_global(node, k), 0,
                                  minic::Type::F64))
              << "P1 violated: " << node.name() << " output " << k
              << " under " << driver::to_string(config) << " cycle " << cycle;
        }
      }
      // P6: the monitor actually ran — it checked every executed step.
      ASSERT_NE(m.monitor(), nullptr);
      EXPECT_EQ(m.monitor()->steps(), executed)
          << node.name() << " under " << driver::to_string(config);
    }

    // P3: validated compilation accepts the genuine pipeline (run on one
    // configuration per node to bound test time).
    const driver::Config vconfig =
        driver::kAllConfigs[seed % 4];
    EXPECT_NO_THROW(validate::validated_compile(program, vconfig, 4, seed))
        << "P3 violated for " << node.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

// P7: the sweep above fixes the default target; this one compiles the same
// sources for every registered target and holds each backend to its own
// bound. Soundness is per-target (each ISA has its own timing model, so the
// bounds are not comparable across targets), but functional behaviour is
// not: every target must agree bit-exactly with the reference simulator.
class CrossTargetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossTargetSweep, EveryTargetSoundAndSemanticallyEqual) {
  const std::uint64_t seed = GetParam();
  const std::vector<dataflow::Node> nodes = dataflow::generate_suite(seed, 2);

  for (const auto& node : nodes) {
    minic::Program program;
    program.name = node.name();
    dataflow::generate_node(node, &program);
    minic::type_check(program);
    const std::string fn = dataflow::step_function_name(node);
    const bool has_io =
        program.find_global(dataflow::kIoBusGlobal) != nullptr;

    for (const std::string& target : mach::target_names()) {
      driver::CompileOptions copts;
      copts.target = target;
      const driver::Compiled compiled =
          driver::compile_program(program, driver::Config::O2Full, copts);
      EXPECT_EQ(compiled.image.target, target);

      wcet::WcetOptions engines;
      engines.engine = wcet::WcetEngine::Both;
      const wcet::WcetResult bound =
          wcet::analyze_wcet(compiled.image, fn, engines);
      ASSERT_TRUE(bound.ipet.has_value()) << node.name() << " on " << target;
      EXPECT_TRUE(bound.ipet->certificate_verified)
          << node.name() << " on " << target;
      const std::uint64_t ipet = bound.ipet->wcet_cycles;

      const machine::MonitorSpec mspec =
          wcet::build_monitor_spec(compiled.image, fn,
                                   machine::MonitorMode::Full);
      machine::Machine m(compiled.image);
      m.arm_monitor(mspec, machine::MonitorMode::Full);
      dataflow::NodeSimulator reference(node);
      Rng rng(seed ^ 0xC0FFEE);
      for (int cycle = 0; cycle < 4; ++cycle) {
        std::vector<double> f_inputs;
        std::vector<std::int32_t> i_inputs;
        std::vector<Value> args;
        for (const auto& p : program.find_function(fn)->params) {
          if (p.type == minic::Type::F64) {
            const double v = rng.next_double(-40.0, 40.0);
            f_inputs.push_back(v);
            args.push_back(Value::of_f64(v));
          } else {
            const auto v = static_cast<std::int32_t>(rng.next_range(-3, 3));
            i_inputs.push_back(v);
            args.push_back(Value::of_i32(v));
          }
        }
        const double io = rng.next_double(-2.0, 2.0);
        if (has_io)
          m.write_global(dataflow::kIoBusGlobal, 0, Value::of_f64(io));
        const std::vector<double> want =
            reference.step(f_inputs, i_inputs, io);
        m.clear_caches();
        m.call(fn, args, minic::Type::I32);
        ASSERT_LE(m.stats().cycles, ipet)
            << "P7 violated (ipet unsound): " << node.name() << " on "
            << target;
        for (int k = 0; k < node.output_count(); ++k) {
          ASSERT_EQ(Value::of_f64(want[static_cast<std::size_t>(k)]),
                    m.read_global(dataflow::output_global(node, k), 0,
                                  minic::Type::F64))
              << "P7 violated (semantics): " << node.name() << " output "
              << k << " on " << target << " cycle " << cycle;
        }
      }
      // A violation would have thrown MonitorError out of m.call; reaching
      // here with a nonzero step count means every step was checked clean.
      ASSERT_NE(m.monitor(), nullptr);
      EXPECT_GT(m.monitor()->steps(), 0u) << node.name() << " on " << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossTargetSweep,
                         ::testing::Values(111u, 222u, 333u, 444u));

// P8: the SSA-enabled pipeline under the full campaign harness. Per seed,
// a validated (checker-gated) fleet run with the SSA bracket on, the IPET
// engine, and the monitor fully armed — once serial and once on 8 workers.
// The semantic record set must be byte-identical across worker counts
// (FleetOptions' determinism contract survives the new mid-end), every
// record must verify its IPET certificate and dominate its own observed
// cycles, and no monitor violation may surface a refuted static claim.
class SsaSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SsaSweep, SsaCampaignDeterministicSoundAndMonitorClean) {
  const std::uint64_t seed = GetParam();
  std::vector<dataflow::Node> nodes = dataflow::generate_suite(seed, 2);
  std::vector<minic::Program> programs;
  programs.reserve(nodes.size());
  std::vector<driver::FleetUnit> units;
  for (const auto& node : nodes) {
    minic::Program program;
    program.name = node.name();
    dataflow::generate_node(node, &program);
    minic::type_check(program);
    programs.push_back(std::move(program));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i)
    units.push_back({nodes[i].name(), &programs[i],
                     dataflow::step_function_name(nodes[i]), std::nullopt});

  for (const std::string& target : mach::target_names()) {
    driver::FleetOptions options;
    options.target = target;
    options.configs = {driver::Config::Verified, driver::Config::O2Full};
    options.exec_cycles = 6;
    options.wcet = true;
    options.wcet_engine = wcet::WcetEngine::Ipet;
    options.monitor = machine::MonitorMode::Full;
    options.ssa = true;
    options.suite_seed = seed;
    options.compile_override = [](const minic::Program& program,
                                  driver::Config config,
                                  const driver::CompileOptions& copts) {
      return validate::validated_compile(program, config, /*n_tests=*/4,
                                         /*seed=*/1,
                                         driver::ValidateLevel::Rtl, copts);
    };

    options.jobs = 1;
    const driver::FleetReport serial = driver::run_fleet(units, options);
    options.jobs = 8;
    const driver::FleetReport parallel = driver::run_fleet(units, options);

    ASSERT_EQ(serial.records.size(), parallel.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      const driver::FleetRecord& r = serial.records[i];
      ASSERT_TRUE(r.ok) << "P8: " << r.name << " on " << target << ": "
                        << r.error;
      EXPECT_EQ(driver::record_core_json(r).dump(),
                driver::record_core_json(parallel.records[i]).dump())
          << "P8 violated (determinism): " << r.name << " on " << target;
      EXPECT_TRUE(r.wcet_ipet_certified)
          << "P8 violated (uncertified IPET): " << r.name << " on " << target;
      EXPECT_LE(r.observed_max_cycles, r.wcet_ipet_cycles)
          << "P8 violated (ipet unsound): " << r.name << " on " << target;
      EXPECT_GT(r.monitored_steps, 0u) << r.name << " on " << target;
      EXPECT_EQ(r.monitor_violations, 0u)
          << "P8 violated (monitor): " << r.name << " on " << target;
    }
    EXPECT_EQ(serial.monitor_violations, 0u) << "on " << target;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsaSweep,
                         ::testing::Values(1201u, 1202u, 1203u, 1204u));

}  // namespace
}  // namespace vc
