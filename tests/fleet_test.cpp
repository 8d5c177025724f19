// Fleet runner: thread-count invariance (the determinism contract — any
// worker count produces bit-identical per-node stats and WCET bounds),
// record ordering, per-job failure isolation, the phase each failure
// surfaces in, and the rejection of unsound bounds.
#include <gtest/gtest.h>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/fleet.hpp"
#include "mach/isa.hpp"
#include "mach/program.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "validate/validate.hpp"

namespace vc {
namespace {

/// Owns the generated programs (FleetUnit only points at them). Moving the
/// struct keeps the programs vector's heap buffer, so the unit pointers stay
/// valid.
struct Suite {
  std::vector<minic::Program> programs;
  std::vector<driver::FleetUnit> units;
};

Suite small_suite(int count) {
  Suite s;
  const std::vector<dataflow::Node> nodes =
      dataflow::generate_suite(20110318, count);
  for (const dataflow::Node& node : nodes) {
    minic::Program program;
    program.name = node.name();
    dataflow::generate_node(node, &program);
    minic::type_check(program);
    s.programs.push_back(std::move(program));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i)
    s.units.push_back({nodes[i].name(), &s.programs[i],
                       dataflow::step_function_name(nodes[i]), std::nullopt});
  return s;
}

driver::FleetOptions exec_and_wcet_options(int jobs) {
  driver::FleetOptions options;
  options.jobs = jobs;
  options.exec_cycles = 10;
  options.wcet = true;
  options.wcet_nocache = true;
  return options;
}

/// Everything except the wall-time fields must match across worker counts.
void expect_records_identical(const driver::FleetReport& a,
                              const driver::FleetReport& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const driver::FleetRecord& ra = a.records[i];
    const driver::FleetRecord& rb = b.records[i];
    SCOPED_TRACE(ra.name + "/" + driver::to_string(ra.config));
    EXPECT_EQ(ra.name, rb.name);
    EXPECT_EQ(ra.config, rb.config);
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.error, rb.error);
    EXPECT_EQ(ra.code_bytes, rb.code_bytes);
    EXPECT_EQ(ra.exec.cycles, rb.exec.cycles);
    EXPECT_EQ(ra.exec.instructions, rb.exec.instructions);
    EXPECT_EQ(ra.exec.dcache_reads, rb.exec.dcache_reads);
    EXPECT_EQ(ra.exec.dcache_writes, rb.exec.dcache_writes);
    EXPECT_EQ(ra.exec.dcache_read_misses, rb.exec.dcache_read_misses);
    EXPECT_EQ(ra.exec.dcache_write_misses, rb.exec.dcache_write_misses);
    EXPECT_EQ(ra.exec.ifetch_line_misses, rb.exec.ifetch_line_misses);
    EXPECT_EQ(ra.exec.taken_branches, rb.exec.taken_branches);
    EXPECT_EQ(ra.observed_max_cycles, rb.observed_max_cycles);
    EXPECT_EQ(ra.wcet_cycles, rb.wcet_cycles);
    EXPECT_EQ(ra.wcet_nocache_cycles, rb.wcet_nocache_cycles);
    EXPECT_EQ(ra.wcet_ipet_cycles, rb.wcet_ipet_cycles);
    EXPECT_EQ(ra.wcet_ipet_capped_edges, rb.wcet_ipet_capped_edges);
    EXPECT_EQ(ra.wcet_ipet_certified, rb.wcet_ipet_certified);
  }
}

TEST(FleetTest, ThreadCountInvariance) {
  const Suite suite = small_suite(6);
  const driver::FleetReport serial =
      driver::run_fleet(suite.units, exec_and_wcet_options(1));
  const driver::FleetReport parallel8 =
      driver::run_fleet(suite.units, exec_and_wcet_options(8));
  EXPECT_EQ(serial.jobs, 1);
  EXPECT_EQ(parallel8.jobs, 8);
  expect_records_identical(serial, parallel8);
}

TEST(FleetTest, ThreadCountInvarianceWithWorkspaceReuse) {
  // The campaign configuration the acceptance run uses: both WCET engines,
  // full translation validation, and the execution monitor armed. Every
  // worker reuses its thread-local CompileWorkspace across jobs, so this is
  // the determinism contract for the pooled-scratch paths specifically: a
  // stale bitset or worklist surviving a reset() would show up here as a
  // jobs=1 vs jobs=8 record divergence.
  const Suite suite = small_suite(5);
  driver::FleetOptions options = exec_and_wcet_options(1);
  options.wcet_engine = wcet::WcetEngine::Both;
  options.monitor = machine::MonitorMode::Full;
  options.compile_override = [](const minic::Program& program,
                                driver::Config config,
                                const driver::CompileOptions& copts) {
    return validate::validated_compile(program, config, /*n_tests=*/4,
                                       /*seed=*/1,
                                       driver::ValidateLevel::Full, copts);
  };
  const driver::FleetReport serial = driver::run_fleet(suite.units, options);
  options.jobs = 8;
  const driver::FleetReport parallel8 =
      driver::run_fleet(suite.units, options);
  expect_records_identical(serial, parallel8);
  for (const driver::FleetRecord& r : serial.records) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_EQ(r.monitor_violations, 0u) << r.name;
  }
}

TEST(FleetTest, RecordOrderingAndShape) {
  const Suite suite = small_suite(3);
  driver::FleetOptions options = exec_and_wcet_options(4);
  const driver::FleetReport report = driver::run_fleet(suite.units, options);
  ASSERT_EQ(report.units, suite.units.size());
  ASSERT_EQ(report.configs, options.configs.size());
  ASSERT_EQ(report.records.size(),
            suite.units.size() * options.configs.size());
  for (std::size_t u = 0; u < report.units; ++u) {
    for (std::size_t c = 0; c < report.configs; ++c) {
      const driver::FleetRecord& r = report.at(u, c);
      EXPECT_EQ(r.name, suite.units[u].name);
      EXPECT_EQ(r.config, options.configs[c]);
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_GT(r.code_bytes, 0u);
      EXPECT_GT(r.exec.cycles, 0u);
      EXPECT_GT(r.wcet_cycles, 0u);
      // Cache analysis can only tighten the bound.
      EXPECT_GE(r.wcet_nocache_cycles, r.wcet_cycles);
      // The bound must cover every observed run (soundness).
      EXPECT_GE(r.wcet_cycles, r.observed_max_cycles);
    }
  }
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.compile_seconds, 0.0);
  EXPECT_FALSE(report.throughput_summary().empty());
}

TEST(FleetTest, BothEnginesFillIpetFieldsAndAggregates) {
  const Suite suite = small_suite(3);
  driver::FleetOptions options = exec_and_wcet_options(2);
  options.wcet_engine = wcet::WcetEngine::Both;
  const driver::FleetReport report = driver::run_fleet(suite.units, options);
  EXPECT_EQ(report.spec.wcet_engine, wcet::WcetEngine::Both);
  std::uint64_t certified = 0;
  for (const driver::FleetRecord& r : report.records) {
    ASSERT_TRUE(r.ok) << r.error;
    // wcet_cycles stays the structural bound (back-compat for the deltas
    // the fig2/tightness tables compute); the IPET bound rides alongside.
    EXPECT_GT(r.wcet_cycles, 0u);
    EXPECT_GT(r.wcet_ipet_cycles, 0u);
    EXPECT_TRUE(r.wcet_ipet_certified);
    // Both engines sound against the observed maximum.
    EXPECT_GE(r.wcet_cycles, r.observed_max_cycles);
    EXPECT_GE(r.wcet_ipet_cycles, r.observed_max_cycles);
    if (r.wcet_ipet_certified) ++certified;
  }
  EXPECT_EQ(report.ipet_records, report.records.size());
  EXPECT_EQ(report.ipet_certified, certified);
  // The footer mentions the engine line when IPET ran.
  EXPECT_NE(report.throughput_summary().find("wcet engine both"),
            std::string::npos);
}

TEST(FleetTest, JobFailureIsIsolated) {
  Suite suite = small_suite(2);
  suite.units[0].entry = "no_such_function";
  driver::FleetOptions options;
  options.jobs = 2;
  options.exec_cycles = 2;
  const driver::FleetReport report = driver::run_fleet(suite.units, options);
  for (std::size_t c = 0; c < report.configs; ++c) {
    EXPECT_FALSE(report.at(0, c).ok);
    EXPECT_FALSE(report.at(0, c).error.empty());
    EXPECT_TRUE(report.at(1, c).ok) << report.at(1, c).error;
  }
}

/// Runs `source`'s `f` as a one-unit Verified campaign: 3 exec cycles
/// under `monitor`, then the structural WCET bound.
driver::FleetRecord run_one(const char* source, machine::MonitorMode monitor) {
  minic::Program program = minic::parse_program(source);
  minic::type_check(program);
  driver::FleetOptions options;
  options.jobs = 1;
  options.configs = {driver::Config::Verified};
  options.exec_cycles = 3;
  options.wcet = true;
  options.monitor = monitor;
  driver::FleetReport report =
      driver::run_fleet({{"u", &program, "f", std::nullopt}}, options);
  return std::move(report.records.front());
}

// A failed record still carries `error` and `monitored_steps` in its core
// JSON, so the phase in which each error surfaces is part of the record.
// The job's flow facts are shared by the monitor spec and the WCET phase;
// these pins hold each fact to being computed in the first phase that
// needs it, and no earlier.
TEST(FleetTest, FailedRecordsPinErrorPhase) {
  // Steps by 2, so no bound is derived, and carries no annotation.
  constexpr const char* kUnbounded = R"(
    func i32 f(i32 n) {
      local i32 i;
      local i32 acc;
      i = 0;
      acc = 0;
      while (i < n) {
        acc = acc + i;
        i = i + 2;
      }
      return acc;
    }
  )";
  const std::string no_bound =
      "no bound for loop headed at 0x00001010 in f (annotation required)";
  // Full mode needs the loop bounds before execution: the job fails before
  // a single step runs.
  const driver::FleetRecord full =
      run_one(kUnbounded, machine::MonitorMode::Full);
  EXPECT_FALSE(full.ok);
  EXPECT_EQ(full.error, no_bound);
  EXPECT_EQ(full.monitored_steps, 0u);
  // Cfg mode needs only the CFG: execution runs under the monitor, and the
  // same error surfaces afterwards, from the WCET phase.
  const driver::FleetRecord cfg = run_one(kUnbounded, machine::MonitorMode::Cfg);
  EXPECT_EQ(
      driver::record_core_json(cfg).dump(),
      "{\"code_bytes\":60,\"config\":\"verified\",\"error\":\"" + no_bound +
          "\",\"exec\":{\"cycles\":0,\"dcache_read_misses\":0,"
          "\"dcache_reads\":0,\"dcache_write_misses\":0,\"dcache_writes\":0,"
          "\"ifetch_line_misses\":0,\"instructions\":0,\"taken_branches\":0},"
          "\"monitor_violations\":0,\"monitored_steps\":27,\"name\":\"u\","
          "\"observed_max_cycles\":0,\"ok\":false,\"wcet_cycles\":0,"
          "\"wcet_ipet_capped_edges\":0,\"wcet_ipet_certified\":false,"
          "\"wcet_ipet_cycles\":0,\"wcet_nocache_cycles\":0}");
}

// An annotation that understates a loop yields a bound below the observed
// execution time. With the monitor off nothing refutes the claim during
// execution, so the job itself must reject the bound as unsound.
TEST(FleetTest, UnsoundBoundFailsTheJob) {
  minic::Program program = minic::parse_program(R"(
    func i32 f(i32 n) {
      local i32 i;
      local i32 acc;
      i = 0;
      acc = n;
      while (i < 20) {
        __annot("loop <= 2");
        acc = acc + i;
        i = i + 1;
      }
      return acc;
    }
  )");
  minic::type_check(program);
  driver::FleetOptions options;
  options.jobs = 1;
  options.configs = {driver::Config::O0Pattern};
  options.exec_cycles = 3;
  options.wcet = true;
  options.wcet_engine = wcet::WcetEngine::Both;
  const driver::FleetReport report =
      driver::run_fleet({{"u", &program, "f", std::nullopt}}, options);
  const driver::FleetRecord& r = report.records.front();
  EXPECT_FALSE(r.ok);
  // The annotated bound covers 2 of the 20 trips.
  EXPECT_EQ(r.error, "unsound WCET bound: observed 591 > structural bound 300");
  // The failed job's executions are not observations.
  EXPECT_EQ(r.observed_max_cycles, 0u);
  // IPET alone reports its own bound.
  options.wcet_engine = wcet::WcetEngine::Ipet;
  const driver::FleetReport ipet =
      driver::run_fleet({{"u", &program, "f", std::nullopt}}, options);
  EXPECT_FALSE(ipet.records.front().ok);
  EXPECT_EQ(ipet.records.front().error,
            "unsound WCET bound: observed 591 > ipet bound 300");
}

/// A hand-assembled `f(n)` whose cycle A -> C -> B -> A is entered at A
/// and at B: no block of it dominates the others, so it forms no natural
/// loop and the structural fold finds a cycle in its region graph. Runs
/// 2 to 3 times around the cycle and returns r4.
mach::Image irreducible_image() {
  const auto instr = [](mach::MOp op, int rd, int ra, std::int32_t imm) {
    mach::MInstr m;
    m.op = op;
    m.rd = static_cast<std::uint8_t>(rd);
    m.ra = static_cast<std::uint8_t>(ra);
    m.imm = imm;
    return m;
  };
  const auto branch = [](mach::MOp op, std::int32_t disp, int crbit = 0) {
    mach::MInstr m;
    m.op = op;
    m.disp = disp;
    m.crbit = static_cast<std::uint8_t>(crbit);
    m.expect = true;
    return m;
  };
  mach::MachineFunction fn;
  fn.name = "f";
  fn.code = {
      instr(mach::MOp::Li, 4, 0, 0),           // 0
      instr(mach::MOp::Cmpwi, 0, 3, 0),        // 1
      branch(mach::MOp::Bc, 5, mach::kEq),     // 2: n == 0 -> B
      instr(mach::MOp::Addi, 4, 4, 1),         // 3: A
      instr(mach::MOp::Cmpwi, 0, 4, 5),        // 4
      branch(mach::MOp::Bc, 4, mach::kGt),     // 5: r4 > 5 -> exit
      branch(mach::MOp::B, 1),                 // 6: C -> B
      instr(mach::MOp::Addi, 4, 4, 2),         // 7: B
      branch(mach::MOp::B, -5),                // 8: B -> A
      instr(mach::MOp::Mr, 3, 4, 0),           // 9: exit
      branch(mach::MOp::Blr, 0),               // 10
  };
  const minic::Program empty;
  return mach::link({fn}, mach::DataLayout(empty));
}

// build_cfg does not reject irreducible flow; the structural fold reports
// it. A Full-mode monitor spec runs that check before execution, a Cfg-mode
// one does not, and the records say so.
TEST(FleetTest, IrreducibleFlowFailsInThePhaseThatFoldsIt) {
  minic::Program program = minic::parse_program("func i32 f(i32 n) { return n; }");
  minic::type_check(program);
  driver::FleetOptions options;
  options.jobs = 1;
  options.configs = {driver::Config::Verified};
  options.exec_cycles = 3;
  options.wcet = true;
  options.compile_override = [](const minic::Program&, driver::Config config,
                                const driver::CompileOptions&) {
    driver::Compiled compiled;
    compiled.config = config;
    compiled.image = irreducible_image();
    return compiled;
  };
  const std::string cycle = "cycle in collapsed region graph (irreducible flow?)";
  options.monitor = machine::MonitorMode::Full;
  const driver::FleetReport full =
      driver::run_fleet({{"u", &program, "f", std::nullopt}}, options);
  EXPECT_EQ(full.records[0].error, cycle);
  EXPECT_EQ(full.records[0].monitored_steps, 0u);
  options.monitor = machine::MonitorMode::Cfg;
  const driver::FleetReport cfg =
      driver::run_fleet({{"u", &program, "f", std::nullopt}}, options);
  EXPECT_EQ(cfg.records[0].error, cycle);
  EXPECT_EQ(cfg.records[0].monitored_steps, 48u);
}

TEST(FleetTest, JobSeedIsPureFunctionOfSuiteSeedAndIndex) {
  EXPECT_EQ(driver::fleet_job_seed(7, 0), driver::fleet_job_seed(7, 0));
  EXPECT_NE(driver::fleet_job_seed(7, 0), driver::fleet_job_seed(7, 1));
  EXPECT_NE(driver::fleet_job_seed(7, 0), driver::fleet_job_seed(8, 0));
}

// The report schema version is a contract with the CI distillers and the
// trajectory tooling; v5 added the vccd service stanza (disabled for
// plain in-process campaigns).
TEST(FleetTest, ReportSchemaIsV5WithServiceStanza) {
  const json::Value doc = driver::to_json(driver::FleetReport{});
  EXPECT_EQ(doc.at("schema").as_string(), "vcflight-fleet-report-v8");
  EXPECT_FALSE(doc.at("service").at("enabled").as_bool(true));
}

}  // namespace
}  // namespace vc
