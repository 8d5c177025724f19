// Backend no-regression and cross-target determinism, at campaign
// granularity:
//
//   * every compiled image of the reference suite and examples/programs, on
//     both targets, in all four configurations, SSA off and on, must hash
//     exactly as recorded in tests/data/reference_images.txt: the campaign
//     records pin only the code size, so an equal-length operand, register
//     or relocation swap in instruction selection shows up here instead;
//   * the PPC backend, after the machine layer went target-parametric, must
//     reproduce the committed pre-refactor reference campaign byte for byte
//     (tests/data/reference_40.jsonl) — any codegen, timing, scheduling,
//     peephole, or analysis drift shows up as a diff here; the rv32 backend
//     is held the same way to tests/data/reference_40_rv32.jsonl (its 2-way
//     caches exercise must-cache aging and eviction far more than ppc's
//     8-way sets); tests/data/reference_40_cold.jsonl holds both targets'
//     execution statistics with the caches cleared before every call;
//   * per target, a parallel campaign (jobs=8) must be bit-identical to the
//     sequential one (jobs=1): worker scheduling may not leak into records;
//   * the two targets genuinely differ (the rv32 campaign is NOT the ppc
//     one re-labeled), while every record of both stays fully validated,
//     monitored and certified;
//   * on every function of the reference suite, one shared set of WCET flow
//     facts gives each engine and the nocache ablation exactly what the
//     self-contained analyze_wcet computes;
//   * the bench gate (bench_common.hpp) fails on each of its causes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>

#include "artifact/image_io.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "reference_campaign.hpp"
#include "support/hash.hpp"
#include "wcet/wcet.hpp"

namespace vc::bench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Compares campaign records with the committed fixture, record by record
/// first so a mismatch names the record instead of dumping two
/// multi-megabyte strings. On a mismatch the fresh records are left next to
/// the test binary as `<fixture>.got` for diffing.
void expect_reference_records(const std::string& got,
                              const std::string& fixture) {
  const std::string want =
      read_file(std::string(VCFLIGHT_TEST_DATA_DIR) + "/" + fixture);
  if (got != want) std::ofstream(fixture + ".got", std::ios::binary) << got;
  ASSERT_FALSE(want.empty());
  std::istringstream want_lines(want);
  std::istringstream got_lines(got);
  std::string want_line;
  std::string got_line;
  std::size_t line = 0;
  while (std::getline(want_lines, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got_lines, got_line))
        << "campaign lost records at line " << line;
    ASSERT_EQ(got_line, want_line) << "record " << line << " drifted";
  }
  EXPECT_FALSE(std::getline(got_lines, got_line))
      << "campaign gained records";
  EXPECT_EQ(got, want);
}

/// One line per (program, config, target, ssa): the Hash128 of the
/// serialized linked image. Covers the reference suite and every
/// examples/programs/*.mc file; `verified` compiles with absolute hi/lo
/// addressing, the other configurations with small-data addressing.
std::string reference_image_lines() {
  std::vector<std::pair<std::string, minic::Program>> programs;
  for (NodeBundle& b : reference_suite())
    programs.emplace_back(b.program.name, std::move(b.program));
  std::vector<std::filesystem::path> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(VCFLIGHT_EXAMPLES_DIR))
    if (entry.path().extension() == ".mc") examples.push_back(entry.path());
  std::sort(examples.begin(), examples.end());
  for (const std::filesystem::path& path : examples) {
    const std::string stem = path.stem().string();
    minic::Program p = minic::parse_program(read_file(path.string()), stem);
    minic::type_check(p);
    programs.emplace_back(stem, std::move(p));
  }

  std::string out;
  for (const auto& [name, program] : programs)
    for (const driver::ConfigName& config : driver::kConfigNames)
      for (const char* target : {"ppc", "rv32"})
        for (const bool ssa : {false, true}) {
          driver::CompileOptions options;
          options.target = target;
          options.ssa = ssa;
          const std::vector<std::uint8_t> bytes = artifact::serialize_image(
              driver::compile_program(program, config.config, options).image);
          Fnv128 h;
          h.update(bytes.data(), bytes.size());
          out += name + " " + config.cli + " " + target +
                 (ssa ? " ssa " : " nossa ") + h.digest().hex() + "\n";
        }
  return out;
}

TEST(CrossTarget, CompiledImagesAreByteIdentical) {
  const std::string want = read_file(std::string(VCFLIGHT_TEST_DATA_DIR) +
                                     "/reference_images.txt");
  const std::string got = reference_image_lines();
  if (got != want) {
    // Leave the fresh lines next to the test binary for diffing.
    std::ofstream("reference_images.got.txt", std::ios::binary) << got;
  }
  ASSERT_FALSE(want.empty());
  std::istringstream want_lines(want);
  std::istringstream got_lines(got);
  std::string want_line;
  std::string got_line;
  while (std::getline(want_lines, want_line)) {
    ASSERT_TRUE(std::getline(got_lines, got_line)) << "lost " << want_line;
    EXPECT_EQ(got_line, want_line);
  }
  EXPECT_FALSE(std::getline(got_lines, got_line)) << "gained " << got_line;
}

TEST(CrossTarget, PpcReferenceCampaignIsByteIdentical) {
  expect_reference_records(reference_campaign_records("ppc"),
                           "reference_40.jsonl");
}

TEST(CrossTarget, Rv32ReferenceCampaignIsByteIdentical) {
  expect_reference_records(reference_campaign_records("rv32"),
                           "reference_40_rv32.jsonl");
}

// Execution statistics of calls that each start from empty caches, on
// both targets.
TEST(CrossTarget, ColdCacheReferenceCampaignIsByteIdentical) {
  expect_reference_records(reference_cold_records(),
                           "reference_40_cold.jsonl");
}

class CrossTargetDeterminism
    : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossTargetDeterminism, ParallelCampaignMatchesSequential) {
  const std::string target = GetParam();
  std::vector<NodeBundle> suite = make_suite(12);
  suite.push_back(pitch_law());

  const auto run = [&](int jobs) {
    driver::FleetOptions options;
    options.target = target;
    options.jobs = jobs;
    options.exec_cycles = 25;
    options.wcet = true;
    options.wcet_engine = wcet::WcetEngine::Both;
    options.monitor = machine::MonitorMode::Full;
    options.validate = driver::ValidateLevel::Full;
    validate::attach_campaign_validation(&options);
    const driver::FleetReport report =
        driver::run_fleet(to_fleet_units(suite), options);
    EXPECT_EQ(report.spec.target, target);
    EXPECT_EQ(report.monitor_violations, 0u);
    std::string out;
    for (const driver::FleetRecord& r : report.records) {
      EXPECT_TRUE(r.ok) << r.name << " on " << target;
      out += driver::record_core_json(r).dump();
      out += "\n";
    }
    return out;
  };

  const std::string sequential = run(1);
  const std::string parallel = run(8);
  EXPECT_EQ(parallel, sequential)
      << "worker count leaked into campaign records on " << target;
}

INSTANTIATE_TEST_SUITE_P(Targets, CrossTargetDeterminism,
                         ::testing::Values("ppc", "rv32"));

TEST(CrossTarget, TargetsProduceDistinctCode) {
  // Guards against the rv32 "backend" silently falling through to the PPC
  // lowering: the same 12-node campaign must produce different code bytes.
  std::vector<NodeBundle> suite = make_suite(12);
  const auto records = [&](const char* target) {
    driver::FleetOptions options;
    options.target = target;
    options.jobs = 1;
    options.exec_cycles = 0;
    std::string out;
    for (const driver::FleetRecord& r :
         driver::run_fleet(to_fleet_units(suite), options).records)
      out += driver::record_core_json(r).dump();
    return out;
  };
  EXPECT_NE(records("ppc"), records("rv32"));
}

/// analyze_wcet(image, fn, options), or the error it throws.
std::variant<wcet::WcetResult, std::string> wrapper_result(
    const mach::Image& image, const std::string& fn,
    const wcet::WcetOptions& options) {
  try {
    return wcet::analyze_wcet(image, fn, options);
  } catch (const std::exception& e) {
    return e.what();
  }
}

void expect_same_result(const wcet::WcetResult& a, const wcet::WcetResult& b) {
  EXPECT_EQ(a.wcet_cycles, b.wcet_cycles);
  EXPECT_EQ(a.structural_cycles, b.structural_cycles);
  ASSERT_EQ(a.ipet.has_value(), b.ipet.has_value());
  if (a.ipet) {
    EXPECT_EQ(a.ipet->wcet_cycles, b.ipet->wcet_cycles);
    EXPECT_EQ(a.ipet->lp_vars, b.ipet->lp_vars);
    EXPECT_EQ(a.ipet->lp_constraints, b.ipet->lp_constraints);
    EXPECT_EQ(a.ipet->simplex_pivots, b.ipet->simplex_pivots);
    EXPECT_EQ(a.ipet->bnb_nodes, b.ipet->bnb_nodes);
    EXPECT_EQ(a.ipet->capped_edges, b.ipet->capped_edges);
    EXPECT_EQ(a.ipet->certificate_verified, b.ipet->certificate_verified);
    EXPECT_EQ(a.ipet->block_freq, b.ipet->block_freq);
  }
  ASSERT_EQ(a.loops.size(), b.loops.size());
  for (std::size_t l = 0; l < a.loops.size(); ++l) {
    EXPECT_EQ(a.loops[l].header_addr, b.loops[l].header_addr);
    EXPECT_EQ(a.loops[l].bound, b.loops[l].bound);
    EXPECT_EQ(a.loops[l].from_annotation, b.loops[l].from_annotation);
    EXPECT_EQ(a.loops[l].derived, b.loops[l].derived);
  }
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.block_costs, b.block_costs);
}

// One FlowFacts value feeding every engine and the nocache ablation gives
// exactly what the self-contained wrapper computes for each: every function
// of the reference suite, on both targets.
TEST(WcetFlowFacts, SharedFactsMatchTheWrapperOnTheReferenceSuite) {
  std::vector<wcet::WcetOptions> variants(4);
  variants[1].engine = wcet::WcetEngine::Ipet;
  variants[2].engine = wcet::WcetEngine::Both;
  variants[3].cache_analysis = false;
  int analyzed = 0;
  for (const char* target : {"ppc", "rv32"}) {
    driver::CompileOptions copts;
    copts.target = target;
    for (const bench::NodeBundle& b : reference_suite()) {
      const driver::Compiled compiled =
          driver::compile_program(b.program, driver::Config::Verified, copts);
      for (const minic::Function& fn : b.program.functions) {
        SCOPED_TRACE(std::string(target) + " " + b.program.name + "/" + fn.name);
        const wcet::FlowFacts facts = wcet::flow_facts(
            compiled.image, fn.name, wcet::FlowDepth::Bounds);
        for (const wcet::WcetOptions& options : variants) {
          const auto want = wrapper_result(compiled.image, fn.name, options);
          ASSERT_TRUE(std::holds_alternative<wcet::WcetResult>(want))
              << std::get<std::string>(want);
          expect_same_result(
              wcet::analyze_wcet(compiled.image, facts, options),
              std::get<wcet::WcetResult>(want));
          ++analyzed;
        }
      }
    }
  }
  EXPECT_GE(analyzed, 2 * 41 * 4);
}

/// The bench gate's exit code on `report`; its stderr lands in `causes`.
int run_gate(const driver::FleetReport& report, std::string* causes) {
  ::testing::internal::CaptureStderr();
  const int status = gate(report, "bench_x");
  *causes = ::testing::internal::GetCapturedStderr();
  return status;
}

// The campaign verdict every fleet bench exits with, on hand-made reports:
// each cause fails the gate on its own and is named in its output.
TEST(BenchGate, EachCauseFailsTheVerdictAndIsNamed) {
  driver::FleetReport clean;
  clean.spec.monitor = machine::MonitorMode::Full;
  for (const char* name : {"node0", "node1"}) {
    driver::FleetRecord r;
    r.name = name;
    r.config = driver::Config::Verified;
    r.ok = true;
    r.monitored_steps = 40;
    clean.records.push_back(r);
  }
  std::string causes;
  EXPECT_EQ(run_gate(clean, &causes), 0);
  EXPECT_EQ(causes, "");

  driver::FleetReport failed = clean;
  failed.records[1].ok = false;
  failed.records[1].error = "unsound WCET bound: observed 812 > ipet bound 790";
  EXPECT_EQ(run_gate(failed, &causes), 1);
  EXPECT_EQ(causes,
            "bench_x: FAILED: node1 verified on ppc: unsound WCET bound: "
            "observed 812 > ipet bound 790\n");

  driver::FleetReport unchecked = clean;
  unchecked.records[0].monitored_steps = 0;
  EXPECT_EQ(run_gate(unchecked, &causes), 1);
  EXPECT_EQ(causes,
            "bench_x: FAILED: node0 verified on ppc: monitor armed but no "
            "step checked\n");
  // Without an armed monitor, zero steps is the expected reading.
  unchecked.spec.monitor = machine::MonitorMode::Off;
  EXPECT_EQ(run_gate(unchecked, &causes), 0);
}

}  // namespace
}  // namespace vc::bench
