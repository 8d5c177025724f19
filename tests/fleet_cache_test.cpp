// Fleet-level caching contract: a warm rerun through the artifact store
// must produce bit-identical records (modulo timing and cache-outcome
// fields) at any worker count; a corrupted store entry must be detected,
// counted, and transparently recompiled; image-only hits must recompute
// run-dependent results from the cached executable; and the JSON campaign
// report must round-trip the record array. Complements fleet_test.cpp
// (thread-count invariance without a store) and artifact_test.cpp (store
// unit tests).
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <stdexcept>

#include "artifact/store.hpp"
#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/fleet.hpp"
#include "minic/printer.hpp"
#include "minic/typecheck.hpp"
#include "support/json.hpp"

namespace vc {
namespace {

namespace fs = std::filesystem;

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

driver::FleetOptions cached_options(artifact::ArtifactStore* store,
                                    int jobs) {
  driver::FleetOptions options;
  options.jobs = jobs;
  options.exec_cycles = 5;
  options.wcet = true;
  options.wcet_nocache = true;
  options.store = store;
  return options;
}

/// The warm-rerun determinism contract: everything except wall times and
/// cache-outcome flags must be bit-identical.
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
  }
}

class FleetCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("vcflight-fleet-cache-" + std::string(::testing::UnitTest::
                                                       GetInstance()
                                                           ->current_test_info()
                                                           ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(FleetCacheTest, WarmRerunIsBitIdenticalSerialAndParallel) {
  const Suite suite = small_suite(4);
  artifact::ArtifactStore store({dir_, 0});

  const driver::FleetReport cold =
      driver::run_fleet(suite.units, cached_options(&store, 1));
  EXPECT_FALSE(cold.records.empty());
  EXPECT_TRUE(cold.cache_enabled);
  EXPECT_EQ(cold.cache_misses, cold.records.size());
  EXPECT_EQ(cold.cache_full_hits, 0u);

  // Warm rerun, serial: every job replays from the store.
  const driver::FleetReport warm1 =
      driver::run_fleet(suite.units, cached_options(&store, 1));
  EXPECT_EQ(warm1.cache_full_hits, warm1.records.size());
  EXPECT_EQ(warm1.cache_misses, 0u);
  expect_records_identical(cold, warm1);
  for (const driver::FleetRecord& r : warm1.records) EXPECT_TRUE(r.cache_hit);

  // Warm rerun, 8 workers: same records, same hits, regardless of schedule.
  const driver::FleetReport warm8 =
      driver::run_fleet(suite.units, cached_options(&store, 8));
  EXPECT_EQ(warm8.cache_full_hits, warm8.records.size());
  expect_records_identical(cold, warm8);
}

TEST_F(FleetCacheTest, ColdRunsAtDifferentWorkerCountsPublishIdentically) {
  const Suite suite = small_suite(3);
  // Two independent stores, one cold run each at different worker counts:
  // the published artifacts must be interchangeable, so a warm run against
  // either store replays the same records.
  artifact::ArtifactStore store_a({dir_ + "-a", 0});
  artifact::ArtifactStore store_b({dir_ + "-b", 0});
  const driver::FleetReport cold_serial =
      driver::run_fleet(suite.units, cached_options(&store_a, 1));
  const driver::FleetReport cold_parallel =
      driver::run_fleet(suite.units, cached_options(&store_b, 8));
  expect_records_identical(cold_serial, cold_parallel);
  const driver::FleetReport warm_cross =
      driver::run_fleet(suite.units, cached_options(&store_b, 1));
  EXPECT_EQ(warm_cross.cache_full_hits, warm_cross.records.size());
  expect_records_identical(cold_serial, warm_cross);
  fs::remove_all(dir_ + "-a");
  fs::remove_all(dir_ + "-b");
}

TEST_F(FleetCacheTest, CorruptedEntryIsRecompiledTransparently) {
  const Suite suite = small_suite(2);
  artifact::ArtifactStore store({dir_, 0});
  const driver::FleetReport cold =
      driver::run_fleet(suite.units, cached_options(&store, 1));

  // Deliberately corrupt every stored image on disk (flip its first byte,
  // the one just past the entry's meta line).
  std::size_t corrupted = 0;
  for (const auto& shard : fs::directory_iterator(dir_)) {
    if (!shard.is_directory()) continue;
    for (const auto& entry : fs::directory_iterator(shard.path())) {
      if (!entry.is_regular_file()) continue;
      std::fstream f(entry.path(),
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      std::string meta_line;
      std::getline(f, meta_line);
      const std::streampos image_start = f.tellg();
      char byte = 0;
      f.read(&byte, 1);
      f.seekp(image_start);
      byte = static_cast<char>(byte ^ 0xA5);
      f.write(&byte, 1);
      ++corrupted;
    }
  }
  ASSERT_EQ(corrupted, cold.records.size());

  // The rerun must detect every corrupt entry, count it, recompile cold,
  // and still produce bit-identical results.
  const driver::FleetReport rerun =
      driver::run_fleet(suite.units, cached_options(&store, 1));
  EXPECT_EQ(rerun.cache_full_hits, 0u);
  EXPECT_EQ(rerun.cache_misses, rerun.records.size());
  EXPECT_GE(store.stats().corrupt_dropped, corrupted);
  expect_records_identical(cold, rerun);

  // The recompiled artifacts were re-published: a third run is all hits.
  const driver::FleetReport warm =
      driver::run_fleet(suite.units, cached_options(&store, 1));
  EXPECT_EQ(warm.cache_full_hits, warm.records.size());
  expect_records_identical(cold, warm);
}

TEST_F(FleetCacheTest, ChangedRunParametersReuseTheCachedImage) {
  const Suite suite = small_suite(2);
  artifact::ArtifactStore store({dir_, 0});
  driver::run_fleet(suite.units, cached_options(&store, 1));

  // Same compile key, different run parameters: the executable is reused
  // (no compile), execution/WCET are recomputed with the new parameters.
  driver::FleetOptions changed = cached_options(&store, 1);
  changed.exec_cycles = 9;
  changed.suite_seed = 12345;
  const driver::FleetReport image_hits =
      driver::run_fleet(suite.units, changed);
  EXPECT_EQ(image_hits.cache_image_hits, image_hits.records.size());
  EXPECT_EQ(image_hits.cache_full_hits, 0u);
  for (const driver::FleetRecord& r : image_hits.records) {
    EXPECT_TRUE(r.cache_image_hit);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.exec.cycles, 0u);
  }

  // The new parameter stanza was appended: rerunning the changed options is
  // now a full hit, and the original options still hit too.
  const driver::FleetReport warm_changed =
      driver::run_fleet(suite.units, changed);
  EXPECT_EQ(warm_changed.cache_full_hits, warm_changed.records.size());
  expect_records_identical(image_hits, warm_changed);
  const driver::FleetReport warm_original =
      driver::run_fleet(suite.units, cached_options(&store, 1));
  EXPECT_EQ(warm_original.cache_full_hits, warm_original.records.size());
}

TEST_F(FleetCacheTest, NegativeJobsIsRejected) {
  const Suite suite = small_suite(1);
  driver::FleetOptions options;
  options.jobs = -1;
  EXPECT_THROW(driver::run_fleet(suite.units, options),
               std::invalid_argument);
  options.jobs = -100;
  EXPECT_THROW(driver::run_fleet(suite.units, options),
               std::invalid_argument);
}

TEST_F(FleetCacheTest, ReportJsonRoundTripsTheRecordArray) {
  const Suite suite = small_suite(2);
  artifact::ArtifactStore store({dir_, 0});
  const driver::FleetReport report =
      driver::run_fleet(suite.units, cached_options(&store, 2));

  const json::Value doc = driver::to_json(report);
  EXPECT_EQ(doc.at("schema").as_string(), "vcflight-fleet-report-v8");
  EXPECT_EQ(doc.at("units").as_u64(), report.units);
  EXPECT_EQ(doc.at("cache").at("enabled").as_bool(), true);
  // v2 carries the per-pass telemetry array (ordered by pipeline position).
  const json::Array& passes = doc.at("pass_stats").as_array();
  ASSERT_FALSE(passes.empty());
  for (const json::Value& p : passes) {
    EXPECT_FALSE(p.at("name").as_string().empty());
    EXPECT_GE(p.at("runs").as_u64(), 0u);
  }
  // v3 adds the WCET-engine stanza and per-record IPET fields.
  EXPECT_EQ(doc.at("wcet").at("engine").as_string(),
            wcet::to_string(report.spec.wcet_engine));
  EXPECT_EQ(doc.at("wcet").at("ipet_records").as_u64(), report.ipet_records);
  // v4 adds the execution-monitor stanza and per-record monitor fields.
  EXPECT_EQ(doc.at("monitor").at("mode").as_string(),
            machine::to_string(report.spec.monitor));
  EXPECT_EQ(doc.at("monitor").at("violations").as_u64(),
            report.monitor_violations);
  // v5 adds the vccd service stanza: disabled (and bare) for offline
  // campaigns like this one, populated by the daemon's report path.
  EXPECT_FALSE(doc.at("service").at("enabled").as_bool(true));
  EXPECT_TRUE(doc.at("service").at("shards").is_null());
  const json::Array& records = doc.at("records").as_array();
  ASSERT_EQ(records.size(), report.records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const json::Value& r = records[i];
    EXPECT_EQ(r.at("name").as_string(), report.records[i].name);
    EXPECT_EQ(r.at("ok").as_bool(), report.records[i].ok);
    EXPECT_EQ(r.at("wcet_cycles").as_u64(), report.records[i].wcet_cycles);
    EXPECT_EQ(r.at("wcet_ipet_cycles").as_u64(),
              report.records[i].wcet_ipet_cycles);
    EXPECT_EQ(r.at("wcet_ipet_certified").as_bool(),
              report.records[i].wcet_ipet_certified);
    EXPECT_EQ(r.at("exec").at("cycles").as_u64(),
              report.records[i].exec.cycles);
  }

  // write_report_json emits a parseable file with the same document.
  const std::string path = dir_ + "-report.json";
  ASSERT_TRUE(driver::write_report_json(report, path));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const json::Parsed parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value.dump(), doc.dump());
  fs::remove(path);
}

TEST_F(FleetCacheTest, IpetSolverSumsCountOnlySolvesThisRunPerformed) {
  const Suite suite = small_suite(2);
  artifact::ArtifactStore store({dir_, 0});
  driver::FleetOptions options = cached_options(&store, 1);
  options.wcet_engine = wcet::WcetEngine::Ipet;
  const driver::FleetReport cold = driver::run_fleet(suite.units, options);
  ASSERT_GT(cold.ipet_records, 0u);
  std::int64_t pivots = 0;
  for (const driver::FleetRecord& r : cold.records) pivots += r.ipet_pivots;
  EXPECT_GT(cold.ipet_pivots, 0);
  EXPECT_EQ(cold.ipet_pivots, pivots);
  // Every IPET solve explores at least its root node.
  EXPECT_GE(cold.ipet_bnb_nodes,
            static_cast<std::int64_t>(cold.ipet_records));
  const json::Value doc = driver::to_json(cold);
  const json::Value& wcet_doc = doc.at("wcet");
  EXPECT_EQ(wcet_doc.at("ipet_pivots").as_i64(), cold.ipet_pivots);
  EXPECT_EQ(wcet_doc.at("ipet_bnb_nodes").as_i64(), cold.ipet_bnb_nodes);
  EXPECT_NE(cold.throughput_summary().find("fleet: ipet solver: " +
                                           std::to_string(cold.ipet_pivots) +
                                           " pivot(s)"),
            std::string::npos);

  // A warm rerun replays every bound from the store and solves nothing.
  const driver::FleetReport warm = driver::run_fleet(suite.units, options);
  ASSERT_EQ(warm.cache_full_hits, warm.records.size());
  EXPECT_EQ(warm.ipet_records, cold.ipet_records);
  EXPECT_EQ(warm.ipet_pivots, 0);
  EXPECT_EQ(warm.ipet_bnb_nodes, 0);
  expect_records_identical(cold, warm);
}

TEST(FleetReportServiceStanzaTest, RoundTripsWhenEnabled) {
  driver::FleetReport report;
  report.service.enabled = true;
  report.service.shards = 4;
  report.service.requests = 123;
  report.service.incremental_hits = 45;
  report.service.queue_peak = 9;
  report.service.shard_restarts = 1;
  const json::Value doc = driver::to_json(report);
  EXPECT_EQ(doc.at("schema").as_string(), "vcflight-fleet-report-v8");
  const json::Value& service = doc.at("service");
  EXPECT_TRUE(service.at("enabled").as_bool(false));
  EXPECT_EQ(service.at("shards").as_i64(), 4);
  EXPECT_EQ(service.at("requests").as_u64(), 123u);
  EXPECT_EQ(service.at("incremental_hits").as_u64(), 45u);
  EXPECT_EQ(service.at("queue_peak").as_u64(), 9u);
  EXPECT_EQ(service.at("shard_restarts").as_u64(), 1u);
}

}  // namespace
}  // namespace vc
