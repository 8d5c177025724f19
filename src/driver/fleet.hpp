// The fleet runner: batch compile / execute / WCET over many generated
// nodes, the reproduction's counterpart of running CompCert + aiT over the
// paper's ~2500 ACG files. Each (node, configuration) pair is an independent
// job — the per-file chain is embarrassingly parallel — so the fleet fans
// jobs out over a thread pool (support/threadpool.hpp) and collects results
// into deterministically ordered per-node records.
//
// Determinism contract: records are keyed by (unit index, config index) and
// each job writes only its own pre-assigned slot, so the report is
// bit-identical for any worker count. Pseudo-random execution inputs come
// from one Rng per job, seeded from (suite seed, unit index) only — never
// from scheduling order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "artifact/store.hpp"
#include "driver/compiler.hpp"
#include "driver/run_spec.hpp"
#include "machine/machine.hpp"
#include "minic/ast.hpp"
#include "support/json.hpp"
#include "wcet/wcet.hpp"

namespace vc::driver {

/// One unit of fleet work: a type-checked program plus its entry function
/// (for generated nodes, the node's step function). The program is
/// non-owning — mini-C programs are move-only (statement bodies are unique
/// pointers), so the caller keeps the suite alive across run_fleet.
struct FleetUnit {
  std::string name;
  const minic::Program* program = nullptr;
  std::string entry;
  /// Explicit input-stream seed for this unit. When unset, the job draws
  /// from fleet_job_seed(suite_seed, unit_index) — position-dependent, which
  /// is right for generated suites but wrong for a service batching jobs
  /// from many clients in arrival order: there the caller pins each job's
  /// seed so batching/sharding order can never change results.
  std::optional<std::uint64_t> input_seed;
};

/// A campaign: every unit under every configuration, each job run with the
/// shared knobs of RunSpec (driver/run_spec.hpp).
struct FleetOptions : RunSpec {
  /// Worker threads; 0 = one per hardware thread, 1 = serial on the caller.
  /// Negative values are rejected by run_fleet (std::invalid_argument).
  int jobs = 0;
  /// Configurations to run every unit under (defaults to all four).
  std::vector<Config> configs{std::begin(kAllConfigs), std::end(kAllConfigs)};
  /// Base seed for the per-job input streams; the job for unit i draws from
  /// Rng(fleet_job_seed(suite_seed, i)) regardless of config and worker count.
  std::uint64_t suite_seed = 7;
  /// Optional content-addressed artifact store. When set, every job first
  /// looks up its artifact key (source, entry, compiler version and every
  /// knob-table field that salts the artifact): a full hit replays the
  /// cached results without compiling; an image-only hit (same compile,
  /// different run parameters) reuses the cached executable and recomputes
  /// just execution/WCET; a miss compiles cold and publishes. Corrupt
  /// entries fall back to a cold compile.
  /// The store must outlive the run_fleet call; it may be shared across
  /// runs and processes (that is what makes campaign restarts warm).
  artifact::ArtifactStore* store = nullptr;
  /// When set, replaces compile_program for every job — the attachment point
  /// for validated campaigns (validate::attach_campaign_validation; the
  /// validator cannot be named here: src/validate links against the
  /// driver). Jobs with an override bypass the artifact store entirely, so
  /// the override (and its checkers) actually runs instead of being
  /// replayed from cache.
  std::function<Compiled(const minic::Program&, Config,
                         const CompileOptions&)>
      compile_override;
};

/// The input stream seed for unit `index` (SplitMix64 golden-ratio mix, so
/// neighbouring units get uncorrelated streams).
std::uint64_t fleet_job_seed(std::uint64_t suite_seed, std::size_t index);

/// The outcome of one (unit, config) job.
struct FleetRecord {
  std::string name;
  Config config{};
  /// The job compiled (and passed its validators), executed without a
  /// monitor violation, got every requested bound (an IPET bound only with
  /// a verified certificate), and no execution exceeded a bound it computed.
  bool ok = false;
  std::string error;  // set when !ok: the first of those that failed

  std::uint32_t code_bytes = 0;       // entry function code size
  machine::ExecStats exec;            // accumulated over exec_cycles
  std::uint64_t observed_max_cycles = 0;  // max single-invocation cycles
  /// The structural bound (engine structural/both) or the IPET bound
  /// (engine ipet) — existing consumers keep reading the engine they asked
  /// for here.
  std::uint64_t wcet_cycles = 0;
  std::uint64_t wcet_nocache_cycles = 0;
  /// IPET engine results; zero when the engine did not run.
  std::uint64_t wcet_ipet_cycles = 0;
  int wcet_ipet_capped_edges = 0;     // infeasible-edge constraints used
  bool wcet_ipet_certified = false;   // flow certificate independently checked
  /// Solver effort behind the IPET bound this job computed (zero when the
  /// engine did not run or the result was replayed from the store). Not
  /// part of the record core: it describes the solver, not the bound.
  std::int64_t ipet_pivots = 0;
  std::int64_t ipet_bnb_nodes = 0;

  /// Execution-monitor outcome (zero when the monitor was off). Steps are
  /// monitor-checked instructions summed over the job's exec cycles;
  /// violations count MonitorErrors (a violation also fails the job, so
  /// this is 0 or 1 per record — the first refuted fact aborts the run).
  std::uint64_t monitored_steps = 0;
  std::uint64_t monitor_violations = 0;

  // Artifact-cache outcome for this job (false/false when caching is off or
  // the job was a miss). `cache_hit` = full hit, results replayed from the
  // store; `cache_image_hit` = executable reused, results recomputed.
  bool cache_hit = false;
  bool cache_image_hit = false;

  // Per-job wall time, split by phase (observability layer).
  double compile_seconds = 0.0;
  double exec_seconds = 0.0;
  double wcet_seconds = 0.0;
  double cache_lookup_seconds = 0.0;
  double cache_publish_seconds = 0.0;
  // Per-pass pipeline telemetry for this job's compile: wall time, rewrite
  // counts, IR-size deltas, validator check counts (empty on cache hits).
  pass::PipelineStats pass_stats;
};

struct FleetReport {
  /// units.size() * configs.size() records, unit-major then config, in the
  /// order given to run_fleet.
  std::vector<FleetRecord> records;
  /// The campaign's knobs; the report header records target, ssa, the
  /// WCET engine and the monitor mode (their kSaltHeader rows).
  RunSpec spec;
  std::size_t units = 0;
  std::size_t configs = 0;
  int jobs = 0;             // worker count actually used
  double wall_seconds = 0.0;
  // Aggregate phase times summed over jobs (> wall_seconds when parallel).
  double compile_seconds = 0.0;
  double exec_seconds = 0.0;
  double wcet_seconds = 0.0;
  // Aggregate per-pass pipeline telemetry summed over jobs.
  pass::PipelineStats pass_stats;

  // Cross-engine WCET aggregates (engine != structural; zero otherwise).
  std::uint64_t ipet_records = 0;    // ok records carrying an IPET bound
  std::uint64_t ipet_certified = 0;  // ... whose certificate verified
  std::uint64_t ipet_tighter = 0;    // ... strictly below structural (Both)
  std::uint64_t ipet_capped_edge_records = 0;  // ... with >= 1 capped edge
  double ipet_tightening_sum = 0.0;  // sum of (structural-ipet)/structural
  // IPET solver effort summed over the solves this run performed (a store
  // hit adds 0): simplex pivots and branch-and-bound nodes.
  std::int64_t ipet_pivots = 0;
  std::int64_t ipet_bnb_nodes = 0;

  // Execution-monitor aggregates (mode Off => all zero).
  std::uint64_t monitored_records = 0;  // records that ran armed
  std::uint64_t monitored_steps = 0;    // instructions checked, summed
  std::uint64_t monitor_violations = 0; // refuted static claims (must be 0)

  // Artifact-cache aggregates (all zero when no store was attached).
  bool cache_enabled = false;
  std::uint64_t cache_full_hits = 0;
  std::uint64_t cache_image_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_lookup_seconds = 0.0;
  double cache_publish_seconds = 0.0;
  artifact::StoreStats store_stats;  // store-lifetime counters snapshot

  /// Service-layer counters (vccd): zero/disabled for plain in-process
  /// campaigns. A report assembled from daemon replies sets `enabled` and
  /// the serving-side stats, which land in the schema-v6 "service" stanza.
  struct ServiceStats {
    bool enabled = false;
    int shards = 0;                      // 0 = single-process daemon
    std::uint64_t requests = 0;          // job requests served
    std::uint64_t incremental_hits = 0;  // in-memory dependency-hash hits
    std::uint64_t queue_peak = 0;        // deepest queue observed
    std::uint64_t shard_restarts = 0;    // dead shards respawned
  };
  ServiceStats service;

  [[nodiscard]] const FleetRecord& at(std::size_t unit,
                                      std::size_t config) const {
    return records[unit * configs + config];
  }
  /// Node-chains completed per wall-clock second (units * configs jobs).
  [[nodiscard]] double nodes_per_second() const;
  /// Human-readable throughput counters for the bench footers.
  [[nodiscard]] std::string throughput_summary() const;
};

/// Runs every unit under every configuration and returns the ordered report.
/// Individual job failures are recorded (ok=false), not thrown. Throws
/// std::invalid_argument for negative FleetOptions::jobs, and for a
/// validate level other than Off without a compile_override (a validated
/// spec must never run unvalidated).
FleetReport run_fleet(const std::vector<FleetUnit>& units,
                      const FleetOptions& options = {});

/// The machine-readable campaign report (--report-json): the full record
/// array plus the aggregate header, as a JSON document. BENCH_*.json
/// trajectories come from this instead of scraped stdout.
json::Value to_json(const FleetReport& report);

/// The semantic (determinism-relevant) fields of one record as JSON: name,
/// config, outcome, code size, execution stats, bounds, monitor counters —
/// everything except wall-time and cache-provenance fields. Two runs of the
/// same job must dump byte-identical documents regardless of worker count,
/// batching, caching, or which daemon shard served them; the service reply
/// protocol and the determinism soaks compare exactly this.
json::Value record_core_json(const FleetRecord& record);

/// Serializes to_json(report) to `path` (pretty-printed, trailing newline).
/// Returns false if the file cannot be written.
bool write_report_json(const FleetReport& report, const std::string& path);

}  // namespace vc::driver
