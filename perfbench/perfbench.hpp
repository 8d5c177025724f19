// perfbench: the repository's end-to-end and per-layer benchmark.
//
// One driver runs a named workload (campaign_validated, campaign_rv32_ssa,
// vccd_edit_loop) and prints every metric with its unit, ending with one
// JSON result line. Everything is measured from outside: the driver times
// calls into each layer's public functions and never relies on the
// program's own timers for an end-to-end number.
//
// Estimator: every unit of work (one fleet job, one vccd request, one
// set-up) is repeated in round-robin rounds spread across the run, and each
// unit keeps its MINIMUM time, rescaled to a reference clock by the core
// clock measured just before the sample. Contention from neighbours only
// ever adds time, and the host's turbo clock moves whole runs; README.md
// records the spreads that motivated both.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/fleet.hpp"
#include "machine/monitor.hpp"
#include "minic/ast.hpp"
#include "wcet/ipet.hpp"
#include "wcet/wcet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  /// Input-stream seed: execution inputs of every job and, on the vccd
  /// workload, which parameter each edit changes. The node suite itself is
  /// fixed per workload (`suite_seed`), so two seeds time the same nodes.
  std::uint64_t seed = 7;  // the fleet benches' input-stream seed
  /// Node-suite seed; unset = the workload's fixed default.
  std::optional<std::uint64_t> suite_seed;
  double seconds = 20.0;
  bool trace = false;
  std::string vccd_path;  // vccd binary (vccd_edit_loop only)
  std::string work_dir;   // scratch directory inside the checkout
  std::string rev;        // source revision for the fingerprint
};

/// Metric values by name; main.cpp owns the schema (units, order) and
/// reports every schema metric a workload leaves unset as 0.
using Metrics = std::map<std::string, double>;

/// What a workload hands back to main: correctness bookkeeping plus both
/// metric sets (main prints the one the --trace flag selects).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr
  Metrics end_to_end;
  Metrics per_layer;

  /// Counts one checked unit of work; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
};

// --- tracing ---------------------------------------------------------------

/// Spans recorded from the benchmark's own files around each public layer
/// call: name, start, end, parent span and job id. Kept in memory, written
/// once as Chrome trace-event JSON at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    int job = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  int begin(const char* name, int parent, int job);
  void end(int id);
  [[nodiscard]] double ms(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return (s.end_us - s.start_us) / 1000.0;
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, int job)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, parent, job) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// --- jobs ------------------------------------------------------------------

/// Run options shared by every job of a workload (one fleet configuration).
struct JobSpec {
  std::string target = "ppc";
  bool ssa = false;
  vc::driver::ValidateLevel validate = vc::driver::ValidateLevel::Off;
  vc::wcet::WcetEngine engine = vc::wcet::WcetEngine::Structural;
  vc::machine::MonitorMode monitor = vc::machine::MonitorMode::Off;
  int exec_cycles = 0;

  /// The serial fleet options for one job of `config`.
  [[nodiscard]] vc::driver::FleetOptions fleet_options(
      vc::driver::Config config) const;
};

/// One (node, config) job. The program is owned by the workload's suite.
struct Job {
  std::string name;
  const vc::minic::Program* program = nullptr;
  std::string entry;
  vc::driver::Config config = vc::driver::Config::O0Pattern;
  std::uint64_t input_seed = 0;
};

/// A generated node suite in the form the service receives it: each node
/// is generated, printed, re-parsed and type-checked.
struct Suite {
  std::vector<vc::minic::Program> programs;
  std::vector<std::string> names;
  std::vector<std::string> entries;
  std::vector<std::string> sources;
  double generate_ms = 0.0;  // node generation + ACG
  double parse_ms = 0.0;     // print -> parse -> type-check
};

/// Builds `count` nodes from `suite_seed`. With `edit_seed` set, every node
/// gets one model-level edit first: a Gain/Bias/ConstF parameter chosen
/// from the seed is changed and the node is regenerated.
Suite build_suite(std::uint64_t suite_seed, int count,
                  std::optional<std::uint64_t> edit_seed = std::nullopt);

/// Every (node, config) job of `suite`, node-major, inputs from `seed`.
std::vector<Job> make_jobs(const Suite& suite, std::uint64_t seed);

/// The job through driver::run_fleet (one unit, one config, one worker):
/// the untraced path every end-to-end timing uses.
vc::driver::FleetRecord run_fleet_job(const Job& job, const JobSpec& spec);

/// The job decomposed into its public layer calls, mirroring run_fleet's
/// per-job sequence so the record must come out identical.
struct Decomposed {
  vc::driver::FleetRecord record;
  vc::driver::Compiled compiled;
  std::optional<vc::wcet::IpetInfo> ipet;
  int job_span = -1;
  int compile_span = -1;
  int exec_span = -1;
  int wcet_span = -1;
};

/// Runs the decomposition, recording spans when `tracer` is set. With
/// `interp_mismatch` set, every simulated step-function call is also run
/// on the independent mini-C interpreter and compared (results and every
/// global); the first divergence is described there.
Decomposed run_decomposed(const Job& job, const JobSpec& spec,
                          Tracer* tracer, int job_id,
                          std::string* interp_mismatch);

/// Correctness gate on one record: ok (no checker rejection, no WCET or
/// execution failure), bound >= observed cycles, IPET certificate verified,
/// zero monitor violations.
void check_record(const vc::driver::FleetRecord& record, const JobSpec& spec,
                  Outcome* outcome);

/// Core-record digest of a record sequence (FNV-1a/128 over the
/// record_core_json dumps): equal digests <=> byte-identical records.
std::string records_digest(const std::vector<std::string>& core_dumps);

/// The paper's ratios over nodes: geometric means of
/// verified / O0-pattern for WCET bound, code size and simulated cycles.
/// `records` is node-major over all four configs.
struct Ratios {
  double wcet = 0.0;
  double code = 0.0;
  double cycles = 0.0;
};
Ratios o0_ratios(const std::vector<vc::driver::FleetRecord>& records);

// --- per-layer accounting -------------------------------------------------

/// In-process layer measurements over one job set: per job, the spans of
/// its fastest traced round plus the minimum of each outside probe.
class LayerBook {
 public:
  LayerBook(const std::vector<Job>& jobs, const JobSpec& spec);

  /// One round over every job: an untraced run_fleet call (for the tracing
  /// overhead) and a traced decomposition plus probes. Checks every record
  /// and that the traced record equals the untraced one; returns the
  /// digest of the untraced records.
  std::string round(Tracer* tracer, Outcome* outcome);

  /// Sets the per-layer metrics of the in-process layers.
  void emit(Metrics* out) const;

 private:
  struct Best {
    double fleet_ms = std::numeric_limits<double>::infinity();
    double job_ms = std::numeric_limits<double>::infinity();
    double compile_ms = 0.0;   // compile span of the fastest round
    double exec_ms = 0.0;      // exec span (monitor included)
    double wcet_ms = 0.0;      // analyze_wcet span
    double glue_ms = 0.0;      // job span minus its children
    vc::pass::PipelineStats passes;
    std::optional<vc::wcet::IpetInfo> ipet;
    std::uint64_t steps = 0;
    std::uint64_t structural_cycles = 0;
    // Outside probes, each its own minimum over rounds.
    double plain_compile_ms = std::numeric_limits<double>::infinity();
    double cross_check_ms = std::numeric_limits<double>::infinity();
    double cfg_ms = std::numeric_limits<double>::infinity();
    double values_ms = std::numeric_limits<double>::infinity();
    double cache_ms = std::numeric_limits<double>::infinity();
    double structural_ms = std::numeric_limits<double>::infinity();
    double unarmed_exec_ms = std::numeric_limits<double>::infinity();
  };

  const std::vector<Job>& jobs_;
  JobSpec spec_;
  std::vector<Best> best_;
  int rounds_ = 0;
};

// --- helpers ---------------------------------------------------------------

/// The reference clock every end-to-end time is expressed at: the box's
/// nominal 2.0 GHz (/proc/cpuinfo).
inline constexpr double kReferenceGhz = 2.0;

/// The core clock right now, in GHz, timed on a dependent 64-bit
/// multiply-add chain (4 cycles an iteration on x86-64: imul 3, add 1).
/// The host's turbo clock moves in 100 MHz steps with its neighbours' load,
/// and every job time moves with it; README.md has the numbers.
double clock_ghz();

/// `ms` measured while the core ran at `ghz`, rescaled to kReferenceGhz.
inline double at_reference_clock(double ms, double ghz) {
  return ms * ghz / kReferenceGhz;
}

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> sample, double q);
double median(std::vector<double> sample);

/// Resident-set high-water mark of `pid` (0 = self) in MiB, from
/// /proc/<pid>/status VmHWM; 0 when unreadable.
double peak_rss_mb(int pid = 0);

// --- workloads -------------------------------------------------------------

Outcome run_campaign(const RunArgs& args);
Outcome run_vccd_edit_loop(const RunArgs& args);

}  // namespace perfbench
