// The reference campaign used by the backend no-regression tests: a fixed
// 40-node generated suite plus the pitch-axis law, compiled under all four
// configurations with full translation validation, executed 50 cycles under
// the full monitor, and WCET-analyzed by both engines (with the nocache
// ablation). The semantic core of every record — code size, execution
// stats, both bounds, monitor counters — is serialized one JSON document
// per line, and the result is compared byte-for-byte against the committed
// fixtures tests/data/reference_40.jsonl (ppc, captured before the machine
// layer went target-parametric) and tests/data/reference_40_rv32.jsonl
// (rv32, captured before the must-cache state was rewritten). Any codegen,
// timing-model, scheduling, peephole, or analysis change that shifts a
// single byte of a record shows up here. Records pin only the code size,
// not the code: tests/data/reference_images.txt pins the hash of every
// compiled image of this suite (and examples/programs), so an equal-length
// instruction change shows up there. tests/data/reference_40_cold.jsonl
// pins the execution statistics of the same suite run from cold caches.
#pragma once

#include <string>

#include "../bench/bench_common.hpp"

namespace vc::bench {

/// The reference suite: the fixed 40-node generated suite plus the
/// pitch-axis law.
inline std::vector<NodeBundle> reference_suite() {
  std::vector<NodeBundle> suite = make_suite(40);
  suite.push_back(pitch_law());
  return suite;
}

/// The records of `options`' campaign over the reference suite, one
/// record_core_json document per line.
inline std::string reference_records(const driver::FleetOptions& options) {
  const driver::FleetReport report =
      driver::run_fleet(to_fleet_units(reference_suite()), options);
  std::string out;
  for (const driver::FleetRecord& r : report.records) {
    out += driver::record_core_json(r).dump();
    out += "\n";
  }
  return out;
}

inline std::string reference_campaign_records(const std::string& target) {
  driver::FleetOptions options;
  options.jobs = 1;
  options.exec_cycles = 50;
  options.wcet = true;
  options.wcet_nocache = true;
  options.wcet_engine = wcet::WcetEngine::Both;
  options.monitor = machine::MonitorMode::Full;
  options.target = target;
  options.validate = driver::ValidateLevel::Full;
  validate::attach_campaign_validation(&options);
  return reference_records(options);
}

/// The cold-cache reference campaign (tests/data/reference_40_cold.jsonl):
/// the same suite on ppc, then on rv32, with the caches cleared before each
/// of 50 executed cycles, as bench_wcet_tightness and bench_crosstarget run.
/// Validation, WCET and the monitor stay off (the RunSpec defaults): the
/// records pin the execution statistics of calls that start from empty
/// caches.
inline std::string reference_cold_records() {
  std::string out;
  for (const char* target : {"ppc", "rv32"}) {
    driver::FleetOptions options;
    options.jobs = 1;
    options.exec_cycles = 50;
    options.cold_caches = true;
    options.target = target;
    out += reference_records(options);
  }
  return out;
}

}  // namespace vc::bench
