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
// instruction change shows up there.
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

inline std::string reference_campaign_records(const std::string& target) {
  const std::vector<NodeBundle> suite = reference_suite();

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

  const driver::FleetReport report =
      driver::run_fleet(to_fleet_units(suite), options);
  std::string out;
  for (const driver::FleetRecord& r : report.records) {
    out += driver::record_core_json(r).dump();
    out += "\n";
  }
  return out;
}

}  // namespace vc::bench
