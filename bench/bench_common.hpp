// Shared infrastructure for the benchmark binaries: the generated node suite
// (the stand-in for the paper's ~2500 ACG files), a hand-written pitch-axis
// control law, input drivers, table formatting, the shared flags, and the
// campaign gate every fleet bench exits with.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "artifact/store.hpp"
#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/compiler.hpp"
#include "driver/fleet.hpp"
#include "machine/machine.hpp"
#include "minic/typecheck.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "tools/vcc_cli.hpp"
#include "validate/validate.hpp"
#include "wcet/wcet.hpp"

namespace vc::bench {

/// One benchmark unit: a node with its generated program (one "file").
struct NodeBundle {
  dataflow::Node node;
  minic::Program program;
  std::string step_fn;
};

inline NodeBundle bundle_node(dataflow::Node node) {
  NodeBundle b{std::move(node), {}, {}};
  b.program.name = b.node.name();
  dataflow::generate_node(b.node, &b.program);
  minic::type_check(b.program);
  b.step_fn = dataflow::step_function_name(b.node);
  return b;
}

/// The benchmark node suite: `count` generated nodes, fixed seed so every
/// table in EXPERIMENTS.md is reproducible.
inline std::vector<NodeBundle> make_suite(int count = 40,
                                          std::uint64_t seed = 20110318) {
  std::vector<NodeBundle> out;
  for (auto& node : dataflow::generate_suite(seed, count))
    out.push_back(bundle_node(std::move(node)));
  return out;
}

/// Adapts the bench suite to the fleet runner's input shape. The returned
/// units point into `suite`, which must outlive the run_fleet call.
inline std::vector<driver::FleetUnit> to_fleet_units(
    const std::vector<NodeBundle>& suite) {
  std::vector<driver::FleetUnit> units;
  units.reserve(suite.size());
  for (const NodeBundle& b : suite)
    units.push_back({b.node.name(), &b.program, b.step_fn, std::nullopt});
  return units;
}

/// Runs `cycles` step invocations with deterministic pseudo-random inputs;
/// returns accumulated machine statistics.
inline machine::ExecStats exercise(machine::Machine& m,
                                   const NodeBundle& bundle, int cycles,
                                   std::uint64_t seed) {
  Rng rng(seed);
  machine::ExecStats total;
  const minic::Function* fn = bundle.program.find_function(bundle.step_fn);
  const bool has_io =
      bundle.program.find_global(dataflow::kIoBusGlobal) != nullptr;
  for (int c = 0; c < cycles; ++c) {
    std::vector<minic::Value> args;
    for (const auto& p : fn->params) {
      if (p.type == minic::Type::F64)
        args.push_back(minic::Value::of_f64(rng.next_double(-20.0, 20.0)));
      else
        args.push_back(minic::Value::of_i32(
            static_cast<std::int32_t>(rng.next_range(-2, 2))));
    }
    if (has_io)
      m.write_global(dataflow::kIoBusGlobal, 0,
                     minic::Value::of_f64(rng.next_double(-3.0, 3.0)));
    m.call(bundle.step_fn, args, minic::Type::I32);
    const machine::ExecStats& s = m.stats();
    total.cycles += s.cycles;
    total.instructions += s.instructions;
    total.dcache_reads += s.dcache_reads;
    total.dcache_writes += s.dcache_writes;
    total.dcache_read_misses += s.dcache_read_misses;
    total.dcache_write_misses += s.dcache_write_misses;
    total.ifetch_line_misses += s.ifetch_line_misses;
    total.taken_branches += s.taken_branches;
  }
  return total;
}

/// A representative hand-modelled pitch-axis control law with envelope
/// protection (the workload class the paper's introduction describes).
inline NodeBundle pitch_law() {
  using dataflow::SymbolKind;
  dataflow::Node n("pitch");
  // Inputs: stick command, measured pitch rate, measured load factor.
  const auto stick = n.add(SymbolKind::InputF);
  const auto q_meas = n.add(SymbolKind::InputF);
  const auto nz_meas = n.add(SymbolKind::InputF);
  // Stick shaping: deadzone then lookup curve.
  const auto dz = n.add(SymbolKind::Deadzone, {stick}, {0.05});
  const auto shaped = n.add(
      SymbolKind::Lookup1D, {dz}, {-1.0, 1.0},
      {-25.0, -15.0, -8.0, -3.0, 0.0, 3.0, 8.0, 15.0, 25.0});
  // Filter measurements.
  const auto q_f = n.add(SymbolKind::FirstOrderLag, {q_meas}, {0.35});
  const auto nz_f = n.add(SymbolKind::MovingAverage, {nz_meas}, {8});
  // Command: shaped stick minus damping.
  const auto q_gain = n.add(SymbolKind::Gain, {q_f}, {2.2});
  const auto cmd = n.add(SymbolKind::Sub, {shaped, q_gain});
  // Envelope protection: limit load factor between -1g and 2.5g.
  const auto nz_hi = n.add(SymbolKind::ConstF, {}, {2.5});
  const auto nz_lo = n.add(SymbolKind::ConstF, {}, {-1.0});
  const auto over = n.add(SymbolKind::CmpGt, {nz_f, nz_hi});
  const auto under = n.add(SymbolKind::CmpLt, {nz_f, nz_lo});
  const auto viol = n.add(SymbolKind::LogicOr, {over, under});
  const auto relax = n.add(SymbolKind::Gain, {cmd}, {0.25});
  const auto protected_cmd = n.add(SymbolKind::Switch, {viol, relax, cmd});
  // Integrate to elevator demand with rate limiting and saturation.
  const auto integ = n.add(SymbolKind::Integrator, {protected_cmd},
                           {0.02, -30.0, 30.0});
  const auto rate = n.add(SymbolKind::RateLimiter, {integ}, {3.0, 3.0});
  const auto elev = n.add(SymbolKind::Saturate, {rate}, {-20.0, 20.0});
  n.add(SymbolKind::Output, {elev});
  n.add(SymbolKind::Output, {integ});
  return bundle_node(std::move(n));
}

inline void print_rule(int width = 78) {
  std::puts(std::string(static_cast<std::size_t>(width), '-').c_str());
}

/// Percentage change of `value` vs `reference`. A zero reference makes the
/// comparison undefined: returns NaN (rendered as "n/a" by fmt_pct), never a
/// fake "no change".
inline double pct_delta(double value, double reference) {
  if (reference == 0.0) return std::nan("");
  return (value - reference) / reference * 100.0;
}

/// Formats a pct_delta for the tables: "+12.3%", right-aligned to `width`;
/// NaN renders as "n/a".
inline std::string fmt_pct(double pct, int width = 8) {
  char buf[64];
  if (std::isnan(pct))
    std::snprintf(buf, sizeof buf, "%*s ", width, "n/a");
  else
    std::snprintf(buf, sizeof buf, "%+*.1f%%", width, pct);
  return buf;
}

/// Command-line flags shared by the fleet-driven bench binaries: the knob
/// flags the knob table accepts on the bench surface (driver/run_spec.hpp:
/// --target, --ssa, --disable-pass, --validate, --wcet-engine, --monitor;
/// strict like vcc, so an unknown target or step name exits 2) plus the
/// campaign flags below.
struct BenchFlags : driver::RunSpec {
  int jobs = 0;   // --jobs=N  worker threads (0 = hardware concurrency)
  int nodes = 0;  // --nodes=N suite size (0 = the binary's default)
  int cache_budget_mb = 0;  // --cache-budget-mb=N LRU budget (0 = unlimited)
  std::string cache_dir;    // --cache-dir=DIR artifact store (empty = off)
  std::string report_json;  // --report-json=FILE machine-readable report
};

/// Parses the shared bench flags; exits 2 with a diagnostic on anything else.
/// Strictness matches vcc: contradictory repeats of a flag exit 2 instead of
/// silently letting the last occurrence win, and an explicit --jobs=0 is
/// rejected — the "all cores" default is spelled by *omitting* the flag, so a
/// literal 0 in a campaign script is almost always a templating bug that
/// would silently change the measured worker count.
inline BenchFlags parse_bench_flags(int argc, char** argv,
                                    const char* bench_name) {
  const auto fail = [bench_name](const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", bench_name, message.c_str());
    std::exit(2);
  };
  BenchFlags flags;
  driver::JobSpec spec;
  tools::SpecFlagParser knobs(driver::kCliBench);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const auto knob = knobs.parse(arg, &spec)) {
      if (!knob->empty()) fail(*knob);
      continue;
    }
    if (arg == "--jobs=0")
      fail("--jobs=0 is rejected: omit --jobs to use every hardware thread, "
           "or pass an explicit count >= 1");
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    std::string* path = flag == "--cache-dir"     ? &flags.cache_dir
                        : flag == "--report-json" ? &flags.report_json
                                                  : nullptr;
    int* count = flag == "--jobs"              ? &flags.jobs
                 : flag == "--nodes"           ? &flags.nodes
                 : flag == "--cache-budget-mb" ? &flags.cache_budget_mb
                                               : nullptr;
    if (path != nullptr) {
      if (value.empty()) fail("empty value in '" + arg + "'");
      *path = value;
      continue;
    }
    const auto n = parse_count_flag(value);
    if (count == nullptr || !n)
      fail("bad argument '" + arg + "'\nusage: " + bench_name +
           " [--jobs=N] [--nodes=N] [--cache-dir=DIR] [--cache-budget-mb=N] "
           "[--report-json=FILE] " +
           driver::spec_usage(driver::kCliBench));
    *count = *n;
  }
  static_cast<driver::RunSpec&>(flags) = spec;
  return flags;
}

/// The fleet options a bench campaign starts from: the knob flags, the
/// worker count and — under --validate — the validated-campaign compile
/// (validated jobs bypass the artifact store: re-checking is the point).
/// Each bench then sets its own fixed run knobs (exec cycles, WCET, ...).
inline driver::FleetOptions fleet_options(const BenchFlags& flags) {
  driver::FleetOptions options;
  static_cast<driver::RunSpec&>(options) = flags;
  options.jobs = flags.jobs;
  validate::attach_campaign_validation(&options);
  return options;
}

/// Opens the artifact store requested by --cache-dir (nullptr when off).
inline std::unique_ptr<artifact::ArtifactStore> open_bench_store(
    const BenchFlags& flags) {
  if (flags.cache_dir.empty()) return nullptr;
  return std::make_unique<artifact::ArtifactStore>(
      artifact::ArtifactStore::Options{
          flags.cache_dir,
          static_cast<std::uint64_t>(flags.cache_budget_mb) * 1024 * 1024});
}

/// Exits 2 naming `flag` when it was given to a bench that cannot apply it:
/// a silently ignored knob would mislabel the numbers.
inline void reject_flag(bool given, const char* flag, const char* bench_name) {
  if (!given) return;
  std::fprintf(stderr, "%s: %s does not apply to this bench\n", bench_name,
               flag);
  std::exit(2);
}

/// The campaign verdict every fleet bench exits with. A record is ok only
/// when its job compiled, passed its validators, ran without a monitor
/// violation and got sound, certified bounds (driver::FleetRecord::ok), so
/// the verdict is: every record ok (an int64 overflow in the IPET pivot
/// kernel fails its record) and an armed monitor that checked steps on
/// every record. Prints each cause to stderr and returns the exit code (0
/// or 1).
inline int gate(const driver::FleetReport& report, const char* bench_name) {
  int status = 0;
  const auto fail = [&](const std::string& cause) {
    std::fprintf(stderr, "%s: FAILED: %s\n", bench_name, cause.c_str());
    status = 1;
  };
  const bool armed = report.spec.monitor != machine::MonitorMode::Off;
  for (const driver::FleetRecord& r : report.records) {
    const std::string job = r.name + " " + driver::to_string(r.config) +
                            " on " + report.spec.target;
    if (!r.ok)
      fail(job + ": " + r.error);
    else if (armed && r.monitored_steps == 0)
      fail(job + ": monitor armed but no step checked");
  }
  return status;
}

/// Writes the machine-readable campaign report when --report-json was given.
inline void write_bench_report(const driver::FleetReport& report,
                               const BenchFlags& flags,
                               const char* bench_name) {
  if (flags.report_json.empty()) return;
  if (driver::write_report_json(report, flags.report_json))
    std::fprintf(stderr, "%s: wrote %s\n", bench_name,
                 flags.report_json.c_str());
  else
    std::fprintf(stderr, "%s: cannot write %s\n", bench_name,
                 flags.report_json.c_str());
}

}  // namespace vc::bench
