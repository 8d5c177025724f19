// The job-knob table (DESIGN.md §16): one declaration per parameter of a
// compile / execute / WCET job. A JobSpec is the shared knobs of RunSpec
// plus the per-job config and input seed; each is one row of spec_fields()
// giving its JSON key, value codec, command-line spelling and the
// identities it salts. The vcc and bench flag parsers, the vccd wire format
// (service/protocol.cpp) and the artifact key and results-stanza params
// (driver/fleet.cpp, vcc --batch) are derived from the rows, so a new knob
// costs one RunSpec member and one row. tests/run_spec_test.cpp checks that
// every row salts exactly the identities it declares.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "driver/compiler.hpp"
#include "machine/monitor.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "wcet/wcet.hpp"

namespace vc::driver {

/// The shared job knobs. The compile-shaping ones (target, ssa,
/// disable_passes) come from PipelineSpec, so a CompileOptions is filled
/// from a RunSpec by one slice assignment.
struct RunSpec : PipelineSpec {
  /// Translation-validation level. A validated job needs a compile override
  /// (validate::attach_campaign_validation); run_fleet rejects a validated
  /// spec without one instead of silently running it unvalidated.
  ValidateLevel validate = ValidateLevel::Off;
  /// Step invocations per job with pseudo-random inputs (0 = no execution).
  int exec_cycles = 0;
  /// Clear caches before every invocation (unknown-initial-state runs, as in
  /// the WCET soundness sweeps).
  bool cold_caches = false;
  /// Compute the static WCET bound of the entry function.
  bool wcet = false;
  /// Additionally compute the bound with cache analysis disabled (always on
  /// the structural engine: it isolates the cache analysis).
  bool wcet_nocache = false;
  /// Path-analysis backend(s) for the main bound. Structural fills only
  /// the record's wcet_cycles; Ipet fills wcet_cycles (= the IPET bound)
  /// plus the per-engine fields; Both records each bound so reports can
  /// quantify the tightness delta.
  wcet::WcetEngine wcet_engine = wcet::WcetEngine::Structural;
  /// Honour the annotation table in the WCET and monitor analyses.
  bool use_annotations = true;
  /// Runtime execution monitor armed on every simulated run: `Cfg` checks
  /// every control transfer against the reconstructed CFG, `Full` adds
  /// live-value annotation checks and per-entry loop-bound counting
  /// (machine/monitor.hpp). A violation fails the job (ok=false, the
  /// MonitorError text in `error`, monitor_violations set).
  machine::MonitorMode monitor = machine::MonitorMode::Off;
};

/// One job: the shared knobs plus the per-job fields.
struct JobSpec : RunSpec {
  Config config = Config::Verified;
  /// Seed of the job's pseudo-random input stream.
  std::uint64_t input_seed = 0;
};

/// The identities a field salts (bit set).
enum Salt : unsigned {
  kSaltArtifact = 1u << 0,  // artifact-store key: the compile and its image
  kSaltParams = 1u << 1,    // results-stanza "params": the derived results
  kSaltClass = 1u << 2,     // vccd class_key: jobs sharing one run_fleet call
  kSaltRequest = 1u << 3,   // vccd request_hash: the incremental memo
  kSaltHeader = 1u << 4,    // fleet report header (driver::to_json)
};

/// The command lines that spell a field (bit set).
enum CliSurface : unsigned {
  kCliVcc = 1u << 0,    // vcc
  kCliBench = 1u << 1,  // the fleet bench binaries (bench_common.hpp)
};

/// Encoding version of every table-derived identity. Artifact keys and
/// request hashes carry it, so a change of encoding misses old entries
/// instead of misreading them.
inline constexpr const char kSpecKeyVersion[] = "runspec-1";

/// One row of the knob table. `set` and `parse` return "" or a diagnostic.
struct SpecField {
  const char* key;    // JSON key (wire, params stanza, identities)
  unsigned salts;     // Salt bits
  const char* flag;   // command-line spelling; nullptr = no flag
  unsigned surfaces;  // CliSurface bits accepting `flag`
  const char* bare;   // value a bare `flag` stands for; nullptr = required
  bool valued;        // `flag=VALUE` is accepted
  bool repeats;       // every occurrence appends (list fields)
  json::Value (*get)(const JobSpec&);
  std::string (*set)(JobSpec&, const json::Value&);     // the whole value
  std::string (*parse)(JobSpec&, const std::string&);  // one flag value
  std::string (*choices)();  // usage placeholder ("ppc|rv32", "N", ...)
};

/// Every knob, in declaration order.
std::span<const SpecField> spec_fields();

/// The row with JSON key `key`, or nullptr.
const SpecField* find_spec_field(std::string_view key);

/// The row spelled `flag` (e.g. "--target"), or nullptr.
const SpecField* find_spec_flag(std::string_view flag);

/// The fields of `spec` that salt any of `salts`, as one JSON object keyed
/// by the rows' keys. spec_json(spec, ~0u) is the whole spec.
json::Value spec_json(const JobSpec& spec, unsigned salts);

/// Reads every table key present in the JSON object `doc` into `spec`
/// (absent keys keep their value). Returns "" or the first diagnostic: an
/// ill-typed value or an unknown name.
std::string spec_from_json(const json::Value& doc, JobSpec* spec);

/// The canonical, versioned identity text of the fields salting `salt`.
std::string spec_identity(const JobSpec& spec, Salt salt);

/// The artifact-store key of compiling `source` (entry `entry`) under
/// `spec`: every kSaltArtifact field, plus the compiler version.
Hash128 artifact_key(const JobSpec& spec, std::string_view source,
                     std::string_view entry);

/// Applies one command-line word to `spec` when it spells a field that
/// `surface` accepts. Returns nullopt when `arg` is not such a flag, ""
/// when it was applied, and a diagnostic otherwise.
std::optional<std::string> parse_spec_flag(const std::string& arg,
                                           CliSurface surface,
                                           JobSpec* spec);

/// The usage fragment for every flag `surface` accepts
/// ("[--target=ppc|rv32] [--ssa] ...").
std::string spec_usage(CliSurface surface);

/// Validates optimization-step names against the built-in registry.
/// Returns the diagnostic for the first unknown or structural name
/// ("unknown pass 'x'; registered steps: ..."), nullopt when every name is
/// selectable.
std::optional<std::string> check_pass_names(
    const std::vector<std::string>& names);

}  // namespace vc::driver
