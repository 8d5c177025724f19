// Argument parsing for the vcc driver, split out so the strict-parsing
// rules are unit-testable (tests/vcc_cli_test.cpp) without spawning the
// binary. Policy: malformed or wrong-arity argument lists are diagnosed,
// never silently truncated or zero-filled — vcc exits 2 on any of these.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/run_spec.hpp"
#include "minic/ast.hpp"
#include "minic/interp.hpp"
#include "pass/pass.hpp"

namespace vc::tools {

/// Detects repeated contradictory occurrences of single-valued flags.
/// A flag repeated with the *same* value is tolerated (harmless, common in
/// generated command lines); a repeat with a different value is a conflict:
/// silently letting the last occurrence win hides operator errors like
/// `--wcet-engine=ipet ... --wcet-engine=structural`, so strict CLIs
/// diagnose it and exit 2. Header-only so the fleet benches share the exact
/// same policy without linking the vcc driver library.
class FlagConflicts {
 public:
  /// Records `flag` (e.g. "--jobs") seen with `value`. Returns a diagnostic
  /// if the flag was already seen with a different value, nullopt otherwise.
  std::optional<std::string> note(const std::string& flag,
                                  const std::string& value) {
    const auto [it, inserted] = seen_.emplace(flag, value);
    if (inserted || it->second == value) return std::nullopt;
    return "conflicting values for " + flag + ": '" + it->second +
           "' then '" + value + "' (remove one; repeated flags must agree)";
  }

 private:
  std::map<std::string, std::string> seen_;
};

/// Splits "--name=value" into its flag name (nullopt for non-flag words).
/// Bare boolean flags ("--emit-asm") yield an empty value. A bare knob-table
/// flag yields the value it stands for (a bare `--validate` is
/// `--validate=rtl`), so `--validate --validate=rtl` is a tolerated repeat.
struct SplitFlag {
  std::string name;
  std::string value;
};

inline std::optional<SplitFlag> split_flag(const std::string& arg) {
  if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') return std::nullopt;
  const std::size_t eq = arg.find('=');
  SplitFlag f;
  f.name = arg.substr(0, eq);
  if (eq != std::string::npos) {
    f.value = arg.substr(eq + 1);
  } else if (const driver::SpecField* knob = driver::find_spec_flag(f.name);
             knob != nullptr && knob->bare != nullptr) {
    f.value = knob->bare;
  }
  return f;
}

/// The front half of the vcc and bench flag loops: diagnoses a
/// contradictory repeat of any single-valued flag, then applies `arg` to
/// `spec` when it spells a knob-table flag (driver/run_spec.hpp) accepted on
/// `surface`. Returns nullopt when `arg` is left to the caller's own flags,
/// "" when it was applied, and a diagnostic otherwise (exit 2). Step names
/// are checked here too, so a typo'd --disable-pass lists the registered
/// steps at parse time instead of failing mid-compile.
class SpecFlagParser {
 public:
  explicit SpecFlagParser(driver::CliSurface surface) : surface_(surface) {}

  std::optional<std::string> parse(const std::string& arg,
                                   driver::JobSpec* spec) {
    if (const auto flag = split_flag(arg)) {
      const driver::SpecField* knob = driver::find_spec_flag(flag->name);
      if (knob == nullptr || !knob->repeats)
        if (auto conflict = conflicts_.note(flag->name, flag->value))
          return conflict;
    }
    return driver::parse_spec_flag(arg, surface_, spec);
  }

 private:
  driver::CliSurface surface_;
  FlagConflicts conflicts_;
};

/// Result of parsing a --run=FN[:a,b,...] argument list against a function
/// signature: the marshalled values, or a diagnostic.
struct CallArgs {
  std::vector<minic::Value> values;
  std::string error;  // empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Strictly parses `spec` (empty, or "a,b,c") against `fn`'s parameters:
/// exactly one well-formed literal per parameter — extra, missing, or
/// malformed arguments produce an error instead of truncation or zero-fill.
/// i32 literals must be decimal integers in range; f64 literals anything
/// strtod fully consumes.
CallArgs parse_call_args(const minic::Function& fn, const std::string& spec);

/// One measured phase of a vcc invocation (compile / wcet / exec): wall time
/// plus the heap traffic the phase performed on the calling thread
/// (support/alloccount counters).
struct ProfilePhase {
  std::string name;
  double seconds = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t alloc_bytes = 0;
};

/// Renders the --profile report: a phase table (seconds, allocations,
/// bytes) followed by the per-pass breakdown from the pass-manager
/// telemetry (omitted when `passes` is empty — e.g. a cache-served
/// compile). Pure string formatting, so the exact layout is unit-testable
/// without spawning the vcc binary.
[[nodiscard]] std::string format_profile(
    const std::vector<ProfilePhase>& phases,
    const pass::PipelineStats& passes);

/// Batch compilation (vcc --batch): every .mc file under a directory,
/// compiled in parallel, with optional artifact caching. Lives here (not in
/// the vcc binary) so the exit-code and summary policy is unit-testable:
/// any per-file failure must yield a non-zero exit code and an explicit
/// per-file pass/fail summary — a batch must never "exit 0 with errors in
/// the scrollback".
/// Every file compiles under the spec's config and compile-shaping knobs,
/// which key the artifact exactly as in the fleet (driver::artifact_key).
/// A validated batch (spec.validate != Off) bypasses the artifact cache:
/// re-checking the compilation is the point of the run. Batch mode is
/// compile-only, so the run knobs (execution, WCET, monitor) do not apply.
struct BatchOptions : driver::JobSpec {
  int jobs = 0;  // 0 = one worker per hardware thread
  /// Artifact-store directory; empty disables caching.
  std::string cache_dir;
  std::uint64_t cache_budget_bytes = 0;  // 0 = unlimited
};

/// Exit-code policy: 0 = every file compiled; 1 = at least one compile
/// failed; 2 = usage/environment error (path missing or not a directory,
/// bad --jobs, or an unreadable file) — the diagnostic always names the
/// offending path and the reason.
struct BatchResult {
  int exit_code = 1;               // 0 only when every file compiled
  std::size_t total = 0;
  std::size_t compiled = 0;
  std::size_t cache_hits = 0;
  std::size_t io_errors = 0;          // unreadable files (exit-2 class)
  std::vector<std::string> lines;     // per-file results, sorted-path order
  std::vector<std::string> failures;  // paths of the files that failed
  std::string summary;                // human footer (throughput + cache)
};

BatchResult run_batch(const std::string& dir, const BatchOptions& options);

}  // namespace vc::tools
