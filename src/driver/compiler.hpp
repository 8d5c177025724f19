// The compiler driver: the four configurations of the paper's experiment.
//
//   O0Pattern    — the certified baseline: pattern/stack lowering, no RTL
//                  optimization. Every symbol compiles to its fixed pattern
//                  (paper §2.1, Listing 1).
//   O1NoRegalloc — the default compiler "optimized without register
//                  allocation" (§3.3): constprop/CSE/DCE over the pattern
//                  code, program variables stay in stack slots.
//   Verified     — the CompCert stand-in (§3.2): value lowering, constprop,
//                  CSE, DCE, graph-coloring register allocation; no machine
//                  level scheduling or fusion. Each RTL pass is checked by
//                  the translation validator when requested.
//   O2Full       — the default compiler fully optimized: Verified's pipeline
//                  plus fmadd fusion, immediate folding, list scheduling.
//
// Each configuration is a named pass pipeline (`pipeline_names`) executed by
// the pass framework (src/pass); `compile_program` contains no hard-wired
// pass calls. `CompileOptions` exposes the pipeline surface: checker hooks,
// per-pass telemetry, pass selection/disabling, and dump-after.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "minic/ast.hpp"
#include "pass/pass.hpp"
#include "mach/codegen.hpp"
#include "mach/program.hpp"
#include "rtl/rtl.hpp"

namespace vc::driver {

enum class Config { O0Pattern, O1NoRegalloc, Verified, O2Full };

/// The single source of truth for configuration names: `cli` is what
/// --config= accepts, `full` what to_string renders (reports, tables,
/// artifact keys). `parse_config` accepts either spelling, so the pair
/// round-trips by construction (tested over kAllConfigs).
struct ConfigName {
  Config config;
  const char* cli;
  const char* full;
};
inline constexpr ConfigName kConfigNames[] = {
    {Config::O0Pattern, "O0", "O0-pattern"},
    {Config::O1NoRegalloc, "O1", "O1-noregalloc"},
    {Config::Verified, "verified", "verified"},
    {Config::O2Full, "O2", "O2-full"},
};

std::string to_string(Config c);

/// Maps a configuration name (cli or full spelling) to the configuration;
/// nullopt for unknown names.
std::optional<Config> parse_config(const std::string& name);

/// How much of the pipeline the translation validator covers:
///   Off — no validation; Rtl — the RTL checkers (structure-preserving,
///   dead-store, differential) plus the end-to-end machine cross-check;
///   Full — Rtl plus the machine-level checkers (register allocation,
///   peephole/self-move equivalence, schedule validation).
enum class ValidateLevel { Off, Rtl, Full };
inline constexpr const char* kValidateLevelNames[] = {"off", "rtl", "full"};

std::string to_string(ValidateLevel level);

/// The compiler identity baked into every artifact-store key (src/artifact):
/// bump it with any change that can alter generated code, annotations, or
/// WCET analysis results, so stale cached artifacts miss instead of
/// resurfacing output of an older toolchain.
inline constexpr const char kCompilerVersion[] = "vcflight-7";
inline constexpr Config kAllConfigs[] = {Config::O0Pattern,
                                         Config::O1NoRegalloc,
                                         Config::Verified, Config::O2Full};

/// The named pass pipeline of `config`, in execution order (the structural
/// steps lower/regalloc/emit included). This is the declarative description
/// the PassManager executes.
std::vector<std::string> pipeline_names(Config config);

/// Per-function intermediate artifacts kept for validation and inspection.
struct FunctionArtifact {
  rtl::Function rtl_lowered;    // right after AST -> RTL
  rtl::Function rtl_optimized;  // after the RTL pass pipeline (pre-regalloc)
  rtl::Function rtl_allocated;  // after spill rewriting (what codegen saw)
  std::vector<std::string> passes_applied;
  int spill_count = 0;
};

struct Compiled {
  Config config{};
  mach::Image image;
  std::map<std::string, FunctionArtifact> artifacts;
};

/// The job knobs that shape the compile itself: the compile-side slice of
/// driver::RunSpec (driver/run_spec.hpp), where each one is declared as a
/// row of the knob table.
struct PipelineSpec {
  /// Target to compile for (resolved against the registry in src/targets;
  /// CompileError on unknown names). The produced image is tagged with it.
  std::string target = "ppc";
  /// Enables the SSA mid-end (src/ssa) on the optimizing configurations
  /// (Verified and O2Full; ignored for the pattern configurations): the
  /// bracket ssa-build, ssa-gvn, ssa-licm, ssa-unroll, ssa-rotate, ssa-out
  /// is inserted after the scalar round group, followed by a second scalar
  /// cleanup round, all before regalloc. Off by default — the baseline
  /// pipelines stay byte-identical to the reference corpus.
  bool ssa = false;
  /// Optimization passes to remove from the configuration's pipeline (the
  /// ablation-arm surface). Disabling an unknown or structural pass is a
  /// CompileError.
  std::vector<std::string> disable_passes;
};

/// The pipeline surface of one compilation.
struct CompileOptions : PipelineSpec {
  /// Fired after every applied step with before/after IR snapshots; the
  /// attachment point for the translation validator (src/validate). Returns
  /// the number of checks performed; may throw ValidationError.
  pass::StepHook hook;
  /// When set, accumulates per-pass telemetry over all functions.
  pass::PipelineStats* stats = nullptr;
  /// When non-empty, replaces the configuration's optimization passes: RTL
  /// passes run between lower and regalloc, machine passes after selfmove,
  /// each set in the order given here. Structural passes cannot be listed.
  std::vector<std::string> passes;
  /// Dump attachment (--dump-after): after every applied execution of this
  /// pass, `dump` is called with the pass name and current function state.
  std::string dump_after;
  std::function<void(const std::string&, const pass::FunctionState&)> dump;
};

/// The pipeline of `config` with `options`' selection/disabling applied
/// (validated against the builtin registry; CompileError on bad names).
std::vector<std::string> resolve_pipeline(Config config,
                                          const CompileOptions& options);

/// Compiles every function of `program` under `config` and links the image.
/// The program must already type-check. The pipeline is built from
/// `pipeline_names(config)` and executed by the pass framework; `options`
/// attaches hooks, telemetry, and pipeline overrides.
Compiled compile_program(const minic::Program& program, Config config,
                         const CompileOptions& options = {});

}  // namespace vc::driver
