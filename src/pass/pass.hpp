// The pass framework: the compile path as data instead of a call sequence.
//
// A `PassManager` owns an ordered pipeline of named steps over both IR
// levels — RTL function passes (constprop, cse, ...) and machine passes
// (selfmove, peephole, schedule) — plus the structural skeleton steps that
// change representation (lower, regalloc, emit). The driver builds one
// pipeline per `driver::Config` from the step `Registry`; nothing in
// `compile_program` is hard-wired anymore.
//
// Every step execution carries two attachments, mirroring how CompCert earns
// certification credit per pass (paper §3.2; Rideau & Leroy's a-posteriori
// checkers):
//
//   * a checker hook (`StepHook`): fired with the step name and before/after
//     IR snapshots. The translation validator (src/validate) hangs its
//     per-pass checkers here and throws ValidationError on rejection; the
//     hook's return value counts the checks it performed, which flows into
//     the telemetry below.
//   * structured telemetry (`PassStat`): wall time, run/applied counts,
//     rewrite counts, IR-size delta, and validator check counts per pass,
//     aggregated across functions (and across fleet jobs by driver/fleet).
//
// Execution semantics:
//   * consecutive RTL fixpoint steps form a round group. It stops after a
//     round in which no step changed anything (convergence), after a round
//     that ends with the function it started from (a repeated round), or
//     after 4 rounds (the cap, kRtlRounds in pass.cpp). The steps are
//     deterministic, so every round after a repeated one would replay it
//     and end in the same function: the output is the cap's, and the cap is
//     only a bound. Repeats are common: CSE rewrites a second `LdI c` into
//     a `Mov` from the first, and constprop folds that `Mov` back into
//     `LdI c`, so both report a rewrite in every round;
//   * a machine fixpoint step (peephole) iterates until it reports zero
//     rewrites, bounded by ManagerOptions::machine_fixpoint_cap — exceeding
//     the cap is an InternalError naming the function (a diverging rewrite
//     system is a compiler bug, not an input error);
//   * structural steps always run and always fire the hook; optimization
//     steps fire it only when they changed something.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "minic/ast.hpp"
#include "mach/codegen.hpp"
#include "mach/program.hpp"
#include "regalloc/regalloc.hpp"
#include "rtl/lower.hpp"
#include "rtl/rtl.hpp"
#include "ssa/ssa.hpp"

namespace vc::pass {

/// Which IR a step reads and rewrites (and therefore which before-snapshot
/// its hook receives).
enum class Level { Rtl, Machine };

std::string to_string(Level level);

/// The per-function compilation state threaded through a pipeline. The
/// structural steps move it forward: `lower` fills `rtl`, `regalloc` fills
/// `alloc` (rewriting `rtl` with spill code), `emit` fills `machine`.
struct FunctionState {
  const minic::Program* program = nullptr;
  const minic::Function* source = nullptr;
  mach::DataLayout* layout = nullptr;

  rtl::Function rtl;
  /// Snapshot taken by the regalloc step just before allocation — the
  /// optimized-but-unspilled RTL (driver keeps it as FunctionArtifact::
  /// rtl_optimized without forcing per-pass snapshots on).
  rtl::Function rtl_pre_regalloc;
  regalloc::Allocation alloc;
  mach::AsmFunction machine;
  bool emitted = false;  // `machine` holds valid code
  /// Annotation-rewrite certificate of the last ssa-unroll execution on this
  /// function (reset by the step each run; consumed by the
  /// check_unroll_certificate hook in src/validate).
  ssa::UnrollCertificate unroll_cert;

  // Per-configuration knobs consumed by the structural steps.
  rtl::LowerMode lower_mode = rtl::LowerMode::Value;
  bool small_data_area = true;
  bool spread_colors = false;
  /// The target being compiled for; the driver sets it before running any
  /// pipeline (regalloc reads register-class sizes from it, emit/peephole/
  /// schedule pass it to the machine layer).
  const mach::TargetDesc* target = nullptr;
  /// Register-class sizes for the allocator; 0 = take them from `target`.
  int k_int = 0;
  int k_float = 0;

  [[nodiscard]] const std::string& name() const { return source->name; }
};

/// One pipeline step definition. `run` performs the rewrite and returns its
/// rewrite count (0 = nothing changed); for structural steps the count is
/// informational (regalloc returns its spill count).
struct StepDef {
  std::string name;
  Level level = Level::Rtl;
  /// Pipeline skeleton (lower/regalloc/emit): always runs, cannot be
  /// selected by --passes or removed by --disable-pass.
  bool structural = false;
  /// RTL: joins the bounded round group. Machine: iterated to fixpoint.
  bool fixpoint = false;
  std::function<int(FunctionState&)> run;
};

/// What a hook sees after a step executed. Snapshot pointers are null when
/// no hook is attached (snapshots are skipped) or the level does not apply:
/// Rtl steps set `rtl_before`, Machine steps set `machine_before`. For the
/// `lower` and `emit` steps the before-IR is the empty function.
struct StepTrace {
  std::string pass;
  Level level = Level::Rtl;
  const FunctionState* state = nullptr;           // after the step
  const rtl::Function* rtl_before = nullptr;      // Level::Rtl steps
  const mach::AsmFunction* machine_before = nullptr;  // Level::Machine steps
  int rewrites = 0;
};

/// Fired after each executed step (see class comment for when). Returns the
/// number of validation checks it performed (telemetry); throws
/// ValidationError to reject the step and abort compilation.
using StepHook = std::function<int(const StepTrace&)>;

/// Per-pass telemetry, aggregated over every execution of the pass.
struct PassStat {
  std::string name;
  double seconds = 0.0;        // wall time inside the pass
  std::uint64_t runs = 0;      // executions (fixpoint loop = one run)
  std::uint64_t applied = 0;   // executions that changed the IR
  std::int64_t rewrites = 0;   // rewrite count reported by the pass
  std::int64_t ir_delta = 0;   // IR-size change (instructions / machine ops)
  std::uint64_t checks = 0;    // validator checks performed by hooks
};

/// Ordered per-pass stats for one pipeline (or an aggregate of many runs —
/// the fleet runner sums one PipelineStats per job into the campaign total).
struct PipelineStats {
  std::vector<PassStat> passes;  // ordered by first appearance

  /// The stat slot for `name`, appended on first use.
  PassStat& at(const std::string& name);
  [[nodiscard]] const PassStat* find(const std::string& name) const;
  PipelineStats& operator+=(const PipelineStats& o);
  [[nodiscard]] double total_seconds() const;
};

/// The step registry: name -> definition. Copyable so tests can extend it
/// with custom steps without mutating global state.
class Registry {
 public:
  /// All built-in steps: lower, constprop, cse, forward, dce, deadstore,
  /// tunnel, regalloc, emit, selfmove, peephole, schedule.
  static Registry builtin();

  /// Registers `def` (replaces an existing step of the same name).
  void add(StepDef def);
  [[nodiscard]] const StepDef* find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::vector<StepDef> defs_;
};

struct ManagerOptions {
  StepHook hook;
  /// Provide before-IR copies to the hook (StepTrace::rtl_before /
  /// machine_before). Snapshots cost a function copy per applied pass, so
  /// bookkeeping-only hooks can turn them off; the trace pointers are then
  /// null.
  bool snapshots = true;
  PipelineStats* stats = nullptr;
  /// Dump attachment: after every applied execution of the step named
  /// `dump_after`, `dump` is called with the step name and current state.
  std::string dump_after;
  std::function<void(const std::string& pass, const FunctionState&)> dump;
  /// Bound on any machine fixpoint step; exceeding it throws InternalError.
  int machine_fixpoint_cap = 64;
};

/// An ordered pipeline of steps resolved against a registry. Construction
/// throws CompileError for unknown step names.
class PassManager {
 public:
  PassManager(const Registry& registry, const std::vector<std::string>& names,
              ManagerOptions options = {});

  /// Runs the pipeline over `state`. RTL fixpoint groups are iterated and
  /// re-validated (rtl::Function::validate) when the group stops.
  void run(FunctionState& state) const;

  [[nodiscard]] const std::vector<std::string>& pipeline() const {
    return names_;
  }

 private:
  void run_step(FunctionState& state, const StepDef& def) const;
  int execute(FunctionState& state, const StepDef& def) const;

  std::vector<std::string> names_;
  std::vector<StepDef> steps_;
  ManagerOptions options_;
};

}  // namespace vc::pass
