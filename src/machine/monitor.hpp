// Runtime execution monitor: a dynamic soundness oracle for the static
// analysis artifacts (the zen-ids idea applied to the WCET tool chain).
//
// When armed on the simulator, every executed instruction is checked against
// a MonitorSpec of statically *claimed* facts:
//   - control: every control transfer taken by the machine must be an edge
//     of the reconstructed CFG (branch pc -> legal successor addresses);
//   - values: every interval annotation ("0 <= %1 <= 6") must hold for the
//     live register/stack value at its anchor pc;
//   - loops: per-entry back-edge counts must never exceed the loop-bound
//     rows the WCET path analyses consume.
// A violated fact is a hard MonitorError naming the function, the pc, and
// the fact — the trust anchor the paper's static claims otherwise lack
// (both WCET engines consume the same reconstructed CFG, so cross-engine
// agreement alone proves nothing about reconstruction bugs).
//
// Trust boundary: the *facts* come from the artifacts under test (that is
// the point — the monitor checks the analyzer's claims against the real
// trace), but the *checking machinery* here shares no code with src/wcet:
// annotation chains are re-parsed independently (monitor_parse_chain), and
// values are compared directly against live architectural state, with no
// interval arithmetic, abstract domains, or CFG algorithms involved.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "mach/program.hpp"

namespace vc::machine {

/// A violated statically-claimed fact, observed on a real execution trace.
class MonitorError : public std::runtime_error {
 public:
  MonitorError(const std::string& function, std::uint32_t pc,
               const std::string& fact);

  [[nodiscard]] const std::string& function() const { return function_; }
  [[nodiscard]] std::uint32_t pc() const { return pc_; }
  [[nodiscard]] const std::string& fact() const { return fact_; }

 private:
  std::string function_;
  std::uint32_t pc_ = 0;
  std::string fact_;
};

/// What the armed monitor checks. Cfg checks control transfers only; Full
/// additionally checks value annotations and loop-bound rows.
enum class MonitorMode { Off, Cfg, Full };

inline constexpr const char* kMonitorModeNames[] = {"off", "cfg", "full"};

[[nodiscard]] inline std::string to_string(MonitorMode mode) {
  return kMonitorModeNames[static_cast<int>(mode)];
}

/// Read-only view of live architectural state, so the monitor can evaluate
/// value annotations without depending on the Machine class (the Machine
/// implements this privately and hands itself to the armed monitor).
class CpuView {
 public:
  virtual ~CpuView() = default;
  [[nodiscard]] virtual std::uint32_t gpr(int index) const = 0;
  [[nodiscard]] virtual double fpr(int index) const = 0;
  /// Stack-slot reads at `offset` bytes from the entry frame pointer (the
  /// r1 value the calling convention pins at function entry).
  [[nodiscard]] virtual std::uint32_t stack_u32(std::int32_t offset) const = 0;
  [[nodiscard]] virtual std::uint64_t stack_u64(std::int32_t offset) const = 0;
};

/// One per-operand bound extracted from an annotation chain: `%operand`
/// (1-based) must lie in [lo, hi] at the annotation's anchor.
struct ChainBound {
  int operand = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Independently re-parses an annotation chain ("0 <= %1 <= %2 < 360") into
/// per-operand constant bounds. Returns nullopt for anything that is not a
/// well-formed chain (including "loop <= N" rows). Written from the §3.4
/// annotation grammar, deliberately not from src/wcet/annotations.cpp.
[[nodiscard]] std::optional<std::vector<ChainBound>> monitor_parse_chain(
    const std::string& format);

/// One live-value check: before executing the instruction at `pc`, the value
/// of `loc` must lie in [lo, hi].
struct MonitorValueCheck {
  std::uint32_t pc = 0;
  mach::MLoc loc;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::string text;  // the original annotation text (diagnostics)
};

/// One loop-bound row: per entry of the loop headed at `header_pc`, at most
/// `bound` back edges (transfers into the header from inside `body`).
struct MonitorLoopRow {
  std::uint32_t header_pc = 0;
  std::int64_t bound = 0;
  /// Half-open [start, end) address ranges of the loop body (incl. header).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> body;

  [[nodiscard]] bool contains(std::uint32_t pc) const {
    for (const auto& [start, end] : body)
      if (pc >= start && pc < end) return true;
    return false;
  }
};

/// The statically claimed facts the monitor holds an execution to. Plain
/// data: builders live wherever the artifacts live (src/wcet builds one from
/// the reconstructed CFG and the loop-bound rows; add_annotation ingests the
/// image's raw annotation table).
struct MonitorSpec {
  std::string function;
  std::uint32_t lo = 0;  // code range [lo, hi) of the monitored function
  std::uint32_t hi = 0;
  /// Legal transfer targets per branch instruction address. Every control
  /// transfer instruction of the function must appear here; a blr maps to
  /// the stop address.
  std::map<std::uint32_t, std::vector<std::uint32_t>> branch_targets;
  std::vector<MonitorValueCheck> value_checks;
  std::vector<MonitorLoopRow> loops;

  /// Ingests one raw annotation entry: parses the chain independently and
  /// appends a value check per operand with a usable constant bound.
  /// Returns false (and adds nothing) for loop rows, unparseable formats,
  /// out-of-range operands, and float operands (mirroring what the static
  /// value analysis consumes; float claims are not part of the trusted
  /// fact base).
  bool add_annotation(const mach::AnnotEntry& entry);
};

/// The armed checker. Holds a reference to the spec (caller keeps it alive)
/// plus per-call loop counters. All checks throw MonitorError on violation.
class ExecutionMonitor {
 public:
  ExecutionMonitor(const MonitorSpec& spec, MonitorMode mode);

  /// Resets per-call state (loop counters). The step counter survives so a
  /// harness can total monitored work over many calls.
  void begin_call();

  /// Value-anchor checks for the instruction about to execute at `pc`.
  void before_execute(std::uint32_t pc, const CpuView& cpu);

  /// Control-flow and loop accounting for one completed step: the
  /// instruction at `pc` transferred control to `next_pc`.
  void after_step(std::uint32_t pc, std::uint32_t next_pc, bool is_branch);

  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] MonitorMode mode() const { return mode_; }

 private:
  [[noreturn]] void violation(std::uint32_t pc, const std::string& fact) const;

  const MonitorSpec& spec_;
  MonitorMode mode_;
  std::uint64_t steps_ = 0;
  // Value checks indexed by anchor pc (indices into spec_.value_checks).
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> checks_at_;
  // Loop rows indexed by header pc, with live per-call back-edge counters.
  std::unordered_map<std::uint32_t, std::size_t> loop_at_;
  std::vector<std::int64_t> back_edges_;
};

}  // namespace vc::machine
