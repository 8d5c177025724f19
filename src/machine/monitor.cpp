#include "machine/monitor.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "support/strings.hpp"

namespace vc::machine {

namespace {

constexpr std::int64_t kNoLo = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kNoHi = std::numeric_limits<std::int64_t>::max();

/// One token of a chain: an integer constant or a `%k` operand reference.
struct ChainTerm {
  bool is_const = false;
  std::int64_t value = 0;
  int operand = 0;
};

bool parse_terms(const std::string& format, std::vector<ChainTerm>* terms,
                 std::vector<bool>* strict_links) {
  std::istringstream in(format);
  std::string tok;
  bool want_term = true;
  while (in >> tok) {
    if (want_term) {
      ChainTerm t;
      if (tok[0] == '%') {
        char* end = nullptr;
        const long k = std::strtol(tok.c_str() + 1, &end, 10);
        if (end == tok.c_str() + 1 || *end != '\0' || k <= 0 || k > 1000)
          return false;
        t.operand = static_cast<int>(k);
      } else {
        char* end = nullptr;
        const long long v = std::strtoll(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0') return false;
        t.is_const = true;
        t.value = v;
      }
      terms->push_back(t);
    } else if (tok == "<" || tok == "<=") {
      strict_links->push_back(tok == "<");
    } else {
      return false;
    }
    want_term = !want_term;
  }
  return !want_term && terms->size() >= 2 &&
         strict_links->size() == terms->size() - 1;
}

double bound_as_double(std::int64_t b) { return static_cast<double>(b); }

}  // namespace

MonitorError::MonitorError(const std::string& function, std::uint32_t pc,
                           const std::string& fact)
    : std::runtime_error("monitor violation in '" + function + "' at " +
                         hex32(pc) + ": " + fact),
      function_(function),
      pc_(pc),
      fact_(fact) {}

std::optional<std::vector<ChainBound>> monitor_parse_chain(
    const std::string& format) {
  std::vector<ChainTerm> terms;
  std::vector<bool> strict;
  if (!parse_terms(format, &terms, &strict)) return std::nullopt;

  // For each operand position, the tightest constant bound on each side.
  // Walking from a constant at position j to an operand at position i, every
  // strict '<' link on the way tightens the bound by one (the chain values
  // are integers at every i32 anchor the generator emits).
  std::map<int, ChainBound> by_operand;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].is_const) continue;
    std::int64_t lo = kNoLo;
    std::int64_t hi = kNoHi;
    for (std::size_t j = i; j-- > 0;) {
      if (!terms[j].is_const) continue;
      std::int64_t b = terms[j].value;
      for (std::size_t l = j; l < i; ++l)
        if (strict[l]) ++b;
      lo = std::max(lo, b);
    }
    for (std::size_t j = i + 1; j < terms.size(); ++j) {
      if (!terms[j].is_const) continue;
      std::int64_t b = terms[j].value;
      for (std::size_t l = i; l < j; ++l)
        if (strict[l]) --b;
      hi = std::min(hi, b);
    }
    auto [it, inserted] =
        by_operand.emplace(terms[i].operand,
                           ChainBound{terms[i].operand, lo, hi});
    if (!inserted) {
      it->second.lo = std::max(it->second.lo, lo);
      it->second.hi = std::min(it->second.hi, hi);
    }
  }

  std::vector<ChainBound> out;
  for (const auto& [operand, bound] : by_operand)
    if (bound.lo != kNoLo || bound.hi != kNoHi) out.push_back(bound);
  return out;
}

bool MonitorSpec::add_annotation(const mach::AnnotEntry& entry) {
  const auto bounds = monitor_parse_chain(entry.format);
  if (!bounds) return false;
  bool added = false;
  for (const ChainBound& b : *bounds) {
    if (b.operand > static_cast<int>(entry.operands.size())) continue;
    const mach::MLoc& loc =
        entry.operands[static_cast<std::size_t>(b.operand - 1)];
    if (loc.kind == mach::MLoc::Kind::Fpr) continue;
    if (loc.kind == mach::MLoc::Kind::StackSlot && loc.is_f64) continue;
    value_checks.push_back(
        MonitorValueCheck{entry.addr, loc, b.lo, b.hi, entry.format});
    added = true;
  }
  return added;
}

ExecutionMonitor::ExecutionMonitor(const MonitorSpec& spec, MonitorMode mode)
    : spec_(spec), mode_(mode) {
  for (std::size_t i = 0; i < spec_.value_checks.size(); ++i)
    checks_at_[spec_.value_checks[i].pc].push_back(i);
  back_edges_.assign(spec_.loops.size(), 0);
  for (std::size_t i = 0; i < spec_.loops.size(); ++i)
    loop_at_.emplace(spec_.loops[i].header_pc, i);
}

void ExecutionMonitor::begin_call() {
  std::fill(back_edges_.begin(), back_edges_.end(), 0);
}

void ExecutionMonitor::violation(std::uint32_t pc,
                                 const std::string& fact) const {
  throw MonitorError(spec_.function, pc, fact);
}

void ExecutionMonitor::before_execute(std::uint32_t pc, const CpuView& cpu) {
  if (mode_ != MonitorMode::Full) return;
  const auto it = checks_at_.find(pc);
  if (it == checks_at_.end()) return;
  for (const std::size_t idx : it->second) {
    const MonitorValueCheck& check = spec_.value_checks[idx];
    switch (check.loc.kind) {
      case mach::MLoc::Kind::Gpr: {
        const auto v = static_cast<std::int64_t>(
            static_cast<std::int32_t>(cpu.gpr(check.loc.index)));
        if (v < check.lo || v > check.hi)
          violation(pc, "annotation \"" + check.text + "\": live " +
                            check.loc.to_string() + " = " +
                            std::to_string(v) + " outside [" +
                            std::to_string(check.lo) + ", " +
                            std::to_string(check.hi) + "]");
        break;
      }
      case mach::MLoc::Kind::StackSlot: {
        const auto v = static_cast<std::int64_t>(static_cast<std::int32_t>(
            cpu.stack_u32(check.loc.offset)));
        if (v < check.lo || v > check.hi)
          violation(pc, "annotation \"" + check.text + "\": live " +
                            check.loc.to_string() + " = " +
                            std::to_string(v) + " outside [" +
                            std::to_string(check.lo) + ", " +
                            std::to_string(check.hi) + "]");
        break;
      }
      case mach::MLoc::Kind::Fpr: {
        // Float operands are filtered out at spec-build time; checked here
        // defensively for hand-built specs.
        const double v = cpu.fpr(check.loc.index);
        if (v < bound_as_double(check.lo) || v > bound_as_double(check.hi))
          violation(pc, "annotation \"" + check.text + "\": live " +
                            check.loc.to_string() + " outside bounds");
        break;
      }
    }
  }
}

void ExecutionMonitor::after_step(std::uint32_t pc, std::uint32_t next_pc,
                                  bool is_branch) {
  ++steps_;

  if (is_branch) {
    const auto it = spec_.branch_targets.find(pc);
    if (it == spec_.branch_targets.end())
      violation(pc, "control transfer at a pc the reconstructed CFG has no "
                    "branch for");
    if (std::find(it->second.begin(), it->second.end(), next_pc) ==
        it->second.end())
      violation(pc, "taken edge to " + hex32(next_pc) +
                        " is not an edge of the reconstructed CFG");
  }

  if (mode_ != MonitorMode::Full || loop_at_.empty()) return;
  const auto it = loop_at_.find(next_pc);
  if (it == loop_at_.end()) return;
  const MonitorLoopRow& row = spec_.loops[it->second];
  if (row.contains(pc)) {
    // A transfer into the header from inside the loop is a back edge.
    if (++back_edges_[it->second] > row.bound)
      violation(pc, "loop headed at " + hex32(row.header_pc) + " exceeded " +
                        std::to_string(row.bound) +
                        " back edge(s) per entry (the bound the WCET path "
                        "analyses consume)");
  } else {
    // Entering from outside starts a fresh per-entry count.
    back_edges_[it->second] = 0;
  }
}

}  // namespace vc::machine
