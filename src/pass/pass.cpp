#include "pass/pass.hpp"

#include <algorithm>
#include <chrono>

#include "opt/opt.hpp"
#include "rtl/analysis.hpp"
#include "ssa/ssa.hpp"
#include "support/diagnostics.hpp"

namespace vc::pass {

namespace {

using Clock = std::chrono::steady_clock;

/// Bound on the RTL round-group iteration; a group also stops earlier on
/// convergence or a repeated round.
constexpr int kRtlRounds = 4;

std::int64_t ir_size(const FunctionState& state, Level level) {
  if (level == Level::Rtl)
    return static_cast<std::int64_t>(state.rtl.instruction_count());
  return static_cast<std::int64_t>(state.machine.ops.size());
}

/// An RTL optimization step: a bool-returning rewrite joined into the
/// bounded round group (rewrite counts are 0/1 per execution).
StepDef rtl_opt_step(const char* name, bool (*fn)(rtl::Function&)) {
  StepDef d;
  d.name = name;
  d.level = Level::Rtl;
  d.fixpoint = true;
  d.run = [fn](FunctionState& s) { return fn(s.rtl) ? 1 : 0; };
  return d;
}

/// An SSA-bracket step: runs exactly once at its pipeline position (no round
/// group — the bracket order ssa-build .. ssa-out is semantic), and the IR
/// is re-validated right after it (PassManager::run).
StepDef ssa_step(const char* name, bool (*fn)(rtl::Function&)) {
  StepDef d;
  d.name = name;
  d.level = Level::Rtl;
  d.fixpoint = false;
  d.run = [fn](FunctionState& s) { return fn(s.rtl) ? 1 : 0; };
  return d;
}

}  // namespace

std::string to_string(Level level) {
  return level == Level::Rtl ? "rtl" : "machine";
}

PassStat& PipelineStats::at(const std::string& name) {
  for (PassStat& p : passes)
    if (p.name == name) return p;
  passes.push_back(PassStat{name, 0.0, 0, 0, 0, 0, 0});
  return passes.back();
}

const PassStat* PipelineStats::find(const std::string& name) const {
  for (const PassStat& p : passes)
    if (p.name == name) return &p;
  return nullptr;
}

PipelineStats& PipelineStats::operator+=(const PipelineStats& o) {
  for (const PassStat& p : o.passes) {
    PassStat& mine = at(p.name);
    mine.seconds += p.seconds;
    mine.runs += p.runs;
    mine.applied += p.applied;
    mine.rewrites += p.rewrites;
    mine.ir_delta += p.ir_delta;
    mine.checks += p.checks;
  }
  return *this;
}

double PipelineStats::total_seconds() const {
  double total = 0.0;
  for (const PassStat& p : passes) total += p.seconds;
  return total;
}

Registry Registry::builtin() {
  Registry r;

  StepDef lower;
  lower.name = "lower";
  lower.level = Level::Rtl;
  lower.structural = true;
  lower.run = [](FunctionState& s) {
    s.rtl = rtl::lower_function(*s.program, *s.source, s.lower_mode);
    rtl::remove_unreachable_blocks(s.rtl);
    return 0;
  };
  r.add(std::move(lower));

  r.add(rtl_opt_step("constprop", opt::constant_propagation));
  r.add(rtl_opt_step("cse", opt::common_subexpression_elimination));
  r.add(rtl_opt_step("forward", opt::memory_forwarding));
  r.add(rtl_opt_step("dce", opt::dead_code_elimination));
  r.add(rtl_opt_step("deadstore", opt::dead_store_elimination));
  r.add(rtl_opt_step("tunnel", opt::branch_tunneling));

  // The SSA bracket (src/ssa): construction, the loop optimizations, and
  // out-of-SSA lowering. Selected by CompileOptions::ssa or an explicit
  // --passes list; resolve_pipeline enforces the bracket structure.
  r.add(ssa_step("ssa-build", ssa::build_ssa));
  r.add(ssa_step("ssa-gvn", ssa::global_value_numbering));
  r.add(ssa_step("ssa-licm", ssa::loop_invariant_code_motion));
  StepDef unroll;
  unroll.name = "ssa-unroll";
  unroll.level = Level::Rtl;
  unroll.run = [](FunctionState& s) {
    s.unroll_cert = {};
    return ssa::loop_unrolling(s.rtl, &s.unroll_cert) ? 1 : 0;
  };
  r.add(std::move(unroll));
  r.add(ssa_step("ssa-rotate", ssa::loop_rotation));
  r.add(ssa_step("ssa-out", ssa::destroy_ssa));

  StepDef regalloc;
  regalloc.name = "regalloc";
  regalloc.level = Level::Rtl;
  regalloc.structural = true;
  regalloc.run = [](FunctionState& s) {
    s.rtl_pre_regalloc = s.rtl;
    check(s.target != nullptr, "no target descriptor in pipeline state");
    // Resolve the class sizes against the target so downstream consumers
    // (the register-allocation checker) see the actual bounds used.
    if (s.k_int <= 0) s.k_int = s.target->n_int_colors();
    if (s.k_float <= 0) s.k_float = s.target->n_float_colors();
    s.alloc = regalloc::allocate_registers(s.rtl, s.k_int, s.k_float,
                                           s.spread_colors);
    return s.alloc.spill_count;
  };
  r.add(std::move(regalloc));

  StepDef emit;
  emit.name = "emit";
  emit.level = Level::Machine;
  emit.structural = true;
  emit.run = [](FunctionState& s) {
    mach::EmitOptions options;
    options.small_data_area = s.small_data_area;
    check(s.target != nullptr, "no target descriptor in pipeline state");
    s.machine =
        mach::emit_function(s.rtl, s.alloc, *s.layout, *s.target, options);
    s.emitted = true;
    return 0;
  };
  r.add(std::move(emit));

  StepDef selfmove;
  selfmove.name = "selfmove";
  selfmove.level = Level::Machine;
  selfmove.run = [](FunctionState& s) {
    return mach::remove_self_moves(s.machine);
  };
  r.add(std::move(selfmove));

  StepDef peephole;
  peephole.name = "peephole";
  peephole.level = Level::Machine;
  peephole.fixpoint = true;
  peephole.run = [](FunctionState& s) {
    return mach::peephole(s.machine, *s.target);
  };
  r.add(std::move(peephole));

  StepDef schedule;
  schedule.name = "schedule";
  schedule.level = Level::Machine;
  schedule.run = [](FunctionState& s) {
    return mach::schedule(s.machine, *s.target);
  };
  r.add(std::move(schedule));

  return r;
}

void Registry::add(StepDef def) {
  for (StepDef& d : defs_)
    if (d.name == def.name) {
      d = std::move(def);
      return;
    }
  defs_.push_back(std::move(def));
}

const StepDef* Registry::find(const std::string& name) const {
  for (const StepDef& d : defs_)
    if (d.name == name) return &d;
  return nullptr;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(defs_.size());
  for (const StepDef& d : defs_) out.push_back(d.name);
  return out;
}

PassManager::PassManager(const Registry& registry,
                         const std::vector<std::string>& names,
                         ManagerOptions options)
    : names_(names), options_(std::move(options)) {
  steps_.reserve(names_.size());
  for (const std::string& name : names_) {
    const StepDef* def = registry.find(name);
    if (def == nullptr) throw CompileError("unknown pass '" + name + "'");
    steps_.push_back(*def);
  }
}

void PassManager::run(FunctionState& state) const {
  std::size_t i = 0;
  while (i < steps_.size()) {
    const StepDef& def = steps_[i];
    if (def.level == Level::Rtl && def.fixpoint && !def.structural) {
      // A maximal run of RTL fixpoint steps is iterated as one round group:
      // constant propagation exposes CSE opportunities, forwarding turns
      // loads into moves that CSE and DCE collapse, and dead stores surface
      // once reloads are gone.
      std::size_t j = i;
      while (j < steps_.size() && steps_[j].level == Level::Rtl &&
             steps_[j].fixpoint && !steps_[j].structural)
        ++j;
      // The steps are deterministic, so every round after one that ends
      // where it started would replay it: stop there, with the cap's output.
      rtl::Function round_input;
      for (int round = 0; round < kRtlRounds; ++round) {
        round_input = state.rtl;
        bool changed = false;
        for (std::size_t s = i; s < j; ++s)
          changed |= execute(state, steps_[s]) > 0;
        if (!changed || rtl::identical(state.rtl, round_input)) break;
      }
      state.rtl.validate();
      i = j;
    } else {
      run_step(state, def);
      // Run-once RTL rewrites (the SSA bracket) are re-validated
      // immediately: each changes the IR shape substantially and the next
      // step depends on its invariants.
      if (def.level == Level::Rtl && !def.structural && !def.fixpoint)
        state.rtl.validate();
      ++i;
    }
  }
}

void PassManager::run_step(FunctionState& state, const StepDef& def) const {
  execute(state, def);
}

int PassManager::execute(FunctionState& state, const StepDef& def) const {
  rtl::Function rtl_before;
  mach::AsmFunction machine_before;
  const bool snapshot = options_.hook && options_.snapshots;
  if (snapshot) {
    if (def.level == Level::Rtl)
      rtl_before = state.rtl;
    else
      machine_before = state.machine;
  }

  const std::int64_t size_before = ir_size(state, def.level);
  const auto t0 = Clock::now();
  int rewrites = 0;
  if (def.level == Level::Machine && def.fixpoint) {
    for (int iter = 0;; ++iter) {
      if (iter >= options_.machine_fixpoint_cap)
        throw InternalError(
            def.name + " fixpoint did not converge after " +
            std::to_string(options_.machine_fixpoint_cap) +
            " iterations in function '" + state.name() + "'");
      const int n = def.run(state);
      if (n == 0) break;
      rewrites += n;
    }
  } else {
    rewrites = def.run(state);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  const bool applied = rewrites > 0 || def.structural;
  std::uint64_t checks = 0;
  if (applied) {
    if (options_.hook) {
      StepTrace trace;
      trace.pass = def.name;
      trace.level = def.level;
      trace.state = &state;
      trace.rewrites = rewrites;
      if (snapshot) {
        if (def.level == Level::Rtl)
          trace.rtl_before = &rtl_before;
        else
          trace.machine_before = &machine_before;
      }
      checks = static_cast<std::uint64_t>(std::max(0, options_.hook(trace)));
    }
    if (options_.dump && def.name == options_.dump_after)
      options_.dump(def.name, state);
  }

  if (options_.stats != nullptr) {
    PassStat& stat = options_.stats->at(def.name);
    stat.seconds += seconds;
    ++stat.runs;
    if (applied) ++stat.applied;
    stat.rewrites += rewrites;
    stat.ir_delta += ir_size(state, def.level) - size_before;
    stat.checks += checks;
  }
  return rewrites;
}

}  // namespace vc::pass
