#include "driver/compiler.hpp"

#include <algorithm>

#include "mach/target.hpp"
#include "rtl/lower.hpp"
#include "support/diagnostics.hpp"

namespace vc::driver {

std::string to_string(Config c) {
  for (const ConfigName& n : kConfigNames)
    if (n.config == c) return n.full;
  throw InternalError("bad Config");
}

std::optional<Config> parse_config(const std::string& name) {
  for (const ConfigName& n : kConfigNames)
    if (name == n.cli || name == n.full) return n.config;
  return std::nullopt;
}

std::string to_string(ValidateLevel level) {
  return kValidateLevelNames[static_cast<int>(level)];
}

std::vector<std::string> pipeline_names(Config config) {
  switch (config) {
    case Config::O0Pattern:
      return {"lower", "regalloc", "emit", "selfmove"};
    case Config::O1NoRegalloc:
      // No memory passes: the paper's "optimized without register
      // allocation" arm keeps the pattern code's per-symbol memory
      // discipline (§3.3), which forwarding/dead-store would break up.
      return {"lower", "constprop", "cse", "dce", "tunnel",
              "regalloc", "emit", "selfmove"};
    case Config::Verified:
      return {"lower", "constprop", "cse", "forward", "dce", "deadstore",
              "tunnel", "regalloc", "emit", "selfmove"};
    case Config::O2Full:
      return {"lower", "constprop", "cse", "forward", "dce", "deadstore",
              "tunnel", "regalloc", "emit", "selfmove", "peephole",
              "schedule"};
  }
  throw InternalError("bad Config");
}

std::vector<std::string> resolve_pipeline(Config config,
                                          const CompileOptions& options) {
  const pass::Registry registry = pass::Registry::builtin();
  auto selectable_steps = [&] {
    std::string out;
    for (const std::string& n : registry.names()) {
      if (registry.find(n)->structural) continue;
      if (!out.empty()) out += ", ";
      out += n;
    }
    return out;
  };
  auto optional_step = [&](const std::string& name) -> const pass::StepDef& {
    const pass::StepDef* def = registry.find(name);
    if (def == nullptr)
      throw CompileError("unknown pass '" + name +
                         "'; registered steps: " + selectable_steps());
    if (def->structural)
      throw CompileError("pass '" + name +
                         "' is structural and cannot be selected or disabled");
    return *def;
  };

  std::vector<std::string> names;
  if (!options.passes.empty()) {
    std::vector<std::string> rtl_opts;
    std::vector<std::string> machine_opts;
    for (const std::string& name : options.passes) {
      const pass::StepDef& def = optional_step(name);
      (def.level == pass::Level::Rtl ? rtl_opts : machine_opts)
          .push_back(name);
    }
    names.push_back("lower");
    names.insert(names.end(), rtl_opts.begin(), rtl_opts.end());
    names.push_back("regalloc");
    names.push_back("emit");
    names.insert(names.end(), machine_opts.begin(), machine_opts.end());
  } else {
    names = pipeline_names(config);
    if (options.ssa &&
        (config == Config::Verified || config == Config::O2Full)) {
      // The SSA bracket after the scalar round group, plus a second scalar
      // cleanup round over the out-of-SSA copies it leaves behind.
      const std::vector<std::string> ssa_group = {
          "ssa-build", "ssa-gvn",    "ssa-licm", "ssa-unroll", "ssa-rotate",
          "ssa-out",   "constprop",  "cse",      "forward",    "dce",
          "deadstore", "tunnel"};
      const auto at = std::find(names.begin(), names.end(), "regalloc");
      names.insert(at, ssa_group.begin(), ssa_group.end());
    }
  }
  for (const std::string& name : options.disable_passes) {
    optional_step(name);  // known and non-structural, or CompileError
    names.erase(std::remove(names.begin(), names.end(), name), names.end());
  }
  // SSA bracket structure: the SSA optimizations only run between ssa-build
  // and ssa-out, nothing else runs inside the bracket, and an opened
  // bracket must close (regalloc and emission never see phis).
  bool in_ssa = false;
  for (const std::string& name : names) {
    const bool is_ssa = name.rfind("ssa-", 0) == 0;
    if (name == "ssa-build") {
      if (in_ssa) throw CompileError("nested ssa-build in pipeline");
      in_ssa = true;
    } else if (name == "ssa-out") {
      if (!in_ssa) throw CompileError("ssa-out without a preceding ssa-build");
      in_ssa = false;
    } else if (is_ssa && !in_ssa) {
      throw CompileError("pass '" + name +
                         "' requires the SSA bracket (ssa-build .. ssa-out)");
    } else if (!is_ssa && in_ssa) {
      throw CompileError("pass '" + name +
                         "' cannot run inside the SSA bracket");
    }
  }
  if (in_ssa) throw CompileError("ssa-build without a matching ssa-out");
  return names;
}

Compiled compile_program(const minic::Program& program, Config config,
                         const CompileOptions& options) {
  Compiled out;
  out.config = config;

  const bool pattern_mode =
      config == Config::O0Pattern || config == Config::O1NoRegalloc;
  const pass::Registry registry = pass::Registry::builtin();
  const std::vector<std::string> names = resolve_pipeline(config, options);
  const mach::TargetDesc& target = mach::target_by_name(options.target);

  mach::DataLayout layout(program);
  std::vector<mach::MachineFunction> machine_fns;

  for (const auto& src_fn : program.functions) {
    FunctionArtifact art;

    pass::FunctionState state;
    state.program = &program;
    state.source = &src_fn;
    state.layout = &layout;
    state.lower_mode = pattern_mode ? rtl::LowerMode::PatternStack
                                    : rtl::LowerMode::Value;
    // The default compiler uses r2-based small-data addressing in every
    // configuration; the verified compiler does not (paper §3.3).
    state.small_data_area = config != Config::Verified;
    // O2-full allocates scheduling-aware (spread colors so the list
    // scheduler is not fenced in by recycled registers).
    state.spread_colors = config == Config::O2Full;
    state.target = &target;

    pass::ManagerOptions manager_options;
    manager_options.stats = options.stats;
    manager_options.dump_after = options.dump_after;
    manager_options.dump = options.dump;
    // Before-IR snapshots cost a function copy per applied pass; take them
    // only when a checker is attached. The artifact capture below gets its
    // one pre-regalloc snapshot from FunctionState::rtl_pre_regalloc.
    manager_options.snapshots = static_cast<bool>(options.hook);
    manager_options.hook = [&](const pass::StepTrace& trace) {
      if (trace.pass == "lower") {
        art.rtl_lowered = trace.state->rtl;
      } else if (trace.pass == "regalloc") {
        art.rtl_optimized = trace.state->rtl_pre_regalloc;
        art.rtl_allocated = trace.state->rtl;
        art.spill_count = trace.state->alloc.spill_count;
      } else if (trace.level == pass::Level::Rtl) {
        art.passes_applied.push_back(trace.pass);
      }
      return options.hook ? options.hook(trace) : 0;
    };

    const pass::PassManager manager(registry, names,
                                    std::move(manager_options));
    manager.run(state);

    machine_fns.push_back(mach::finalize(state.machine));
    out.artifacts.emplace(src_fn.name, std::move(art));
  }

  out.image = mach::link(machine_fns, layout);
  out.image.target = target.name;
  return out;
}

}  // namespace vc::driver
