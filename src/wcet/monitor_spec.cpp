#include "wcet/monitor_spec.hpp"

#include "mach/isa.hpp"
#include "support/diagnostics.hpp"

namespace vc::wcet {

FlowDepth monitor_depth(machine::MonitorMode mode) {
  switch (mode) {
    case machine::MonitorMode::Off:
      return FlowDepth::None;
    case machine::MonitorMode::Cfg:
      return FlowDepth::Cfg;
    case machine::MonitorMode::Full:
      return FlowDepth::Reducible;
  }
  return FlowDepth::Reducible;
}

machine::MonitorSpec build_monitor_spec(const mach::Image& image,
                                        const FlowFacts& facts,
                                        machine::MonitorMode mode) {
  check(facts.depth >= monitor_depth(mode),
        "build_monitor_spec: flow facts not computed to the mode's depth");
  machine::MonitorSpec spec;
  spec.function = facts.function;
  if (mode == machine::MonitorMode::Off) return spec;
  spec.lo = facts.lo;
  spec.hi = facts.hi;
  const Cfg& cfg = facts.cfg;

  // Legal transfers per branch instruction. A blr leaves the harness frame
  // (the simulator jumps to the stop address); every other branch must land
  // on one of its block's CFG successors. Branches the reconstruction
  // somehow left mid-block get no entry — the monitor then flags them at
  // runtime, which is exactly the kind of reconstruction bug it exists for.
  for (const MachineBlock& block : cfg.blocks) {
    for (std::size_t i = 0; i < block.instrs.size(); ++i) {
      if (!mach::is_branch(block.instrs[i].op)) continue;
      const std::uint32_t pc =
          block.start + static_cast<std::uint32_t>(i) * 4;
      if (block.instrs[i].op == mach::MOp::Blr)
        spec.branch_targets[pc] = {mach::Image::kStopAddr};
      else if (i + 1 == block.instrs.size())
        spec.branch_targets[pc] = block.succ_addrs;
    }
  }

  if (mode != machine::MonitorMode::Full) return spec;

  // Value claims: the raw annotation table, independently re-parsed by the
  // spec itself (MonitorSpec::add_annotation shares nothing with the
  // analyzer's chain parser).
  for (const mach::AnnotEntry& entry : image.annotations)
    if (entry.addr >= spec.lo && entry.addr < spec.hi)
      spec.add_annotation(entry);

  // Loop-bound rows: what the path analyses consume (annotation bounds
  // refined by automatic derivation), one row per natural loop, with the
  // loop body as address ranges so the monitor can classify back edges.
  for (std::size_t l = 0; l < facts.loops.size(); ++l) {
    machine::MonitorLoopRow row;
    row.header_pc = facts.loops[l].header_addr;
    row.bound = facts.loops[l].bound;
    for (const int b : cfg.loops[l].blocks) {
      const MachineBlock& block = cfg.blocks[static_cast<std::size_t>(b)];
      row.body.emplace_back(block.start, block.end());
    }
    spec.loops.push_back(std::move(row));
  }
  return spec;
}

machine::MonitorSpec build_monitor_spec(const mach::Image& image,
                                        const std::string& fn_name,
                                        machine::MonitorMode mode,
                                        const WcetOptions& options) {
  return build_monitor_spec(
      image,
      flow_facts(image, fn_name, monitor_depth(mode), options.use_annotations),
      mode);
}

}  // namespace vc::wcet
