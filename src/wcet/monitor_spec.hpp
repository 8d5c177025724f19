// Builds a machine::MonitorSpec — the fact base the runtime execution
// monitor holds a simulation to — from the flow facts of one function
// (wcet.hpp): the reconstructed CFG (legal control transfers), the image's
// raw annotation table (live-value interval claims), and, in Full mode, the
// facts' loop bounds — the same per-job object both path engines consume,
// computed once per job.
//
// This is deliberately the *only* coupling point between the monitor and the
// analyzer: the facts come from here (they are what is being checked), the
// checking machinery lives entirely in src/machine/monitor.*.
#pragma once

#include <string>

#include "machine/monitor.hpp"
#include "mach/program.hpp"
#include "wcet/wcet.hpp"

namespace vc::wcet {

/// The flow-fact depth a spec of `mode` needs: none for Off, the CFG for
/// Cfg, and for Full the loop bounds plus the reducibility check, so an
/// unbounded loop or irreducible flow fails the job before execution.
FlowDepth monitor_depth(machine::MonitorMode mode);

/// Builds the monitor fact base from `facts` (computed from `image` to at
/// least monitor_depth(mode)); runs no analysis of its own:
///   - Cfg and Full: the legal transfer targets of every branch instruction,
///     straight from the reconstructed CFG's successor lists (blr maps to
///     the stop address);
///   - Full only: value checks from the image's annotation entries inside
///     the function, and one loop-bound row per natural loop from the
///     facts' loop bounds (exactly the rows both path engines consume).
machine::MonitorSpec build_monitor_spec(const mach::Image& image,
                                        const FlowFacts& facts,
                                        machine::MonitorMode mode);

/// Computes the flow facts of `fn_name` to monitor_depth(mode), under
/// `options.use_annotations` (its other fields are ignored), and builds the
/// spec from them. Throws like deepen_flow_facts.
machine::MonitorSpec build_monitor_spec(const mach::Image& image,
                                        const std::string& fn_name,
                                        machine::MonitorMode mode,
                                        const WcetOptions& options = {});

}  // namespace vc::wcet
