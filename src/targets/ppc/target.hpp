// The PPC backend: an MPC755-flavoured dual-issue PowerPC-G3-like target,
// the machine of the source paper's flight-control experiment. This module
// owns every PPC fact — register roles and ABI, the op subset with its
// latencies and units, dual-issue pairing rules, L1 geometry, peephole
// permissions — plus the lowering hooks it plugs into the shared
// mach::Emitter skeleton: compares through the condition register
// (cmpw/fcmpu, cror, bc, mfcr+rlwinm), lis/ori wide constants, lis @ha / @l
// absolute addresses, x-form indexed accesses, and the divw/mullw/subf
// remainder.
#pragma once

#include "mach/codegen.hpp"
#include "mach/target.hpp"

namespace vc::targets {

/// The PPC descriptor (validated once at first use).
const mach::TargetDesc& ppc_target();

/// PPC RTL lowering (the descriptor's `lower` hook).
mach::AsmFunction ppc_lower(const rtl::Function& fn,
                            const regalloc::Allocation& alloc,
                            mach::DataLayout& layout,
                            const mach::TargetDesc& desc,
                            const mach::EmitOptions& options);

}  // namespace vc::targets
