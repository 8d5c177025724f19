// The RV32 backend: a single-issue RV32IMF-flavoured RISC-V target (in-order
// five-stage core with hardware mul/div and double-precision FP). This module
// owns every RISC-V fact — register roles (hardwired x0, sp=x2, gp=x3 as the
// small-data base, s-registers for the allocator, a-registers for arguments),
// the legal op subset with its latencies, the 12-bit immediate discipline
// (lui/addi pairs for wide constants), and the lowering hooks it plugs into
// the shared mach::Emitter skeleton. There is no condition register:
// compares materialize 0/1 via slt/sltu/feq/flt/fle and branches fuse into
// compare-and-branch (beq/bne/blt/bge); absolute addresses are lui %hi / %lo
// pairs and indexed accesses scale with slli and add the base explicitly.
#pragma once

#include "mach/codegen.hpp"
#include "mach/target.hpp"

namespace vc::targets {

/// The RV32 descriptor (validated once at first use).
const mach::TargetDesc& rv32_target();

/// RV32 RTL lowering (the descriptor's `lower` hook).
mach::AsmFunction rv32_lower(const rtl::Function& fn,
                             const regalloc::Allocation& alloc,
                             mach::DataLayout& layout,
                             const mach::TargetDesc& desc,
                             const mach::EmitOptions& options);

}  // namespace vc::targets
