// RTL -> machine code generation, target-neutral half.
//
// Lowering produces an AsmFunction: machine instructions with symbolic branch
// labels and data relocations still attached, so that the optional machine
// level passes (peephole fusion, list scheduling — the O2-full extras) can
// transform the code before displacements are resolved. `finalize` turns an
// AsmFunction into a linkable MachineFunction.
//
// `emit_function` dispatches to the descriptor's lowering hook
// (src/targets/<name>/lower.cpp). Each hook is a small subclass of the shared
// skeleton `mach::Emitter` (mach/emitter.hpp), which owns the frame, register
// mapping, parameters, stack/global/constant-pool accesses, moves, jumps,
// returns, annotations and the common ALU ops; the subclass supplies only
// compare/branch, wide constants and the absolute hi/lo pair, indexed array
// access, and IRem/IShl/IShr/INeg/INot. An oversized frame or a read
// parameter beyond the argument registers is a CompileError.
#pragma once

#include "mach/program.hpp"
#include "mach/target.hpp"
#include "regalloc/regalloc.hpp"
#include "rtl/rtl.hpp"

namespace vc::mach {

/// One assembly-level operation with link-time attachments.
struct AsmOp {
  MInstr ins;
  int target_label = -1;    // branches: symbolic target (block id)
  std::string reloc_sym;    // non-empty: imm patched with sym+addend at link
  std::int32_t reloc_addend = 0;
  RelocKind reloc_kind = RelocKind::DataDisp;
};

/// Addressing discipline for globals and the constant pool.
/// The default compiler (all three configurations) uses small-data base
/// addressing; the verified configuration does not (paper §3.3: "CompCert's
/// recent support for small data areas was not used in the evaluation, while
/// it is used by the default compiler") and pays an absolute hi/lo pair per
/// access instead.
struct EmitOptions {
  bool small_data_area = true;
};

struct AsmFunction {
  std::string name;
  std::vector<AsmOp> ops;
  std::vector<std::pair<int, std::size_t>> labels;  // label id -> op index
  /// Annotation entries anchored to op indices (the op that follows the
  /// annotation point).
  std::vector<AnnotEntry> annots;
  std::uint32_t frame_bytes = 0;

  [[nodiscard]] std::size_t label_pos(int label) const;
};

/// Emits machine code for an allocated RTL function by dispatching to the
/// target's lowering hook. Constant-pool doubles are registered in `layout`.
AsmFunction emit_function(const rtl::Function& fn,
                          const regalloc::Allocation& alloc,
                          DataLayout& layout, const TargetDesc& desc,
                          const EmitOptions& options = {});

/// Resolves branch displacements and produces a linkable MachineFunction.
MachineFunction finalize(const AsmFunction& asm_fn);

/// Removes self-moves (mr rX,rX / fmr fX,fX). Applied in every configuration
/// (an assembler-level cleanup). Returns number removed.
int remove_self_moves(AsmFunction& fn);

/// O2-full peepholes, gated by the descriptor's rule set: multiply-add
/// fusion, li+cmpw -> cmpwi, li+add -> addi. Returns the number of rewrites.
int peephole(AsmFunction& fn, const TargetDesc& desc);

/// O2-full list scheduler: reorders instructions within branch/label-free
/// regions to hide latencies, using the descriptor's timing model. Returns
/// the number of ops whose position changed.
int schedule(AsmFunction& fn, const TargetDesc& desc);

}  // namespace vc::mach
