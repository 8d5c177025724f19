// The target descriptor: every machine fact the shared compiler, simulator,
// validator, and WCET layers need, packed into one value. The layers in
// src/mach, src/regalloc, src/validate, src/machine and src/wcet are
// target-neutral — they switch over the universal MOp enum and read register
// roles, op legality/latency tables, issue rules, cache geometry and
// peephole permissions from a TargetDesc. The concrete descriptors live in
// src/targets/<name>, together with their `lower` entry point: a subclass of
// the shared lowering skeleton mach::Emitter (mach/emitter.hpp) that fills
// in the ISA-specific hooks. The registry that maps `--target` names to
// descriptors is linked from there, so this layer never names a target.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mach/isa.hpp"
#include "mach/timing.hpp"

namespace vc::rtl {
struct Function;
}
namespace vc::regalloc {
struct Allocation;
}

namespace vc::mach {

struct AsmFunction;
class DataLayout;
struct EmitOptions;
struct TargetDesc;

/// Per-target RTL lowering entry point (defined in src/targets/<name>).
using LowerFn = AsmFunction (*)(const rtl::Function& fn,
                                const regalloc::Allocation& alloc,
                                DataLayout& layout, const TargetDesc& desc,
                                const EmitOptions& options);

/// Static facts about one universal op on a given target.
struct OpInfo {
  bool legal = false;        // may this target's code contain the op?
  Unit unit = Unit::IU;      // execution unit
  std::uint8_t latency = 1;  // result latency in cycles (memory: L1 hit)
  bool complex = false;      // cannot pair as the second op of its unit
  bool blocking = false;     // occupies its unit until the result is ready
};

/// Which machine-level peepholes the O2-full configuration may apply.
struct PeepholeRules {
  bool fuse_multiply_add = false;  // fmul+fadd/fsub -> fmadd/fmsub
  bool fold_cmp_imm = false;       // li+cmpw -> cmpwi (needs a CR file)
  bool fold_add_imm = false;       // li+add -> addi (within the imm range)
};

struct TargetDesc {
  std::string name;

  // --- Register roles (universal resource indices: GPR r, FPR 32+r) -------
  int zero_gpr = -1;  // hardwired-zero GPR, or -1 if the target has none
  int stack_ptr = 0;
  int data_base = 0;  // small-data base register
  int scratch_gpr0 = 0, scratch_gpr1 = 0;  // emission scratch, never allocated
  int scratch_fpr0 = 0, scratch_fpr1 = 0;
  std::vector<int> alloc_gprs;  // physical GPR per allocator color
  std::vector<int> alloc_fprs;  // physical FPR per allocator color
  int first_arg_gpr = 0;
  int n_arg_gprs = 0;
  int first_arg_fpr = 0;
  int n_arg_fprs = 0;
  int ret_gpr = 0;
  int ret_fpr = 0;
  bool has_cr = false;  // condition-register file (cmpw/bc route) present?

  // --- Op table and issue rules -------------------------------------------
  std::array<OpInfo, kNumOps> ops{};
  int issue_width = 1;
  bool iu_pairing = false;  // may a second *simple* IU op share the cycle?

  /// Immediate range of the short-immediate forms (li/addi and the d-form
  /// displacement). Codegen splits larger constants; the add-fold peephole
  /// refuses immediates outside this range.
  std::int32_t imm_min = 0;
  std::int32_t imm_max = 0;

  // --- Memory hierarchy and branch timing ---------------------------------
  MachineConfig machine;

  PeepholeRules peephole;

  LowerFn lower = nullptr;

  [[nodiscard]] const OpInfo& op(MOp o) const {
    return ops[static_cast<std::size_t>(o)];
  }
  [[nodiscard]] Unit unit(MOp o) const { return op(o).unit; }
  [[nodiscard]] std::uint32_t latency(MOp o) const { return op(o).latency; }
  [[nodiscard]] bool is_complex(MOp o) const { return op(o).complex; }
  [[nodiscard]] bool is_blocking(MOp o) const { return op(o).blocking; }
  [[nodiscard]] bool is_legal(MOp o) const { return op(o).legal; }
  [[nodiscard]] int n_int_colors() const {
    return static_cast<int>(alloc_gprs.size());
  }
  [[nodiscard]] int n_float_colors() const {
    return static_cast<int>(alloc_fprs.size());
  }
};

/// Checks a descriptor for internal consistency: register roles in range and
/// distinct from allocatable registers, issue width within the model's
/// limits, cache geometry power-of-two, CR-dependent peepholes and ops only
/// with a CR file, and a nonzero latency for every legal op. Throws
/// InternalError naming the offending field.
void validate_target(const TargetDesc& desc);

/// Registry lookup (linked from src/targets). Throws CompileError listing
/// the known names if `name` is unknown.
const TargetDesc& target_by_name(const std::string& name);

/// The registered target names, in registration order.
std::vector<std::string> target_names();

/// The first registered target's name — the default when no --target is
/// given and for images that predate self-describing target tags.
const std::string& default_target_name();

}  // namespace vc::mach
