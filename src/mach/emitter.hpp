// The shared RTL -> machine lowering skeleton.
//
// `Emitter` owns everything instruction selection does the same way on every
// target: the frame layout and its size check, allocator colour -> register
// mapping, parameter registers, stack-slot and global accesses (small-data
// d-form off the data base, or the target's absolute hi/lo pair), the
// constant pool, moves, jumps, returns, annotations, and the ALU operations
// every target spells with one universal op. A target's lowering
// (src/targets/<name>/lower.cpp) subclasses it, passes its `HiLoPair`, and
// overrides only the hooks below, where the ISAs genuinely differ. Hooks
// append through the push helpers; the skeleton emits the fall-through jump
// after each conditional-branch hook.
#pragma once

#include <cstdint>
#include <string>

#include "mach/codegen.hpp"

namespace vc::mach {

/// A target's absolute-address idiom: the op that loads the high part
/// (its immediate patched by the `hi` relocation) and the relocation that
/// patches the low part into the following addi or d-form displacement.
struct HiLoPair {
  MOp hi_op;
  RelocKind hi;
  RelocKind lo;
};

class Emitter {
 public:
  Emitter(const rtl::Function& fn, const regalloc::Allocation& alloc,
          DataLayout& layout, const TargetDesc& desc,
          const EmitOptions& options, HiLoPair abs);
  Emitter(const Emitter&) = delete;
  Emitter& operator=(const Emitter&) = delete;
  virtual ~Emitter() = default;

  /// Lowers the whole function. Throws CompileError when the frame does not
  /// fit the target's short immediates or a used parameter has no argument
  /// register left.
  AsmFunction run();

 protected:
  // --- target hooks ---------------------------------------------------------

  /// rd <- value, where value lies outside [imm_min, imm_max].
  virtual void load_wide_imm(int rd, std::int32_t value) = 0;
  /// rd <- (a op b) ? 1 : 0 for a comparison `op`.
  virtual void compare_into(minic::BinOp op, rtl::VReg a, rtl::VReg b,
                            int rd) = 0;
  /// Branches to `label` when the GPR vreg `cond` is nonzero.
  virtual void branch_nonzero(rtl::VReg cond, int label) = 0;
  /// Branches to `label` when the comparison `a op b` holds.
  virtual void branch_compare(minic::BinOp op, rtl::VReg a, rtl::VReg b,
                              int label) = 0;
  /// The access `dform value_reg, sym[index_reg]` with elements of `esz`
  /// bytes; `dform` is the d-form load/store the access would use at a
  /// constant offset.
  virtual void indexed_access(MOp dform, int value_reg, int index_reg,
                              std::uint32_t esz, const std::string& sym) = 0;
  /// rd <- a op b for op in {IRem, IShl, IShr}.
  virtual void int_binary(minic::BinOp op, int rd, int a, int b) = 0;
  /// rd <- op a for op in {INeg, INot}.
  virtual void int_unary(minic::UnOp op, int rd, int a) = 0;

  // --- helpers for the hooks ------------------------------------------------

  /// The machine register allocated to `v`, which must be of class `cls`.
  [[nodiscard]] int reg_of(rtl::VReg v, rtl::RegClass cls) const;
  [[nodiscard]] int gpr_of(rtl::VReg v) const {
    return reg_of(v, rtl::RegClass::I32);
  }
  [[nodiscard]] int fpr_of(rtl::VReg v) const {
    return reg_of(v, rtl::RegClass::F64);
  }

  static MInstr make_regimm(MOp op, int rd, int ra, std::int32_t imm);
  static MInstr make_reg3(MOp op, int rd, int ra, int rb);

  void push(MInstr ins);
  void push_reloc(MInstr ins, const std::string& sym, std::int32_t addend,
                  RelocKind kind = RelocKind::DataDisp);
  void push_branch(MInstr ins, int label);

  /// reg <- address of sym+addend.
  void load_global_address(int reg, const std::string& sym,
                           std::int32_t addend);

  const TargetDesc& desc_;
  const EmitOptions options_;

 private:
  [[nodiscard]] std::int32_t slot_offset(rtl::Slot s) const;
  [[nodiscard]] int param_reg(int index) const;
  void move(rtl::RegClass cls, int rd, int rs);
  void load_imm(int rd, std::int32_t value);
  void access_global(MOp dform, int value_reg, const std::string& sym,
                     std::int32_t addend);
  void jump(int label);

  void emit(const rtl::Instr& ins);
  void emit_unary(const rtl::Instr& ins);
  void emit_binary(const rtl::Instr& ins);

  const rtl::Function& fn_;
  const regalloc::Allocation& alloc_;
  DataLayout& layout_;
  const HiLoPair abs_;
  AsmFunction out_;
};

}  // namespace vc::mach
