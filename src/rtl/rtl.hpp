// RTL: the register-transfer intermediate representation of the compiler.
//
// RTL is a CFG of basic blocks over an unbounded set of typed virtual
// registers, mirroring CompCert's RTL (paper §3.2). Program variables are
// represented in one of two styles, which is exactly the axis the paper's
// experiment varies:
//
//   * pattern/stack mode (O0, O1-noregalloc): every mini-C local/parameter
//     lives in a dedicated stack slot; each statement loads its operands and
//     stores its result (the fixed per-symbol patterns of paper §2.1).
//   * value mode (verified, O2-full): locals are virtual registers; the
//     register allocator decides placement (what CompCert does, §3.3).
//
// Comparisons that feed control flow are kept as fused BranchCmp terminators;
// materialized comparisons (Bin with a compare op) lower to mfcr/rlwinm
// sequences in the backend.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "minic/ast.hpp"

namespace vc::rtl {

/// Register classes match the two machine register files.
enum class RegClass { I32, F64 };

std::string to_string(RegClass c);
RegClass reg_class_of(minic::Type t);

/// A virtual register id (index into Function::vregs).
using VReg = std::uint32_t;
constexpr VReg kNoVReg = 0xFFFFFFFF;

/// A stack slot id (index into Function::slots). Slots are 8 bytes each.
using Slot = std::uint32_t;

/// A basic block id (index into Function::blocks).
using BlockId = std::uint32_t;

enum class Opcode {
  LdI,             // dst <- int immediate
  LdF,             // dst <- f64 immediate (becomes a constant-pool load)
  Mov,             // dst <- src                       (same class)
  Un,              // dst <- un_op(src)
  Bin,             // dst <- bin_op(src1, src2)
  LoadGlobal,      // dst <- global[sym][elem]         (constant element)
  StoreGlobal,     // global[sym][elem] <- src
  LoadGlobalIdx,   // dst <- global[sym][idx_reg]
  StoreGlobalIdx,  // global[sym][idx_reg] <- src
  LoadStack,       // dst <- stack[slot]
  StoreStack,      // stack[slot] <- src
  GetParam,        // dst <- incoming parameter #index
  Jump,            // goto target
  Branch,          // if (src != 0) goto target else goto target2
  BranchCmp,       // if (src1 <op> src2) goto target else goto target2
  Ret,             // return src (optional)
  Annot,           // pro-forma annotation effect (paper §3.4)
  Phi,             // dst <- phi [pred: src, ...]     (SSA form only)
};

std::string to_string(Opcode op);

/// One incoming edge of a phi: the value `src` flows into the phi's dst when
/// control enters the block from predecessor `pred`. Args are kept sorted by
/// `pred` so the textual dump is deterministic and round-trip stable.
struct PhiArg {
  BlockId pred = 0;
  VReg src = kNoVReg;
};

/// An annotation operand: a value location referenced by an `__annot`
/// pro-forma effect. It is either a virtual register or a stack slot, so that
/// annotations never force loads into the generated code (paper §3.4: the %i
/// tokens resolve to "machine register, stack slot or global symbol").
struct AnnotOperand {
  bool is_slot = false;
  VReg vreg = kNoVReg;
  Slot slot = 0;

  static AnnotOperand of_vreg(VReg v) { return {false, v, 0}; }
  static AnnotOperand of_slot(Slot s) { return {true, kNoVReg, s}; }
};

struct Instr {
  Opcode op{};
  VReg dst = kNoVReg;
  VReg src1 = kNoVReg;
  VReg src2 = kNoVReg;
  std::int32_t int_imm = 0;
  double f64_imm = 0.0;
  minic::UnOp un_op{};
  minic::BinOp bin_op{};
  std::string sym;          // global symbol name
  std::int32_t elem = 0;    // element index for LoadGlobal/StoreGlobal
  Slot slot = 0;            // LoadStack/StoreStack
  std::int32_t param_index = 0;
  BlockId target = 0;       // Jump/Branch/BranchCmp: taken successor
  BlockId target2 = 0;      // Branch/BranchCmp: fallthrough successor
  std::string annot_format;
  std::vector<AnnotOperand> annot_args;
  std::vector<PhiArg> phi_args;  // Phi only; sorted by pred block id

  [[nodiscard]] bool is_terminator() const {
    return op == Opcode::Jump || op == Opcode::Branch ||
           op == Opcode::BranchCmp || op == Opcode::Ret;
  }

  /// Virtual register written, if any. (The registers read are walked by
  /// for_each_use below.)
  [[nodiscard]] std::optional<VReg> def() const;

  /// True for pure value-producing instructions (candidates for CSE/DCE).
  [[nodiscard]] bool is_pure() const;
};

/// Calls `f` on every virtual register `ins` reads, in operand order (a
/// store's value before its index; annot and phi args included). Given a
/// mutable `ins`, `f` may take `VReg&` and rewrite the operand in place.
/// Nothing is allocated: this is the one operand walk that liveness, the
/// validators, the allocator and the SSA passes share.
template <class InstrT, class F>
  requires std::is_same_v<std::remove_const_t<InstrT>, Instr>
void for_each_use(InstrT& ins, F&& f) {
  switch (ins.op) {
    case Opcode::Mov:
    case Opcode::Un:
    case Opcode::Branch:
    case Opcode::LoadGlobalIdx:  // index
    case Opcode::StoreGlobal:    // value
    case Opcode::StoreStack:     // value
      f(ins.src1);
      break;
    case Opcode::Bin:
    case Opcode::BranchCmp:
    case Opcode::StoreGlobalIdx:  // value, then index
      f(ins.src1);
      f(ins.src2);
      break;
    case Opcode::Ret:
      if (ins.src1 != kNoVReg) f(ins.src1);
      break;
    case Opcode::Annot:
      for (auto& a : ins.annot_args)
        if (!a.is_slot) f(a.vreg);
      break;
    case Opcode::Phi:
      for (auto& a : ins.phi_args) f(a.src);
      break;
    case Opcode::LdI:
    case Opcode::LdF:
    case Opcode::LoadGlobal:
    case Opcode::LoadStack:
    case Opcode::GetParam:
    case Opcode::Jump:
      break;
  }
}

/// True if `pred` holds for some register `ins` reads (`pred` is not called
/// again after the first hit).
template <class P>
bool any_use(const Instr& ins, P&& pred) {
  bool hit = false;
  for_each_use(ins, [&](VReg u) { hit = hit || pred(u); });
  return hit;
}

/// A block's successor ids in (taken, fallthrough) order. A terminator has
/// at most two, so they are held inline and a CFG walk allocates nothing.
class Successors {
 public:
  Successors() = default;
  explicit Successors(BlockId only) : ids_{only, 0}, n_(1) {}
  Successors(BlockId taken, BlockId fallthrough)
      : ids_{taken, fallthrough}, n_(2) {}

  [[nodiscard]] const BlockId* begin() const { return ids_; }
  [[nodiscard]] const BlockId* end() const { return ids_ + n_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] BlockId operator[](std::size_t i) const { return ids_[i]; }

  bool operator==(const Successors& o) const {
    if (n_ != o.n_) return false;
    for (std::size_t i = 0; i < n_; ++i)
      if (ids_[i] != o.ids_[i]) return false;
    return true;
  }

 private:
  BlockId ids_[2] = {0, 0};
  std::uint8_t n_ = 0;
};

struct BasicBlock {
  std::vector<Instr> instrs;

  [[nodiscard]] const Instr& terminator() const;
  /// Successor block ids in (taken, fallthrough) order.
  [[nodiscard]] Successors successors() const;
};

struct FuncParam {
  std::string name;
  RegClass cls{};
};

struct Function {
  std::string name;
  std::vector<RegClass> vregs;  // class of each virtual register
  std::vector<RegClass> slots;  // class of each stack slot
  std::vector<FuncParam> params;
  bool has_return = false;
  RegClass ret_class = RegClass::F64;
  std::vector<BasicBlock> blocks;  // entry is block 0

  VReg new_vreg(RegClass cls);
  Slot new_slot(RegClass cls);

  [[nodiscard]] std::size_t instruction_count() const;

  /// Structural well-formedness: operands defined, classes consistent,
  /// every block ends in exactly one terminator, targets in range.
  /// Throws InternalError on violation.
  void validate() const;
};

/// Structural equality of every field: `f64_imm` by bit pattern (so -0.0 and
/// 0.0 differ and a NaN equals itself), annotation and phi args in order.
[[nodiscard]] bool identical(const Instr& x, const Instr& y);
/// Every field of two functions: name, register and slot classes, params,
/// return class, and each block's instructions under `identical`.
[[nodiscard]] bool identical(const Function& x, const Function& y);

/// Human-readable dump (for tests and debugging).
std::string print_function(const Function& fn);

}  // namespace vc::rtl
