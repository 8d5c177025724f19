// The machine checker's symbolic domain: term kinds, one segment's term
// table, the register state and the memory/branch events that
// `sym_step` produces for one op. check_machine_equivalence
// (machine_check.cpp) compares these between the two sides of a rewrite;
// tests/op_table_test.cpp evaluates the terms against the simulator.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "mach/codegen.hpp"
#include "mach/timing.hpp"
#include "validate/term.hpp"

namespace vc::validate {

/// Term kinds of the machine checker. Leaves are a resource's value at
/// segment entry, the n-th load of the segment, a constant, and a
/// relocation; operators carry their operands as children and their fixed
/// fields in the immediate. Memory accesses and control transfers are terms
/// too, so event comparison is id comparison.
enum MKind : std::uint32_t {
  kInit,    // imm: segment << 32 | resource
  kMem,     // imm: segment << 32 | load number
  kConst,   // imm: the constant
  kSym,     // imm: index into SegmentTerms::syms
  kRel,     // kids: symbol; imm: reloc kind << 32 | addend bits
  kRlwinm,  // kids: x; imm: sh << 16 | mb << 8 | me
  kCrins,   // kids: old field, field a, field b; imm: bd << 16 | ba << 8 | bb
  // Events.
  kLoad4, kLoad8,    // kids: address
  kStore4, kStore8,  // kids: address, value
  kJump,             // imm: label
  kJumpCond,         // kids: CR field; imm: label << 16 | crbit << 1 | expect
  kReturn,
  kCmpBranch,        // kids: a, b; imm: label << 8 | opcode
  // Operators rendered "name(kid,...)", named by kOpName. The commutative
  // ones (kAdd..kFeq) are built by make_commutative.
  kAdd, kMul, kAnd, kOr, kXor, kNor, kFadd, kFmul, kFeq,
  kSub, kDiv, kSlw, kSraw, kSrw, kCmp, kFcmp, kFsub, kFdiv, kSll, kSrl,
  kSra, kSlt, kSltu, kRem, kFlt, kFle,
  kLis, kNeg, kFneg, kFabs, kFcti, kIcvf, kLui,
  kMfcr,  // kids: the eight CR fields
  kNumKinds
};

/// One segment's term table: ids 0..72 are the resources' values at segment
/// entry, shared by both sides.
struct SegmentTerms {
  TermTable table;
  std::vector<std::string_view> syms;  // kSym names, first-use order
  std::size_t segment = 0;

  void reset(std::size_t seg) {
    table.clear();
    syms.clear();
    segment = seg;
    for (std::size_t r = 0; r < mach::IssueModel::kNumResources; ++r)
      table.atom(kInit, pack_imm(segment, r));
  }

  /// The symbolic value of an instruction's immediate, folding in any
  /// pending relocation so that `li rT,sym@x; op ..,rT` and a relocated
  /// immediate form denote the same constant.
  TermId imm_token(const mach::AsmOp& op) {
    if (op.reloc_sym.empty()) return table.make(kConst, op.ins.imm);
    std::size_t s = 0;
    while (s < syms.size() && syms[s] != op.reloc_sym) ++s;
    if (s == syms.size()) syms.push_back(op.reloc_sym);
    const TermId sym = table.make(kSym, static_cast<std::int64_t>(s));
    return table.make(
        kRel,
        pack_imm(static_cast<std::uint64_t>(op.reloc_kind),
                 static_cast<std::uint32_t>(op.reloc_addend)),
        {sym});
  }
};

/// Register state: the current term of each of the 73 machine resources.
struct SymEnv {
  std::array<TermId, mach::IssueModel::kNumResources> val;

  SymEnv() {
    for (std::size_t r = 0; r < val.size(); ++r)
      val[r] = static_cast<TermId>(r);  // the segment's initial values
  }
  TermId& gpr(int r) { return val[static_cast<std::size_t>(r)]; }
  TermId& fpr(int r) { return val[static_cast<std::size_t>(32 + r)]; }
  TermId& crf(int f) {
    return val[static_cast<std::size_t>(mach::IssueModel::kCrBase + f)];
  }
};

/// A memory access or control transfer, in program order within a segment.
/// Branch events snapshot the full environment; the comparison restricts it
/// to the live-after set of the *before* side's branch.
struct MEvent {
  TermId tag = kNoTerm;  // kind + operand terms
  bool is_branch = false;
  std::size_t pos = 0;   // op index (before side: liveness anchor)
  std::array<TermId, mach::IssueModel::kNumResources> env{};
};

/// Executes one op over `env`, appending memory/branch events. `n_loads`
/// numbers loads within the segment: the j-th load of either side binds the
/// same fresh symbol (their addresses are forced equal by event comparison).
/// A hardwired zero register (`zero_gpr` >= 0) keeps its entry value.
void sym_step(const mach::AsmOp& op, std::size_t pos, int zero_gpr,
              SegmentTerms& st, SymEnv& env, std::vector<MEvent>& events,
              int& n_loads);

}  // namespace vc::validate
