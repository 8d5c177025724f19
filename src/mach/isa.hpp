// The universal machine instruction set: one op table (VC_MACH_OPS below)
// covering every operation any supported target can execute. Each op is one
// row: mnemonic, encoding format, immediate, operand roles, memory and
// branch kind. The MOp enum, the listing, the op-class predicates and
// IssueModel::resources are all derived from the rows, and mach::step
// (mach/semantics.hpp) gives each op its meaning (DESIGN.md §19);
// tests/op_table_test.cpp checks the rows and that meaning in the
// simulator, the machine checker and the value analysis against each
// other. Which subset is legal, and with what latencies and units, is a
// per-target fact carried by mach::TargetDesc (mach/target.hpp) —
// shared subsystems (simulator, validators, liveness, scheduling, WCET)
// switch over the universal op and never over a target name.
//
// The first block of ops models the paper's MPC755 (a PowerPC-G3-like
// 32-bit RISC with an 8-field condition register), with two documented
// substitutions (DESIGN.md §6): `fcti`/`icvf` perform f64<->i32 conversion
// directly, and encodings are vcflight's own fixed 32-bit formats (1:1 with
// the assembly, round-trip tested) rather than bit-exact PowerPC. The
// second block adds the RV32IMF-flavored operations (compare-and-branch,
// set-less-than, single-result FP compares writing a GPR) that have no
// CR-file counterpart. Universal op values are stable: the first block's
// values predate the multi-target refactor, so images and artifact-store
// payloads produced for the original target are byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace vc::mach {

/// Condition-register bit positions within a CR field (PowerPC numbering:
/// bit 0 of the field is LT). Bit index in the whole CR is crf*4 + bit.
enum CrBit : int { kLt = 0, kGt = 1, kEq = 2, kSo = 3 };  // kSo = FU for fcmpu

/// Encoding format: which fields a word carries and where (isa.cpp).
enum class Format : std::uint8_t {
  Reg3,        // rd, ra, rb, rc
  RegImm,      // rd, ra, imm16
  RegImmWide,  // rd, imm21 (lui's simm20 fits with a sign bit to spare)
  Rlwinm,      // rd, ra, sh, mb, me
  Cmp,         // crf, ra, rb
  CmpImm,      // crf, ra, imm16
  CmpBranch,   // ra, rb, disp16 (fused compare-and-branch)
  Cror,        // crbd, crba, crbb
  Mfcr,        // rd
  B,           // disp26
  Bc,          // crbit, expect, disp16
  None,        // blr, nop
};

/// The immediate an op uses: signed, unsigned, or none (an immediate field
/// the op ignores is encoded signed).
enum class Imm : std::uint8_t { No, S, U };

/// How an op uses one register field: not at all (No), or read (R) or
/// written (W) as a GPR (G) or an FPR (F).
enum class RegUse : std::uint8_t { No, GR, GW, FR, FW };

/// Condition-register fields an op reads or writes, one bit per role. A bit
/// operand (crba/crbb/crbd/crbit) names the field holding that bit; cror
/// writes one bit of its destination field and keeps the other three, so it
/// reads that field too.
enum CrRole : std::uint8_t {
  kCrfW = 1,     // writes field crf
  kCrbaR = 2,    // reads the field of bit crba
  kCrbbR = 4,    // reads the field of bit crbb
  kCrbdRW = 8,   // reads and writes the field of bit crbd
  kCrbitR = 16,  // reads the field of bit crbit
  kAllCrR = 32,  // reads all eight fields
};

/// Memory access: none, a load into rd, or a store of rd. The access size
/// follows from rd's register class (GPR 4 bytes, FPR 8) and the address
/// from the format (RegImm: ra + imm, Reg3: ra + rb).
enum class Mem : std::uint8_t { No, Load, Store };

/// Control transfer: none, unconditional (b), conditional, or return (blr).
enum class Branch : std::uint8_t { No, Jump, Cond, Return };

// Every universal op, one row each, in encoding order:
//   X(op, mnemonic, format, imm, rd, ra, rb, rc, cr roles, memory, branch)
// The enum, the mnemonics, the encoding formats, the operand roles (and from
// them the listing's register classes and IssueModel::resources), and every
// op-class predicate below are generated from these rows. What each op does
// is one case of mach::step (mach/semantics.hpp).
#define VC_MACH_OPS(X) \
  /* Integer immediates and moves */ \
  X(Li,     "li",     RegImm,     S,  GW, No, No, No, 0,       No,    No)  /* rd <- simm16 */ \
  X(Lis,    "lis",    RegImm,     S,  GW, No, No, No, 0,       No,    No)  /* rd <- simm16 << 16 */ \
  X(Ori,    "ori",    RegImm,     U,  GW, GR, No, No, 0,       No,    No)  /* rd <- ra | uimm16 */ \
  X(Xori,   "xori",   RegImm,     U,  GW, GR, No, No, 0,       No,    No)  /* rd <- ra ^ uimm16 */ \
  X(Addi,   "addi",   RegImm,     S,  GW, GR, No, No, 0,       No,    No)  /* rd <- ra + simm16 */ \
  X(Mr,     "mr",     RegImm,     No, GW, GR, No, No, 0,       No,    No)  /* rd <- ra */ \
  /* Integer arithmetic / logic (register forms) */ \
  X(Add,    "add",    Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(Subf,   "subf",   Reg3,       No, GW, GR, GR, No, 0,       No,    No)  /* rd <- rb - ra */ \
  X(Mullw,  "mullw",  Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(Divw,   "divw",   Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(And,    "and",    Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(Or,     "or",     Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(Xor,    "xor",    Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(Nor,    "nor",    Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(Neg,    "neg",    Reg3,       No, GW, GR, No, No, 0,       No,    No) \
  X(Slw,    "slw",    Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(Sraw,   "sraw",   Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(Srw,    "srw",    Reg3,       No, GW, GR, GR, No, 0,       No,    No) \
  X(Rlwinm, "rlwinm", Rlwinm,     No, GW, GR, No, No, 0,       No,    No)  /* rotl32(ra, sh) & mask(mb, me) */ \
  /* Compares and CR manipulation */ \
  X(Cmpw,   "cmpw",   Cmp,        No, No, GR, GR, No, kCrfW,   No,    No)  /* crf <- compare(ra, rb) signed */ \
  X(Cmpwi,  "cmpwi",  CmpImm,     S,  No, GR, No, No, kCrfW,   No,    No)  /* crf <- compare(ra, simm16) */ \
  X(Fcmpu,  "fcmpu",  Cmp,        No, No, FR, FR, No, kCrfW,   No,    No)  /* FU (kSo) set if unordered */ \
  /* cror: CR[crbd] <- CR[crba] | CR[crbb] */ \
  X(Cror,   "cror",   Cror,       No, No, No, No, No, kCrbaR | kCrbbR | kCrbdRW, No, No) \
  X(Mfcr,   "mfcr",   Mfcr,       No, GW, No, No, No, kAllCrR, No,    No)  /* bit 0 of CR is the MSB of rd */ \
  /* Floating point */ \
  X(Fadd,   "fadd",   Reg3,       No, FW, FR, FR, No, 0,       No,    No) \
  X(Fsub,   "fsub",   Reg3,       No, FW, FR, FR, No, 0,       No,    No) \
  X(Fmul,   "fmul",   Reg3,       No, FW, FR, FR, No, 0,       No,    No) \
  X(Fdiv,   "fdiv",   Reg3,       No, FW, FR, FR, No, 0,       No,    No) \
  X(Fmadd,  "fmadd",  Reg3,       No, FW, FR, FR, FR, 0,       No,    No)  /* fa * fb + fc (O2-full) */ \
  X(Fmsub,  "fmsub",  Reg3,       No, FW, FR, FR, FR, 0,       No,    No)  /* fa * fb - fc (O2-full) */ \
  X(Fneg,   "fneg",   Reg3,       No, FW, FR, No, No, 0,       No,    No) \
  X(Fabs,   "fabs",   Reg3,       No, FW, FR, No, No, 0,       No,    No) \
  X(Fmr,    "fmr",    Reg3,       No, FW, FR, No, No, 0,       No,    No) \
  X(Fcti,   "fcti",   Reg3,       No, GW, FR, No, No, 0,       No,    No)  /* trunc-to-i32, saturating */ \
  X(Icvf,   "icvf",   Reg3,       No, FW, GR, No, No, 0,       No,    No)  /* (f64) ra */ \
  /* Memory (d-form: displacement(base); x-form: base + index) */ \
  X(Lwz,    "lwz",    RegImm,     S,  GW, GR, No, No, 0,       Load,  No) \
  X(Stw,    "stw",    RegImm,     S,  GR, GR, No, No, 0,       Store, No) \
  X(Lwzx,   "lwzx",   Reg3,       No, GW, GR, GR, No, 0,       Load,  No) \
  X(Stwx,   "stwx",   Reg3,       No, GR, GR, GR, No, 0,       Store, No) \
  X(Lfd,    "lfd",    RegImm,     S,  FW, GR, No, No, 0,       Load,  No) \
  X(Stfd,   "stfd",   RegImm,     S,  FR, GR, No, No, 0,       Store, No) \
  X(Lfdx,   "lfdx",   Reg3,       No, FW, GR, GR, No, 0,       Load,  No) \
  X(Stfdx,  "stfdx",  Reg3,       No, FR, GR, GR, No, 0,       Store, No) \
  /* Control flow */ \
  X(B,      "b",      B,          No, No, No, No, No, 0,       No,    Jump)  /* pc-relative word disp */ \
  X(Bc,     "bc",     Bc,         No, No, No, No, No, kCrbitR, No,    Cond)  /* if CR[crbit] == expect */ \
  X(Blr,    "blr",    None,       No, No, No, No, No, 0,       No,    Return)  /* the harness seeds LR */ \
  X(Nop,    "nop",    None,       No, No, No, No, No, 0,       No,    No) \
  /* RV32IMF-flavored block: no CR file; boolean results land in GPRs and */ \
  /* conditional control flow is fused compare-and-branch */ \
  X(Lui,    "lui",    RegImmWide, S,  GW, No, No, No, 0,       No,    No)  /* rd <- simm20 << 12 */ \
  X(Sll,    "sll",    Reg3,       No, GW, GR, GR, No, 0,       No,    No)  /* rd <- ra << (rb & 31) */ \
  X(Srl,    "srl",    Reg3,       No, GW, GR, GR, No, 0,       No,    No)  /* (u32)ra >> (rb & 31) */ \
  X(Sra,    "sra",    Reg3,       No, GW, GR, GR, No, 0,       No,    No)  /* (i32)ra >> (rb & 31) */ \
  X(Slli,   "slli",   RegImm,     S,  GW, GR, No, No, 0,       No,    No)  /* rd <- ra << (imm & 31) */ \
  X(Slt,    "slt",    Reg3,       No, GW, GR, GR, No, 0,       No,    No)  /* (i32)ra < (i32)rb */ \
  X(Sltu,   "sltu",   Reg3,       No, GW, GR, GR, No, 0,       No,    No)  /* (u32)ra < (u32)rb */ \
  X(Sltiu,  "sltiu",  RegImm,     S,  GW, GR, No, No, 0,       No,    No)  /* (u32)ra < (u32)sext(imm) */ \
  X(Rem,    "rem",    Reg3,       No, GW, GR, GR, No, 0,       No,    No)  /* signed, sign of dividend */ \
  X(Feq,    "feq.d",  Reg3,       No, GW, FR, FR, No, 0,       No,    No)  /* 0 when unordered */ \
  X(Flt,    "flt.d",  Reg3,       No, GW, FR, FR, No, 0,       No,    No)  /* 0 when unordered */ \
  X(Fle,    "fle.d",  Reg3,       No, GW, FR, FR, No, 0,       No,    No)  /* 0 when unordered */ \
  X(Beq,    "beq",    CmpBranch,  No, No, GR, GR, No, 0,       No,    Cond)  /* if ra == rb */ \
  X(Bne,    "bne",    CmpBranch,  No, No, GR, GR, No, 0,       No,    Cond)  /* if ra != rb */ \
  X(Blt,    "blt",    CmpBranch,  No, No, GR, GR, No, 0,       No,    Cond)  /* if (i32)ra < (i32)rb */ \
  X(Bge,    "bge",    CmpBranch,  No, No, GR, GR, No, 0,       No,    Cond)  /* if (i32)ra >= (i32)rb */

enum class MOp : std::uint8_t {
#define VC_MOP_ENUM(op, ...) op,
  VC_MACH_OPS(VC_MOP_ENUM)
#undef VC_MOP_ENUM
};

/// Number of universal ops (array-table size for per-target op info).
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(MOp::Bge) + 1;

/// One row of the op table.
struct OpDesc {
  const char* mnemonic;
  Format format;
  Imm imm;
  RegUse rd, ra, rb, rc;
  std::uint8_t cr;  // CrRole bits
  Mem mem;
  Branch branch;
};

inline constexpr OpDesc kOpTable[] = {
#define VC_MOP_ROW(op, mn, fmt, imm, rd, ra, rb, rc, cr, mem, br)         \
  OpDesc{mn,          Format::fmt,  Imm::imm,    RegUse::rd,              \
         RegUse::ra,  RegUse::rb,   RegUse::rc,  std::uint8_t{cr},        \
         Mem::mem,    Branch::br},
    VC_MACH_OPS(VC_MOP_ROW)
#undef VC_MOP_ROW
};
static_assert(std::size(kOpTable) == kNumOps);

constexpr const OpDesc& op_desc(MOp op) {
  return kOpTable[static_cast<std::size_t>(op)];
}

constexpr bool is_read(RegUse u) { return u == RegUse::GR || u == RegUse::FR; }
constexpr bool is_write(RegUse u) { return u == RegUse::GW || u == RegUse::FW; }
constexpr bool is_fpr(RegUse u) { return u == RegUse::FR || u == RegUse::FW; }

inline std::string mnemonic(MOp op) { return op_desc(op).mnemonic; }

/// One machine instruction. Fields are used according to the opcode; unused
/// fields are zero. `rd/ra/rb` index GPRs or FPRs depending on the opcode.
struct MInstr {
  MOp op = MOp::Nop;
  std::uint8_t rd = 0;
  std::uint8_t ra = 0;
  std::uint8_t rb = 0;
  std::uint8_t rc = 0;        // fmadd/fmsub third operand
  std::int32_t imm = 0;       // simm16/uimm16/displacement
  std::uint8_t sh = 0, mb = 0, me = 0;  // rlwinm
  std::uint8_t crf = 0;       // cmpw/cmpwi/fcmpu
  std::uint8_t crbd = 0, crba = 0, crbb = 0;  // cror
  std::uint8_t crbit = 0;     // bc: absolute CR bit index 0..31
  bool expect = false;        // bc: branch when CR[crbit] == expect
  std::int32_t disp = 0;      // b/bc: signed word displacement from this instr

  bool operator==(const MInstr& o) const;
};

/// Assembly text for one instruction at `addr` (used in listings).
std::string format_instr(const MInstr& ins, std::uint32_t addr);

/// Encodes to the fixed 32-bit vcflight format. Throws InternalError if a
/// field does not fit (the code generator respects all field widths).
std::uint32_t encode(const MInstr& ins);

/// Decodes one word. Throws CompileError on an invalid encoding.
MInstr decode(std::uint32_t word);

/// True if the instruction reads or writes memory.
constexpr bool is_memory_op(MOp op) { return op_desc(op).mem != Mem::No; }
constexpr bool is_load(MOp op) { return op_desc(op).mem == Mem::Load; }
constexpr bool is_store(MOp op) { return op_desc(op).mem == Mem::Store; }
/// Bytes a memory op moves: 8 for the FPR forms, 4 for the GPR forms.
constexpr std::uint32_t mem_bytes(MOp op) {
  return is_fpr(op_desc(op).rd) ? 8 : 4;
}
/// True for the memory ops addressed as ra + rb (x-form), not ra + imm.
constexpr bool is_x_form(MOp op) {
  return is_memory_op(op) && op_desc(op).format == Format::Reg3;
}
/// True for any control-transfer instruction (b/bc/blr and the
/// compare-and-branch block).
constexpr bool is_branch(MOp op) { return op_desc(op).branch != Branch::No; }
/// True for conditional branches only (bc, beq/bne/blt/bge).
constexpr bool is_cond_branch(MOp op) {
  return op_desc(op).branch == Branch::Cond;
}

/// The integer relation a conditional branch tests. `rel` is kLt/kGt/kEq;
/// the branch is taken exactly when (relation holds) == `when_true`. For Bc
/// the relation refers to the CR field written by the preceding compare (the
/// caller tracks that compare's operands); for the compare-and-branch ops it
/// refers to (ra, rb) directly, signalled by `has_operands`.
struct BranchCond {
  int rel = kEq;
  bool when_true = true;
  bool has_operands = false;
};
std::optional<BranchCond> branch_condition(const MInstr& ins);

}  // namespace vc::mach
