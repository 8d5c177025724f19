#include "mach/isa.hpp"

#include "support/strings.hpp"

namespace vc::mach {
namespace {

constexpr std::uint32_t kOpShift = 26;

void require_fits(bool ok, const char* what) {
  if (!ok) throw InternalError(std::string("encoding overflow: ") + what);
}

}  // namespace

bool MInstr::operator==(const MInstr& o) const {
  return op == o.op && rd == o.rd && ra == o.ra && rb == o.rb && rc == o.rc &&
         imm == o.imm && sh == o.sh && mb == o.mb && me == o.me &&
         crf == o.crf && crbd == o.crbd && crba == o.crba && crbb == o.crbb &&
         crbit == o.crbit && expect == o.expect && disp == o.disp;
}

std::string format_instr(const MInstr& ins, std::uint32_t addr) {
  const OpDesc& d = op_desc(ins.op);
  std::string out = d.mnemonic;
  const char* sep = " ";
  auto put = [&](const std::string& operand) {
    out += sep;
    out += operand;
    sep = ", ";
  };
  auto reg = [](RegUse use, int r) {
    return (is_fpr(use) ? "f" : "r") + std::to_string(r);
  };

  switch (d.format) {
    case Format::Cmp:
    case Format::CmpImm:
      put("cr" + std::to_string(ins.crf));
      break;
    case Format::Cror:
      put(std::to_string(ins.crbd));
      put(std::to_string(ins.crba));
      put(std::to_string(ins.crbb));
      break;
    case Format::Bc: {
      static const char* names[4] = {"lt", "gt", "eq", "so"};
      put(std::string(ins.expect ? "" : "!") + "cr" +
          std::to_string(ins.crbit / 4) + "." + names[ins.crbit % 4]);
      break;
    }
    default:
      break;
  }
  if (d.rd != RegUse::No) put(reg(d.rd, ins.rd));
  if (is_memory_op(ins.op) && !is_x_form(ins.op)) {  // d-form: imm(ra)
    put(std::to_string(ins.imm) + "(" + reg(d.ra, ins.ra) + ")");
    return out;
  }
  if (d.ra != RegUse::No) put(reg(d.ra, ins.ra));
  if (d.rb != RegUse::No) put(reg(d.rb, ins.rb));
  if (d.rc != RegUse::No) put(reg(d.rc, ins.rc));
  if (d.format == Format::Rlwinm) {
    put(std::to_string(ins.sh));
    put(std::to_string(ins.mb));
    put(std::to_string(ins.me));
  }
  if (d.imm != Imm::No) put(std::to_string(ins.imm));
  if (d.format == Format::B || d.format == Format::Bc ||
      d.format == Format::CmpBranch)
    put(hex32(addr + static_cast<std::uint32_t>(ins.disp) * 4));
  return out;
}

std::uint32_t encode(const MInstr& ins) {
  const auto opbits = static_cast<std::uint32_t>(ins.op);
  require_fits(opbits < 64, "opcode");
  std::uint32_t w = opbits << kOpShift;
  auto r5 = [&](std::uint32_t v, int shift, const char* what) {
    require_fits(v < 32, what);
    w |= v << shift;
  };
  switch (op_desc(ins.op).format) {
    case Format::RegImm: {
      r5(ins.rd, 21, "rd");
      r5(ins.ra, 16, "ra");
      if (op_desc(ins.op).imm != Imm::U)
        require_fits(ins.imm >= -32768 && ins.imm <= 32767, "simm16");
      else
        require_fits(ins.imm >= 0 && ins.imm <= 65535, "uimm16");
      w |= static_cast<std::uint32_t>(ins.imm) & 0xFFFF;
      break;
    }
    case Format::Reg3:
      r5(ins.rd, 21, "rd");
      r5(ins.ra, 16, "ra");
      r5(ins.rb, 11, "rb");
      r5(ins.rc, 6, "rc");
      break;
    case Format::RegImmWide:
      r5(ins.rd, 21, "rd");
      require_fits(ins.imm >= -(1 << 19) && ins.imm < (1 << 19), "simm20");
      w |= static_cast<std::uint32_t>(ins.imm) & 0x001FFFFF;
      break;
    case Format::Rlwinm:
      r5(ins.rd, 21, "rd");
      r5(ins.ra, 16, "ra");
      r5(ins.sh, 11, "sh");
      r5(ins.mb, 6, "mb");
      r5(ins.me, 1, "me");
      break;
    case Format::CmpBranch:
      r5(ins.ra, 21, "ra");
      r5(ins.rb, 16, "rb");
      require_fits(ins.disp >= -32768 && ins.disp <= 32767, "disp16");
      w |= static_cast<std::uint32_t>(ins.disp) & 0xFFFF;
      break;
    case Format::Cmp:
      require_fits(ins.crf < 8, "crf");
      w |= static_cast<std::uint32_t>(ins.crf) << 23;
      r5(ins.ra, 18, "ra");
      r5(ins.rb, 13, "rb");
      break;
    case Format::CmpImm:
      require_fits(ins.crf < 8, "crf");
      w |= static_cast<std::uint32_t>(ins.crf) << 23;
      r5(ins.ra, 18, "ra");
      require_fits(ins.imm >= -32768 && ins.imm <= 32767, "simm16");
      w |= static_cast<std::uint32_t>(ins.imm) & 0xFFFF;
      break;
    case Format::Cror:
      r5(ins.crbd, 21, "crbd");
      r5(ins.crba, 16, "crba");
      r5(ins.crbb, 11, "crbb");
      break;
    case Format::Mfcr:
      r5(ins.rd, 21, "rd");
      break;
    case Format::B:
      require_fits(ins.disp >= -(1 << 25) && ins.disp < (1 << 25), "disp26");
      w |= static_cast<std::uint32_t>(ins.disp) & 0x03FFFFFF;
      break;
    case Format::Bc:
      r5(ins.crbit, 21, "crbit");
      if (ins.expect) w |= 1u << 20;
      require_fits(ins.disp >= -32768 && ins.disp <= 32767, "disp16");
      w |= static_cast<std::uint32_t>(ins.disp) & 0xFFFF;
      break;
    case Format::None:
      break;
  }
  return w;
}

MInstr decode(std::uint32_t word) {
  const std::uint32_t opbits = word >> kOpShift;
  if (opbits >= kNumOps)
    throw CompileError("invalid opcode in instruction word " + hex32(word));
  MInstr ins;
  ins.op = static_cast<MOp>(opbits);
  auto sext16 = [](std::uint32_t v) {
    return static_cast<std::int32_t>(static_cast<std::int16_t>(v & 0xFFFF));
  };
  switch (op_desc(ins.op).format) {
    case Format::RegImm:
      ins.rd = (word >> 21) & 31;
      ins.ra = (word >> 16) & 31;
      ins.imm = op_desc(ins.op).imm != Imm::U
                    ? sext16(word)
                    : static_cast<std::int32_t>(word & 0xFFFF);
      break;
    case Format::Reg3:
      ins.rd = (word >> 21) & 31;
      ins.ra = (word >> 16) & 31;
      ins.rb = (word >> 11) & 31;
      ins.rc = (word >> 6) & 31;
      break;
    case Format::RegImmWide: {
      ins.rd = (word >> 21) & 31;
      std::uint32_t v = word & 0x001FFFFF;
      if (v & 0x00100000) v |= 0xFFE00000;  // sign-extend 21 bits
      ins.imm = static_cast<std::int32_t>(v);
      break;
    }
    case Format::Rlwinm:
      ins.rd = (word >> 21) & 31;
      ins.ra = (word >> 16) & 31;
      ins.sh = (word >> 11) & 31;
      ins.mb = (word >> 6) & 31;
      ins.me = (word >> 1) & 31;
      break;
    case Format::CmpBranch:
      ins.ra = (word >> 21) & 31;
      ins.rb = (word >> 16) & 31;
      ins.disp = sext16(word);
      break;
    case Format::Cmp:
      ins.crf = (word >> 23) & 7;
      ins.ra = (word >> 18) & 31;
      ins.rb = (word >> 13) & 31;
      break;
    case Format::CmpImm:
      ins.crf = (word >> 23) & 7;
      ins.ra = (word >> 18) & 31;
      ins.imm = sext16(word);
      break;
    case Format::Cror:
      ins.crbd = (word >> 21) & 31;
      ins.crba = (word >> 16) & 31;
      ins.crbb = (word >> 11) & 31;
      break;
    case Format::Mfcr:
      ins.rd = (word >> 21) & 31;
      break;
    case Format::B: {
      std::uint32_t d = word & 0x03FFFFFF;
      if (d & 0x02000000) d |= 0xFC000000;  // sign-extend 26 bits
      ins.disp = static_cast<std::int32_t>(d);
      break;
    }
    case Format::Bc:
      ins.crbit = (word >> 21) & 31;
      ins.expect = ((word >> 20) & 1) != 0;
      ins.disp = sext16(word);
      break;
    case Format::None:
      break;
  }
  return ins;
}

std::optional<BranchCond> branch_condition(const MInstr& ins) {
  switch (ins.op) {
    case MOp::Bc:
      return BranchCond{ins.crbit % 4, ins.expect, false};
    case MOp::Beq:
      return BranchCond{kEq, true, true};
    case MOp::Bne:
      return BranchCond{kEq, false, true};
    case MOp::Blt:
      return BranchCond{kLt, true, true};
    case MOp::Bge:
      return BranchCond{kLt, false, true};
    default:
      return std::nullopt;
  }
}

}  // namespace vc::mach
