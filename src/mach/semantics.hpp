// The meaning of every machine op, written once (DESIGN.md §19). `step`
// says, per op, which operands it reads and which operator it applies; a
// domain supplies the values and the operators. Three domains instantiate
// it: the simulator's concrete step (machine/machine.cpp, u32 and double
// over the register files and memory), the machine checker's term step
// (validate/machine_check.cpp, hash-consed terms plus memory and branch
// events) and the value analysis's interval step (wcet/value_analysis.cpp,
// GPR intervals over tracked stack cells). tests/op_table_test.cpp checks
// the three against each other.
//
// A domain D provides, over its GPR, FPR and CR-field value types:
//   gpr(r) fpr(r) crf(f), set_gpr set_fpr set_crf   read or write a resource
//   imm()                        the instruction's immediate
//   lis(i) lui(i)                i << 16, i << 12
//   add sub mul div rem and_ or_ xor_ nor neg       wrapping i32 arithmetic;
//                                div and rem are signed (min / -1 wraps)
//   slw srw sraw (x, n)          shift by n & 63; from 32 on, all bits go
//                                (sraw: every bit becomes the sign)
//   sll srl sra (x, n)           shift by n & 31
//   rlwinm(x, sh, mb, me)        rotate left by sh, keep mask bits mb..me
//   slt sltu (a, b)              1 if a < b (signed / unsigned), else 0
//   cmp(a, b) fcmp(a, b)         a CR field: LT GT EQ, and SO (FU) unordered
//   cror(old, a, b, bd, ba, bb)  field `old` with bit bd := a[ba] | b[bb]
//   mfcr()                       the whole CR as a GPR value
//   fadd fsub fmul fdiv fneg fabs
//   fcti(f)                      f64 -> i32, truncating and saturating
//   icvf(x)                      i32 -> f64
//   feq flt fle (a, b)           1 if the relation holds, 0 if unordered
//   ea(base, offset)             an effective address
//   load4(a) load8(a) store4(a, v) store8(a, v)     big-endian memory
//   eq ne lt ge (a, b)           a branch condition over two GPRs (signed)
//   crbit(field, bit, expect)    a branch condition: CR bit `bit` == expect
//   branch_if(cond) jump() ret() control transfer to the op's target
// A case reads only the operands it names. What else an op needs from its
// instruction (the pc, a relocation, a branch label) the domain keeps.
#pragma once

#include "mach/isa.hpp"

namespace vc::mach {

template <class D>
void step(D& d, const MInstr& m) {
  const auto ra = [&] { return d.gpr(m.ra); };
  const auto rb = [&] { return d.gpr(m.rb); };
  const auto fa = [&] { return d.fpr(m.ra); };
  const auto fb = [&] { return d.fpr(m.rb); };
  const auto fc = [&] { return d.fpr(m.rc); };
  const auto imm = [&] { return d.imm(); };
  const auto to_rd = [&](auto v) { d.set_gpr(m.rd, v); };
  const auto to_fd = [&](auto v) { d.set_fpr(m.rd, v); };
  switch (m.op) {
    case MOp::Li:     to_rd(imm()); break;
    case MOp::Lis:    to_rd(d.lis(imm())); break;
    case MOp::Ori:    to_rd(d.or_(ra(), imm())); break;
    case MOp::Xori:   to_rd(d.xor_(ra(), imm())); break;
    case MOp::Addi:   to_rd(d.add(ra(), imm())); break;
    case MOp::Mr:     to_rd(ra()); break;
    case MOp::Add:    to_rd(d.add(ra(), rb())); break;
    case MOp::Subf:   to_rd(d.sub(rb(), ra())); break;
    case MOp::Mullw:  to_rd(d.mul(ra(), rb())); break;
    case MOp::Divw:   to_rd(d.div(ra(), rb())); break;
    case MOp::And:    to_rd(d.and_(ra(), rb())); break;
    case MOp::Or:     to_rd(d.or_(ra(), rb())); break;
    case MOp::Xor:    to_rd(d.xor_(ra(), rb())); break;
    case MOp::Nor:    to_rd(d.nor(ra(), rb())); break;
    case MOp::Neg:    to_rd(d.neg(ra())); break;
    case MOp::Slw:    to_rd(d.slw(ra(), rb())); break;
    case MOp::Sraw:   to_rd(d.sraw(ra(), rb())); break;
    case MOp::Srw:    to_rd(d.srw(ra(), rb())); break;
    case MOp::Rlwinm: to_rd(d.rlwinm(ra(), m.sh, m.mb, m.me)); break;
    case MOp::Cmpw:   d.set_crf(m.crf, d.cmp(ra(), rb())); break;
    case MOp::Cmpwi:  d.set_crf(m.crf, d.cmp(ra(), imm())); break;
    case MOp::Fcmpu:  d.set_crf(m.crf, d.fcmp(fa(), fb())); break;
    case MOp::Cror:
      d.set_crf(m.crbd / 4, d.cror(d.crf(m.crbd / 4), d.crf(m.crba / 4),
                                   d.crf(m.crbb / 4), m.crbd % 4, m.crba % 4,
                                   m.crbb % 4));
      break;
    case MOp::Mfcr:   to_rd(d.mfcr()); break;
    case MOp::Fadd:   to_fd(d.fadd(fa(), fb())); break;
    case MOp::Fsub:   to_fd(d.fsub(fa(), fb())); break;
    case MOp::Fmul:   to_fd(d.fmul(fa(), fb())); break;
    case MOp::Fdiv:   to_fd(d.fdiv(fa(), fb())); break;
    // Two roundings, exactly the fmul/fadd pair the peephole fused (the
    // build passes -ffp-contract=off, so the host does not fuse them back).
    case MOp::Fmadd:  to_fd(d.fadd(d.fmul(fa(), fb()), fc())); break;
    case MOp::Fmsub:  to_fd(d.fsub(d.fmul(fa(), fb()), fc())); break;
    case MOp::Fneg:   to_fd(d.fneg(fa())); break;
    case MOp::Fabs:   to_fd(d.fabs(fa())); break;
    case MOp::Fmr:    to_fd(fa()); break;
    case MOp::Fcti:   to_rd(d.fcti(fa())); break;
    case MOp::Icvf:   to_fd(d.icvf(ra())); break;
    case MOp::Lwz:    to_rd(d.load4(d.ea(ra(), imm()))); break;
    case MOp::Stw:    d.store4(d.ea(ra(), imm()), d.gpr(m.rd)); break;
    case MOp::Lwzx:   to_rd(d.load4(d.ea(ra(), rb()))); break;
    case MOp::Stwx:   d.store4(d.ea(ra(), rb()), d.gpr(m.rd)); break;
    case MOp::Lfd:    to_fd(d.load8(d.ea(ra(), imm()))); break;
    case MOp::Stfd:   d.store8(d.ea(ra(), imm()), d.fpr(m.rd)); break;
    case MOp::Lfdx:   to_fd(d.load8(d.ea(ra(), rb()))); break;
    case MOp::Stfdx:  d.store8(d.ea(ra(), rb()), d.fpr(m.rd)); break;
    case MOp::B:      d.jump(); break;
    case MOp::Bc:
      d.branch_if(d.crbit(d.crf(m.crbit / 4), m.crbit, m.expect));
      break;
    case MOp::Blr:    d.ret(); break;
    case MOp::Nop:    break;
    case MOp::Lui:    to_rd(d.lui(imm())); break;
    case MOp::Sll:    to_rd(d.sll(ra(), rb())); break;
    case MOp::Srl:    to_rd(d.srl(ra(), rb())); break;
    case MOp::Sra:    to_rd(d.sra(ra(), rb())); break;
    case MOp::Slli:   to_rd(d.sll(ra(), imm())); break;
    case MOp::Slt:    to_rd(d.slt(ra(), rb())); break;
    case MOp::Sltu:   to_rd(d.sltu(ra(), rb())); break;
    case MOp::Sltiu:  to_rd(d.sltu(ra(), imm())); break;
    case MOp::Rem:    to_rd(d.rem(ra(), rb())); break;
    case MOp::Feq:    to_rd(d.feq(fa(), fb())); break;
    case MOp::Flt:    to_rd(d.flt(fa(), fb())); break;
    case MOp::Fle:    to_rd(d.fle(fa(), fb())); break;
    case MOp::Beq:    d.branch_if(d.eq(ra(), rb())); break;
    case MOp::Bne:    d.branch_if(d.ne(ra(), rb())); break;
    case MOp::Blt:    d.branch_if(d.lt(ra(), rb())); break;
    case MOp::Bge:    d.branch_if(d.ge(ra(), rb())); break;
  }
}

}  // namespace vc::mach
