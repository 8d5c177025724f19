// Seeded RTL miscompilations: the defect model of bench_validation's
// detection-rate table, shared with the golden verdict corpus
// (tests/validator_corpus_test.cpp) so both exercise the same mutants.
#pragma once

#include <utility>
#include <vector>

#include "rtl/rtl.hpp"
#include "support/rng.hpp"

namespace vc::bench {

/// Applies one random semantic mutation to an RTL function; returns false if
/// no mutation site was found.
inline bool mutate(rtl::Function& fn, Rng& rng) {
  std::vector<std::pair<rtl::BlockId, std::size_t>> sites;
  for (rtl::BlockId b = 0; b < fn.blocks.size(); ++b)
    for (std::size_t i = 0; i < fn.blocks[b].instrs.size(); ++i) {
      const rtl::Instr& ins = fn.blocks[b].instrs[i];
      if (ins.op == rtl::Opcode::Bin || ins.op == rtl::Opcode::LdI ||
          ins.op == rtl::Opcode::LdF || ins.op == rtl::Opcode::StoreGlobal ||
          ins.op == rtl::Opcode::StoreStack)
        sites.emplace_back(b, i);
    }
  if (sites.empty()) return false;
  const auto [b, i] = sites[rng.next_below(sites.size())];
  rtl::Instr& ins = fn.blocks[b].instrs[i];
  switch (ins.op) {
    case rtl::Opcode::Bin:
      if (rng.next_bool())
        std::swap(ins.src1, ins.src2);
      else if (ins.bin_op == minic::BinOp::FAdd)
        ins.bin_op = minic::BinOp::FSub;
      else if (ins.bin_op == minic::BinOp::FMul)
        ins.bin_op = minic::BinOp::FAdd;
      else if (ins.bin_op == minic::BinOp::IAdd)
        ins.bin_op = minic::BinOp::ISub;
      else
        std::swap(ins.src1, ins.src2);
      break;
    case rtl::Opcode::LdI:
      ins.int_imm += 1;
      break;
    case rtl::Opcode::LdF:
      ins.f64_imm += 0.5;
      break;
    case rtl::Opcode::StoreGlobal:
    case rtl::Opcode::StoreStack: {
      // Drop the store: replace with a self-jumpless no-op (Mov to scratch).
      const rtl::VReg scratch = fn.new_vreg(fn.vregs[ins.src1]);
      rtl::Instr mv;
      mv.op = rtl::Opcode::Mov;
      mv.dst = scratch;
      mv.src1 = ins.src1;
      ins = mv;
      break;
    }
    default:
      return false;
  }
  return true;
}

}  // namespace vc::bench
