// Shared helpers for the SSA passes (not part of the public API).
#pragma once

#include "rtl/analysis.hpp"
#include "rtl/rtl.hpp"

namespace vc::ssa::detail {

/// Definition site of every vreg: (block, index) or block == kNoBlock if the
/// vreg has no definition. Meaningful on SSA-form functions (single def).
struct DefSite {
  rtl::BlockId block = rtl::kNoBlock;
  std::uint32_t index = 0;
};

inline std::vector<DefSite> def_sites(const rtl::Function& fn) {
  std::vector<DefSite> sites(fn.vregs.size());
  for (rtl::BlockId b = 0; b < fn.blocks.size(); ++b)
    for (std::uint32_t i = 0; i < fn.blocks[b].instrs.size(); ++i)
      if (auto d = fn.blocks[b].instrs[i].def()) sites[*d] = {b, i};
  return sites;
}

inline const rtl::Instr* def_instr(const rtl::Function& fn,
                                   const std::vector<DefSite>& sites,
                                   rtl::VReg v) {
  if (v >= sites.size() || sites[v].block == rtl::kNoBlock) return nullptr;
  return &fn.blocks[sites[v].block].instrs[sites[v].index];
}

/// Follows Mov chains to the originating vreg (SSA form: chains are acyclic).
inline rtl::VReg chase_movs(const rtl::Function& fn,
                            const std::vector<DefSite>& sites, rtl::VReg v) {
  for (;;) {
    const rtl::Instr* d = def_instr(fn, sites, v);
    if (d == nullptr || d->op != rtl::Opcode::Mov) return v;
    v = d->src1;
  }
}

/// Parses a loop-bound annotation "loop <= N"; returns N or -1.
inline long long parse_loop_bound(const std::string& format) {
  const std::string prefix = "loop <= ";
  if (format.rfind(prefix, 0) != 0) return -1;
  long long n = 0;
  if (format.size() == prefix.size()) return -1;
  for (std::size_t i = prefix.size(); i < format.size(); ++i) {
    if (format[i] < '0' || format[i] > '9') return -1;
    n = n * 10 + (format[i] - '0');
    if (n > 1'000'000'000LL) return -1;
  }
  return n;
}

}  // namespace vc::ssa::detail
