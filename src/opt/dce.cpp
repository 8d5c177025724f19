#include "opt/opt.hpp"
#include "rtl/analysis.hpp"
#include "support/bitset.hpp"

namespace vc::opt {

bool dead_code_elimination(rtl::Function& fn) {
  // Per-thread scratch: its capacity carries across functions and fleet
  // jobs, so a call in which nothing dies allocates nothing.
  thread_local rtl::Liveness lv;
  thread_local DenseBitset live;
  thread_local std::vector<std::uint8_t> dead;
  bool any_change = false;
  for (;;) {
    rtl::compute_liveness(fn, &lv);
    bool changed = false;
    // Deleting an instruction shrinks the liveness only of the registers
    // it reads; if no deleted instruction read one, nothing more can die.
    bool shrank = false;
    for (rtl::BlockId b = 0; b < fn.blocks.size(); ++b) {
      live = lv.live_out[b];
      auto& instrs = fn.blocks[b].instrs;
      dead.assign(instrs.size(), 0);
      std::size_t first_dead = instrs.size();
      for (std::size_t i = instrs.size(); i-- > 0;) {
        const rtl::Instr& ins = instrs[i];
        if (ins.is_pure() && !live.test(ins.dst)) {
          dead[i] = 1;
          first_dead = i;
          rtl::for_each_use(ins, [&](rtl::VReg) { shrank = true; });
          continue;
        }
        if (const auto d = ins.def()) live.reset(*d);
        rtl::for_each_use(ins, [&](rtl::VReg u) { live.set(u); });
      }
      if (first_dead == instrs.size()) continue;  // nothing died: untouched
      std::size_t w = first_dead;
      for (std::size_t i = first_dead + 1; i < instrs.size(); ++i)
        if (!dead[i]) instrs[w++] = std::move(instrs[i]);
      instrs.erase(instrs.begin() + static_cast<std::ptrdiff_t>(w),
                   instrs.end());
      changed = true;
    }
    any_change |= changed;
    if (!changed || !shrank) return any_change;
  }
}

}  // namespace vc::opt
