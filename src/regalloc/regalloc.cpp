#include "regalloc/regalloc.hpp"

#include <algorithm>
#include <optional>

#include "rtl/analysis.hpp"
#include "support/bitset.hpp"

namespace vc::regalloc {
namespace {

using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::Opcode;
using rtl::RegClass;
using rtl::VReg;

/// Interference graph over virtual registers (same-class edges only) plus
/// move-affinity edges used for biased coloring. Each def ORs the live set
/// (masked to its class) into its row of a bit matrix, which drops duplicate
/// edges for free; the matrix is then made symmetric. A row is a node's
/// adjacency: its popcount is the degree, and walking its set bits visits
/// the neighbours in ascending order.
struct Graph {
  std::vector<DenseBitset> matrix;  // n x n, symmetric
  std::vector<std::vector<VReg>> moves;  // ascending, no duplicates
  std::vector<std::uint32_t> use_count;
  std::vector<std::uint8_t> present;  // vreg occurs in the function
};

/// Per-thread scratch: its capacity carries across rounds, functions and
/// fleet jobs.
struct Scratch {
  rtl::Liveness lv;
  DenseBitset live;
  DenseBitset class_mask[2];  // the I32 and the F64 vregs
  Graph graph;
  // try_color state.
  std::vector<std::uint32_t> degree;
  std::vector<std::uint8_t> removed;
  DenseBitset low_degree;  // present, not removed, degree < K
  std::vector<VReg> stack;
};

void build_graph(const Function& fn, Scratch& s) {
  const std::size_t n = fn.vregs.size();
  Graph& g = s.graph;
  g.matrix.resize(n);
  for (DenseBitset& row : g.matrix) {
    row.clear();
    row.resize(n);
  }
  g.moves.resize(n);
  for (auto& m : g.moves) m.clear();  // keeps each list's buffer
  g.use_count.assign(n, 0);
  g.present.assign(n, 0);

  for (DenseBitset& mask : s.class_mask) {
    mask.clear();
    mask.resize(n);
  }
  for (VReg v = 0; v < n; ++v)
    s.class_mask[fn.vregs[v] == RegClass::I32 ? 0 : 1].set(v);

  rtl::compute_liveness(fn, &s.lv);

  for (BlockId b = 0; b < fn.blocks.size(); ++b) {
    s.live = s.lv.live_out[b];
    const auto& instrs = fn.blocks[b].instrs;
    for (std::size_t i = instrs.size(); i-- > 0;) {
      const Instr& ins = instrs[i];
      if (const auto d = ins.def()) {
        g.present[*d] = 1;
        const DenseBitset& mask =
            s.class_mask[fn.vregs[*d] == RegClass::I32 ? 0 : 1];
        // A move's source does not interfere with its destination (here;
        // another def may still make them interfere).
        const bool hide_src = ins.op == Opcode::Mov && s.live.test(ins.src1);
        if (hide_src) s.live.reset(ins.src1);
        g.matrix[*d].union_with_intersection(s.live, mask);
        if (hide_src) s.live.set(ins.src1);
        s.live.reset(*d);
        if (ins.op == Opcode::Mov) {
          g.moves[*d].push_back(ins.src1);
          g.moves[ins.src1].push_back(*d);
        }
      }
      rtl::for_each_use(ins, [&](VReg u) {
        g.present[u] = 1;
        ++g.use_count[u];
        s.live.set(u);
      });
    }
  }
  for (VReg v = 0; v < n; ++v) {
    g.matrix[v].reset(v);  // a def live after itself is no self-edge
    g.matrix[v].for_each([&](std::size_t w) { g.matrix[w].set(v); });
    auto& m = g.moves[v];
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
  }
}

/// One Chaitin-Briggs coloring attempt. On success fills `colors`; on
/// failure returns the chosen spill candidate. Nodes are simplified, spill
/// candidates scanned and move partners tried in ascending vreg order.
std::optional<VReg> try_color(const Function& fn, Scratch& s, int k_int,
                              int k_float, bool spread_colors,
                              const std::vector<std::uint8_t>& no_spill,
                              std::vector<int>* colors) {
  const Graph& g = s.graph;
  const std::size_t n = fn.vregs.size();
  auto k_of = [&](VReg v) {
    return static_cast<std::uint32_t>(fn.vregs[v] == RegClass::I32 ? k_int
                                                                   : k_float);
  };

  s.degree.assign(n, 0);
  s.removed.assign(n, 1);
  s.low_degree.clear();
  s.low_degree.resize(n);
  std::size_t remaining = 0;
  for (VReg v = 0; v < n; ++v) {
    if (!g.present[v]) continue;
    s.removed[v] = 0;
    s.degree[v] = static_cast<std::uint32_t>(g.matrix[v].count());
    if (s.degree[v] < k_of(v)) s.low_degree.set(v);
    ++remaining;
  }

  s.stack.clear();
  while (remaining > 0) {
    // Simplify: remove the lowest-numbered node with degree < K.
    const std::size_t low = s.low_degree.find_first();
    if (low == n) {
      // Blocked: choose a spill candidate — maximize degree / (uses + 1),
      // skipping registers that must not spill (spill temporaries).
      VReg best = rtl::kNoVReg;
      double best_score = -1.0;
      for (VReg v = 0; v < n; ++v) {
        if (s.removed[v] || no_spill[v]) continue;
        const double score = static_cast<double>(s.degree[v]) /
                             (static_cast<double>(g.use_count[v]) + 1.0);
        if (score > best_score) {
          best_score = score;
          best = v;
        }
      }
      check(best != rtl::kNoVReg, "register allocator wedged: nothing to spill");
      return best;
    }
    const auto pick = static_cast<VReg>(low);
    s.removed[pick] = 1;
    s.low_degree.reset(pick);
    --remaining;
    g.matrix[pick].for_each([&](std::size_t w) {
      if (s.removed[w] || s.degree[w] == 0) return;
      if (--s.degree[w] < k_of(static_cast<VReg>(w))) s.low_degree.set(w);
    });
    s.stack.push_back(pick);
  }

  // Select phase: pop and color, biased toward move partners' colors.
  colors->assign(n, -1);
  int rotate[2] = {0, 0};  // per-class round-robin start (spread mode)
  while (!s.stack.empty()) {
    const VReg v = s.stack.back();
    s.stack.pop_back();
    std::uint64_t forbidden = 0;  // bit c: a neighbour holds color c
    g.matrix[v].for_each([&](std::size_t w) {
      if ((*colors)[w] >= 0) forbidden |= std::uint64_t{1} << (*colors)[w];
    });
    const auto is_free = [&](int c) { return ((forbidden >> c) & 1) == 0; };
    int chosen = -1;
    for (VReg m : g.moves[v]) {
      const int c = (*colors)[m];
      if (c >= 0 && fn.vregs[m] == fn.vregs[v] && is_free(c)) {
        chosen = c;
        break;
      }
    }
    if (chosen < 0) {
      const int k = static_cast<int>(k_of(v));
      const int cls = fn.vregs[v] == RegClass::I32 ? 0 : 1;
      const int start = spread_colors ? rotate[cls] % k : 0;
      for (int i = 0; i < k; ++i) {
        const int c = (start + i) % k;
        if (is_free(c)) {
          chosen = c;
          if (spread_colors) rotate[cls] = c + 1;
          break;
        }
      }
    }
    check(chosen >= 0, "coloring select phase failed");
    (*colors)[v] = chosen;
  }
  return std::nullopt;
}

/// Rewrites `fn` so that vreg `v` lives in a fresh stack slot: every use
/// reloads into a fresh temp, every def stores from a fresh temp. The
/// introduced temporaries are marked in `no_spill` (grown to cover them).
/// Afterwards `v` no longer occurs in `fn`.
rtl::Slot spill_everywhere(Function& fn, VReg v,
                           std::vector<std::uint8_t>& no_spill) {
  const RegClass cls = fn.vregs[v];
  const rtl::Slot slot = fn.new_slot(cls);
  auto fresh_temp = [&] {
    const VReg t = fn.new_vreg(cls);
    no_spill.resize(fn.vregs.size(), 0);
    no_spill[t] = 1;
    return t;
  };

  std::vector<Instr> out;
  for (auto& bb : fn.blocks) {
    const bool mentions_v = std::any_of(
        bb.instrs.begin(), bb.instrs.end(), [&](const Instr& ins) {
          const auto d = ins.def();
          return (d && *d == v) || rtl::any_use(ins, [&](VReg u) {
                   return u == v;
                 });
        });
    if (!mentions_v) continue;
    out.clear();
    for (Instr& ins : bb.instrs) {
      // Reload before uses.
      if (rtl::any_use(ins, [&](VReg u) { return u == v; })) {
        const VReg reload = fresh_temp();
        Instr ld;
        ld.op = Opcode::LoadStack;
        ld.dst = reload;
        ld.slot = slot;
        out.push_back(ld);
        auto replace = [&](VReg& r) {
          if (r == v) r = reload;
        };
        replace(ins.src1);
        replace(ins.src2);
        for (auto& a : ins.annot_args)
          if (!a.is_slot && a.vreg == v) {
            // Annotation operands reference the spill slot directly: the
            // value's home location (no reload needed for a pro-forma use).
            a = rtl::AnnotOperand::of_slot(slot);
          }
      }
      const auto d = ins.def();
      if (d && *d == v) {
        const VReg tmp = fresh_temp();
        ins.dst = tmp;
        out.push_back(std::move(ins));
        Instr st;
        st.op = Opcode::StoreStack;
        st.slot = slot;
        st.src1 = tmp;
        out.push_back(st);
      } else {
        out.push_back(std::move(ins));
      }
    }
    bb.instrs.swap(out);
  }
  return slot;
}

}  // namespace

Allocation allocate_registers(Function& fn, int k_int, int k_float,
                              bool spread_colors) {
  // The select phase keeps a neighbour's colors in one 64-bit mask.
  check(k_int <= 64 && k_float <= 64, "register class larger than 64");
  thread_local Scratch scratch;
  constexpr rtl::Slot kNotSpilled = 0xFFFFFFFF;
  const std::size_t n_input = fn.vregs.size();
  std::vector<std::uint8_t> no_spill(n_input, 0);
  std::vector<rtl::Slot> spill_slot_of(n_input, kNotSpilled);
  std::vector<int> colors;

  // A failed round spills a register of the input function (temporaries
  // are never candidates), and the spilled register then no longer occurs
  // in the function. So at most n_input rounds fail before one succeeds.
  int spill_count = 0;
  for (std::size_t round = 0;; ++round) {
    check(round <= n_input, "register allocation did not converge");
    build_graph(fn, scratch);
    const auto spill = try_color(fn, scratch, k_int, k_float, spread_colors,
                                 no_spill, &colors);
    if (!spill) break;
    spill_slot_of[*spill] = spill_everywhere(fn, *spill, no_spill);
    ++spill_count;
  }

  Allocation alloc;
  alloc.spill_count = spill_count;
  alloc.locs.resize(fn.vregs.size());
  for (VReg v = 0; v < fn.vregs.size(); ++v) {
    if (v < n_input && spill_slot_of[v] != kNotSpilled) {
      alloc.locs[v] = Loc{false, -1, spill_slot_of[v]};
    } else {
      alloc.locs[v] = Loc{colors[v] >= 0, colors[v], 0};
    }
  }
  fn.validate();
  return alloc;
}

}  // namespace vc::regalloc
