#include "wcet/cfg.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "support/strings.hpp"

namespace vc::wcet {

using mach::MInstr;
using mach::MOp;

int Cfg::block_at(std::uint32_t addr) const {
  for (std::size_t i = 0; i < blocks.size(); ++i)
    if (blocks[i].start == addr) return static_cast<int>(i);
  return -1;
}

int Cfg::block_containing(std::uint32_t addr) const {
  for (std::size_t i = 0; i < blocks.size(); ++i)
    if (addr >= blocks[i].start && addr < blocks[i].end())
      return static_cast<int>(i);
  return -1;
}

bool Cfg::loop_within(int inner, int outer) const {
  while (inner != -1) {
    if (inner == outer) return true;
    inner = loops[static_cast<std::size_t>(inner)].parent;
  }
  return false;
}

namespace {

/// Dominators over the reconstructed CFG (iterative, RPO-based).
std::vector<int> dominators(const Cfg& cfg) {
  const int n = static_cast<int>(cfg.blocks.size());
  // Reverse postorder.
  std::vector<int> rpo;
  std::vector<bool> visited(n, false);
  std::vector<std::pair<int, std::size_t>> stack{{0, 0}};
  visited[0] = true;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    const auto& succs = cfg.blocks[b].succs;
    if (next < succs.size()) {
      const int s = succs[next++];
      if (!visited[s]) {
        visited[s] = true;
        stack.emplace_back(s, 0);
      }
    } else {
      rpo.push_back(b);
      stack.pop_back();
    }
  }
  std::reverse(rpo.begin(), rpo.end());

  std::vector<int> rpo_index(n, -1);
  for (std::size_t i = 0; i < rpo.size(); ++i)
    rpo_index[rpo[i]] = static_cast<int>(i);

  std::vector<int> idom(n, -1);
  idom[0] = 0;
  auto intersect = [&](int a, int b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom[a];
      while (rpo_index[b] > rpo_index[a]) b = idom[b];
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int b : rpo) {
      if (b == 0) continue;
      int best = -1;
      for (int p : cfg.blocks[b].preds) {
        if (idom[p] == -1) continue;
        best = best == -1 ? p : intersect(best, p);
      }
      if (best != -1 && idom[b] != best) {
        idom[b] = best;
        changed = true;
      }
    }
  }
  return idom;
}

bool dominates(const std::vector<int>& idom, int a, int b) {
  while (true) {
    if (a == b) return true;
    if (b == 0 || idom[b] == -1) return false;
    b = idom[b];
  }
}

}  // namespace

std::pair<std::uint32_t, std::uint32_t> function_range(
    const mach::Image& image, const std::string& fn_name) {
  const auto entry = image.fn_entry.find(fn_name);
  const auto end = image.fn_end.find(fn_name);
  if (entry == image.fn_entry.end() || end == image.fn_end.end()) {
    std::string known;
    for (const auto& [name, addr] : image.fn_entry)
      known += (known.empty() ? "" : ", ") + name;
    throw UnknownFunctionError("no function '" + fn_name +
                               "' in the image (functions: " + known + ")");
  }
  return {entry->second, end->second};
}

Cfg build_cfg(const mach::Image& image, const std::string& fn_name) {
  const auto [lo, hi] = function_range(image, fn_name);

  // Decode and find leaders.
  std::set<std::uint32_t> leaders{lo};
  std::map<std::uint32_t, MInstr> code;
  for (std::uint32_t addr = lo; addr < hi; addr += 4) {
    const MInstr ins = image.fetch(addr);
    code[addr] = ins;
    if (ins.op == MOp::B || mach::is_cond_branch(ins.op)) {
      const std::uint32_t target =
          addr + static_cast<std::uint32_t>(ins.disp) * 4;
      if (target < lo || target >= hi)
        throw CompileError("branch outside function at " + hex32(addr));
      leaders.insert(target);
      if (addr + 4 < hi) leaders.insert(addr + 4);
    } else if (ins.op == MOp::Blr) {
      if (addr + 4 < hi) leaders.insert(addr + 4);
    }
  }

  Cfg cfg;
  cfg.entry_addr = lo;
  for (auto it = leaders.begin(); it != leaders.end(); ++it) {
    const std::uint32_t start = *it;
    auto next = std::next(it);
    const std::uint32_t end = next == leaders.end() ? hi : *next;
    MachineBlock bb;
    bb.start = start;
    for (std::uint32_t addr = start; addr < end; addr += 4)
      bb.instrs.push_back(code.at(addr));
    // Successors.
    const MInstr& last = bb.instrs.back();
    const std::uint32_t last_addr = end - 4;
    if (last.op == MOp::B) {
      bb.succ_addrs.push_back(last_addr +
                              static_cast<std::uint32_t>(last.disp) * 4);
    } else if (mach::is_cond_branch(last.op)) {
      bb.succ_addrs.push_back(last_addr +
                              static_cast<std::uint32_t>(last.disp) * 4);
      if (end < hi) bb.succ_addrs.push_back(end);
    } else if (last.op == MOp::Blr) {
      // no successors
    } else {
      // Fall-through into the next leader (no draining branch in between):
      // our code generator never produces this; reject to stay sound.
      throw CompileError("block at " + hex32(start) +
                         " falls through into a leader (unsupported layout)");
    }
    cfg.blocks.push_back(std::move(bb));
  }

  // Resolve successor ids and predecessor lists.
  for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
    for (std::uint32_t t : cfg.blocks[i].succ_addrs) {
      const int s = cfg.block_at(t);
      check(s >= 0, "branch into the middle of a block");
      cfg.blocks[i].succs.push_back(s);
    }
  }
  for (std::size_t i = 0; i < cfg.blocks.size(); ++i)
    for (int s : cfg.blocks[i].succs)
      cfg.blocks[static_cast<std::size_t>(s)].preds.push_back(
          static_cast<int>(i));

  // Natural loops from back edges (tail -> header where header dominates
  // tail). Irreducible flow (a back edge whose header does not dominate the
  // tail) is rejected, matching the coding rules the paper's domain enforces.
  const std::vector<int> idom = dominators(cfg);
  std::map<int, Loop> loops_by_header;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (int s : cfg.blocks[b].succs) {
      if (!dominates(idom, s, static_cast<int>(b))) continue;
      // Back edge b -> s.
      Loop& loop = loops_by_header[s];
      loop.header = s;
      loop.latches.push_back(static_cast<int>(b));
      // Collect the natural loop body by backwards reachability from the
      // latch without passing through the header.
      std::set<int> body{s, static_cast<int>(b)};
      std::vector<int> work{static_cast<int>(b)};
      while (!work.empty()) {
        const int x = work.back();
        work.pop_back();
        if (x == s) continue;
        for (int p : cfg.blocks[static_cast<std::size_t>(x)].preds) {
          if (body.insert(p).second) work.push_back(p);
        }
      }
      for (int x : body)
        if (std::find(loop.blocks.begin(), loop.blocks.end(), x) ==
            loop.blocks.end())
          loop.blocks.push_back(x);
    }
  }
  // Check reducibility: every retreating edge must be a back edge (header
  // dominates tail) — already guaranteed by construction above, except that
  // a genuine irreducible region would show up as a cycle not captured by
  // any natural loop; the path analysis detects that later (cycle in the
  // "acyclic" graph) and reports it.

  // Order loops outermost-first by containment and fill parents.
  std::vector<Loop> loops;
  for (auto& [header, loop] : loops_by_header) loops.push_back(loop);
  std::sort(loops.begin(), loops.end(), [](const Loop& a, const Loop& b) {
    return a.blocks.size() > b.blocks.size();
  });
  for (std::size_t i = 0; i < loops.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const auto& outer = loops[j].blocks;
      if (std::find(outer.begin(), outer.end(), loops[i].header) !=
          outer.end()) {
        loops[i].parent = static_cast<int>(j);  // innermost containing so far
      }
    }
  }
  for (std::size_t i = 0; i < loops.size(); ++i)
    if (loops[i].parent != -1)
      loops[static_cast<std::size_t>(loops[i].parent)].children.push_back(
          static_cast<int>(i));

  // Exit edges.
  for (auto& loop : loops) {
    std::set<int> members(loop.blocks.begin(), loop.blocks.end());
    for (int b : loop.blocks)
      for (int s : cfg.blocks[static_cast<std::size_t>(b)].succs)
        if (members.count(s) == 0) loop.exits.emplace_back(b, s);
  }

  // Innermost loop per block.
  cfg.loop_of.assign(cfg.blocks.size(), -1);
  for (std::size_t li = 0; li < loops.size(); ++li) {
    for (int b : loops[li].blocks) {
      const int cur = cfg.loop_of[static_cast<std::size_t>(b)];
      if (cur == -1 ||
          loops[static_cast<std::size_t>(cur)].blocks.size() >
              loops[li].blocks.size())
        cfg.loop_of[static_cast<std::size_t>(b)] = static_cast<int>(li);
    }
  }
  cfg.loops = std::move(loops);
  return cfg;
}

}  // namespace vc::wcet
