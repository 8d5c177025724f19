// O2-full list scheduler: reorders instructions within regions free of
// branches, labels, relocated prologue boundaries and annotation anchors, to
// hide result latencies under the dual-issue pipeline. Dependences:
//   - register/CR RAW, WAR, WAW (via IssueModel::resources);
//   - all memory operations stay ordered except load-load pairs.
#include <algorithm>
#include <vector>

#include "mach/codegen.hpp"
#include "mach/target.hpp"
#include "mach/timing.hpp"

namespace vc::mach {
namespace {

struct Node {
  std::size_t index;              // position in the original region
  std::vector<std::size_t> succs; // dependence successors (region-relative)
  int n_preds = 0;
  std::uint32_t priority = 0;     // critical-path length to a sink
};

int schedule_region(std::vector<AsmOp>& ops, std::size_t begin,
                    std::size_t end, const TargetDesc& desc) {
  const std::size_t n = end - begin;
  if (n < 2) return 0;

  std::vector<Node> nodes(n);
  int reads[16];
  int writes[16];
  int n_reads = 0;
  int n_writes = 0;

  // Dependence edges by pairwise comparison (regions are short).
  std::vector<std::vector<int>> rd(n);
  std::vector<std::vector<int>> wr(n);
  std::vector<bool> is_mem(n);
  std::vector<bool> is_load(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].index = i;
    const MInstr& m = ops[begin + i].ins;
    IssueModel::resources(m, reads, &n_reads, writes, &n_writes);
    rd[i].assign(reads, reads + n_reads);
    wr[i].assign(writes, writes + n_writes);
    is_mem[i] = is_memory_op(m.op);
    is_load[i] = mach::is_load(m.op);
  }
  auto intersects = [](const std::vector<int>& a, const std::vector<int>& b) {
    for (int x : a)
      for (int y : b)
        if (x == y) return true;
    return false;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool raw = intersects(wr[i], rd[j]);
      const bool war = intersects(rd[i], wr[j]);
      const bool waw = intersects(wr[i], wr[j]);
      const bool mem = is_mem[i] && is_mem[j] && !(is_load[i] && is_load[j]);
      if (raw || war || waw || mem) {
        nodes[i].succs.push_back(j);
        ++nodes[j].n_preds;
      }
    }
  }

  // Critical-path priorities (longest latency path to any sink).
  for (std::size_t i = n; i-- > 0;) {
    std::uint32_t best = 0;
    for (std::size_t s : nodes[i].succs)
      best = std::max(best, nodes[s].priority);
    nodes[i].priority = best + desc.latency(ops[begin + i].ins.op);
  }

  // Greedy topological order by priority (original index breaks ties, which
  // also makes the schedule deterministic).
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<int> preds_left(n);
  for (std::size_t i = 0; i < n; ++i) preds_left[i] = nodes[i].n_preds;
  std::vector<bool> placed(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (placed[i] || preds_left[i] != 0) continue;
      if (pick == n || nodes[i].priority > nodes[pick].priority) pick = i;
    }
    check(pick != n, "scheduler dependence cycle");
    placed[pick] = true;
    order.push_back(pick);
    for (std::size_t s : nodes[pick].succs) --preds_left[s];
  }

  int moved = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (order[k] != k) ++moved;

  std::vector<AsmOp> scheduled;
  scheduled.reserve(n);
  for (std::size_t i : order) scheduled.push_back(ops[begin + i]);
  std::copy(scheduled.begin(), scheduled.end(), ops.begin() + begin);
  return moved;
}

}  // namespace

int schedule(AsmFunction& fn, const TargetDesc& desc) {
  std::vector<bool> boundary(fn.ops.size() + 1, false);
  boundary[0] = true;
  boundary[fn.ops.size()] = true;
  for (const auto& [label, pos] : fn.labels) boundary[pos] = true;
  for (const auto& a : fn.annots) boundary[a.addr] = true;
  for (std::size_t i = 0; i < fn.ops.size(); ++i) {
    if (is_branch(fn.ops[i].ins.op) || fn.ops[i].target_label >= 0) {
      boundary[i] = true;      // branch stays put
      boundary[i + 1] = true;  // and ends its region
    }
    // Keep compares glued to their conditional branches: a cmp directly
    // before a bc must not have other CR writers scheduled between them —
    // the CR dependence edges already guarantee that, so no extra boundary.
  }

  int moved = 0;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= fn.ops.size(); ++i) {
    if (boundary[i]) {
      moved += schedule_region(fn.ops, begin, i, desc);
      begin = i;
    }
  }
  return moved;
}

}  // namespace vc::mach
