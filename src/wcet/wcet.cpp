#include "wcet/wcet.hpp"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "mach/target.hpp"
#include "support/strings.hpp"
#include "wcet/annotations.hpp"
#include "wcet/cache.hpp"
#include "wcet/cfg.hpp"
#include "wcet/ipet.hpp"
#include "wcet/value_analysis.hpp"

namespace vc::wcet {

using mach::MInstr;
using mach::MOp;

namespace {

// ---------------------------------------------------------------------------
// Loop bound analysis
// ---------------------------------------------------------------------------

/// Tries to derive a bound for the canonical counted loop: an in-loop
/// conditional exit whose compare tests a counter register against a limit,
/// where the counter is incremented by exactly 1 per iteration.
std::optional<std::int64_t> derive_bound(const Cfg& cfg,
                                         const ValueAnalysisResult& values,
                                         const Loop& loop) {
  const std::set<int> members(loop.blocks.begin(), loop.blocks.end());

  for (const auto& [exit_from, exit_to] : loop.exits) {
    const MachineBlock& bb = cfg.blocks[static_cast<std::size_t>(exit_from)];
    if (!mach::is_cond_branch(bb.instrs.back().op)) continue;
    auto fact_it = values.compare_facts.find(exit_from);
    if (fact_it == values.compare_facts.end()) continue;
    const auto& fact = fact_it->second;
    const MInstr& bc = bb.instrs.back();
    const auto cond = mach::branch_condition(bc);
    if (!cond) continue;

    // Determine the relation that holds on the *stay-in-loop* edge.
    // succs[0] is the taken edge, succs[1] the fall-through.
    const int stay_succ_index = bb.succs[0] == exit_to ? 1 : 0;
    if (bb.succs[static_cast<std::size_t>(stay_succ_index)] == exit_to)
      continue;  // both edges leave: not the pattern
    const bool stay_when_true = (stay_succ_index == 0) == cond->when_true;
    const int rel = cond->rel;

    // Stay relation must be "counter < limit" or "counter <= limit".
    bool counter_is_lhs = true;
    bool strict = true;
    if (rel == mach::kLt && stay_when_true) {
      counter_is_lhs = true;  // lhs < rhs
      strict = true;
    } else if (rel == mach::kGt && stay_when_true) {
      counter_is_lhs = false;  // lhs > rhs, i.e. rhs < lhs: counter is rhs
      strict = true;
    } else if (rel == mach::kGt && !stay_when_true) {
      counter_is_lhs = true;  // stay when !(lhs > rhs): lhs <= rhs
      strict = false;
    } else if (rel == mach::kLt && !stay_when_true) {
      counter_is_lhs = false;  // stay when !(lhs < rhs): rhs <= lhs
      strict = false;
    } else {
      continue;
    }

    const int counter = counter_is_lhs ? fact.lhs_reg : fact.rhs_reg;
    const Interval limit =
        counter_is_lhs ? fact.rhs_at_test : fact.lhs_at_test;
    if (counter < 0 || limit.is_bottom()) continue;
    if (limit.hi() > 1'000'000'000ll) continue;  // unbounded limit

    // The counter must be incremented by exactly +1 once per iteration:
    // exactly one in-loop definition, of the form addi C,C,1 or
    // add C,C,X / add C,X,C with X == 1, or the uncoalesced
    // add T,C,X ; mr C,T pair.
    int defs = 0;
    bool step_ok = false;
    int reads[mach::IssueModel::kMaxResourcesPerInstr];
    int writes[mach::IssueModel::kMaxResourcesPerInstr];
    int n_reads = 0;
    int n_writes = 0;
    // Is `reg` exactly 1 just before instruction `i` of block `b`? The last
    // in-block definition wins; with no in-block definition, fall back to the
    // value analysis' block-entry interval — CSE hoists the step constant out
    // of the loop, so a same-block `li reg, 1` is not guaranteed to exist.
    const auto reg_is_one = [&](const MachineBlock& mb, int b, std::size_t i,
                                int reg) {
      int r2[mach::IssueModel::kMaxResourcesPerInstr];
      int w2[mach::IssueModel::kMaxResourcesPerInstr];
      int nr2 = 0;
      int nw2 = 0;
      for (std::size_t j = i; j > 0; --j) {
        const MInstr& def = mb.instrs[j - 1];
        mach::IssueModel::resources(def, r2, &nr2, w2, &nw2);
        for (int k = 0; k < nw2; ++k)
          if (w2[k] == reg) return def.op == MOp::Li && def.imm == 1;
      }
      const Interval& iv =
          values.block_in[static_cast<std::size_t>(b)].gpr[reg];
      return !iv.is_bottom() && iv.lo() == 1 && iv.hi() == 1;
    };
    for (int b : loop.blocks) {
      const MachineBlock& mb = cfg.blocks[static_cast<std::size_t>(b)];
      for (std::size_t i = 0; i < mb.instrs.size(); ++i) {
        const MInstr& m = mb.instrs[i];
        mach::IssueModel::resources(m, reads, &n_reads, writes, &n_writes);
        bool writes_counter = false;
        for (int k = 0; k < n_writes; ++k)
          if (writes[k] == counter) writes_counter = true;
        if (!writes_counter) continue;
        ++defs;
        if (m.op == MOp::Addi && m.rd == counter && m.ra == counter &&
            m.imm == 1) {
          step_ok = true;
        } else if (m.op == MOp::Add && m.rd == counter &&
                   (m.ra == counter || m.rb == counter)) {
          const int other = m.ra == counter ? m.rb : m.ra;
          if (reg_is_one(mb, b, i, other)) step_ok = true;
        } else if (m.op == MOp::Mr && m.rd == counter) {
          // mr C,T after add T,C,1-ish: accept if the source was computed as
          // C + 1 in the same block.
          const int t = m.ra;
          for (std::size_t j = 0; j < i; ++j) {
            const MInstr& def = mb.instrs[j];
            if (def.op == MOp::Addi && def.rd == t && def.ra == counter &&
                def.imm == 1) {
              step_ok = true;
            } else if (def.op == MOp::Add && def.rd == t &&
                       (def.ra == counter || def.rb == counter)) {
              const int other = def.ra == counter ? def.rb : def.ra;
              if (reg_is_one(mb, b, j, other)) step_ok = true;
            }
          }
        }
      }
    }
    if (defs != 1 || !step_ok) continue;

    // Initial counter interval: join over entry edges into the header.
    Interval init = Interval::bottom();
    for (int p : cfg.blocks[static_cast<std::size_t>(loop.header)].preds) {
      if (members.count(p) != 0) continue;  // back edge
      auto es = values.edge_out.find({p, loop.header});
      if (es == values.edge_out.end() || !es->second.reachable)
        continue;
      init = init.join(es->second.gpr[counter]);
    }
    if (init.is_bottom()) continue;

    const std::int64_t trips =
        limit.hi() - init.lo() + (strict ? 0 : 1);
    return std::max<std::int64_t>(trips, 0);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Block timing
// ---------------------------------------------------------------------------

std::uint64_t block_base_cost(const MachineBlock& bb,
                              const std::vector<ILineEvent>& ilines,
                              const std::vector<const AccessClass*>& daccess,
                              const mach::TargetDesc& desc,
                              const mach::MachineConfig& machine,
                              bool reachable) {
  mach::IssueModel pipe(desc);
  pipe.reset();
  int reads[mach::IssueModel::kMaxResourcesPerInstr];
  int writes[mach::IssueModel::kMaxResourcesPerInstr];
  int n_reads = 0;
  int n_writes = 0;
  std::size_t iline_next = 0;
  std::size_t dacc_next = 0;

  for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
    const MInstr& m = bb.instrs[i];
    std::uint32_t fetch_stall = 0;
    if (iline_next < ilines.size() &&
        ilines[iline_next].first_instr == static_cast<int>(i)) {
      if (ilines[iline_next].cls.cls == CacheClass::Miss)
        fetch_stall = machine.miss_penalty;
      ++iline_next;
    }
    std::uint32_t extra_mem = 0;
    if (mach::is_memory_op(m.op)) {
      if (dacc_next < daccess.size()) {
        if (daccess[dacc_next]->cls == CacheClass::Miss)
          extra_mem = machine.miss_penalty;
        ++dacc_next;
      } else {
        // The value analysis records no accesses for blocks it proves
        // unreachable (e.g. an annotation-guarded error arm). Charging the
        // full miss penalty keeps the cost sound regardless; the mismatch
        // is only an invariant violation on reachable blocks.
        check(!reachable, "data access bookkeeping mismatch");
        extra_mem = machine.miss_penalty;
      }
    }
    mach::IssueModel::resources(m, reads, &n_reads, writes, &n_writes);
    pipe.issue(m, reads, n_reads, writes, n_writes, extra_mem, fetch_stall);
    if (mach::is_branch(m.op)) {
      pipe.drain();
      pipe.add_stall(machine.taken_branch_penalty);
    }
  }
  pipe.drain();
  return pipe.current_cycle();
}

// ---------------------------------------------------------------------------
// Structural IPET: longest path over the loop nest
// ---------------------------------------------------------------------------

/// Schedules the region of `region_loop` (-1 for the whole function: the
/// blocks with inner loops already collapsed) into fold->regions, then every
/// inner loop the region reaches from its source. Throws WcetError when the
/// region's collapsed graph has a cycle (irreducible flow).
void schedule_region(const Cfg& cfg, int region_loop, FoldSchedule* fold) {
  const auto at = [](int i) { return static_cast<std::size_t>(i); };
  const std::size_t n = cfg.blocks.size();
  const Loop* loop = region_loop == -1 ? nullptr : &cfg.loops[at(region_loop)];
  const int header = loop == nullptr ? -1 : loop->header;
  std::vector<char> member(n, loop == nullptr ? 1 : 0);
  if (loop != nullptr)
    for (int b : loop->blocks) member[at(b)] = 1;

  // A block is a "node" of this region if it belongs to the region and its
  // innermost containing loop within the region is either the region itself
  // or it is the header of an immediate inner loop (which represents the
  // whole collapsed inner loop).
  auto inner_loop_of = [&](int b) -> int {
    int l = cfg.loop_of[at(b)];
    // Walk up until the parent is the region loop.
    while (l != -1 && cfg.loops[at(l)].parent != region_loop)
      l = cfg.loops[at(l)].parent;
    return l;  // -1 means the block sits directly in the region
  };

  auto node_of = [&](int b) -> int {
    const int l = inner_loop_of(b);
    if (l == -1) return b;  // plain block
    return cfg.loops[at(l)].header;  // collapsed rep
  };

  // The collapsed edges, then grouped by source node: node v's successors
  // are to[first[v]] up to to[first[v + 1]].
  std::vector<std::pair<int, int>> edges;
  std::vector<int> indegree(n, 0);
  std::vector<char> is_node(n, 0);
  for (std::size_t bi = 0; bi < n; ++bi) {
    if (member[bi] == 0) continue;
    const int b = static_cast<int>(bi);
    const int from_node = node_of(b);
    is_node[at(from_node)] = 1;
    const int from_inner = inner_loop_of(b);
    for (int s : cfg.blocks[bi].succs) {
      if (member[at(s)] == 0) continue;  // leaves the region
      if (s == header) continue;         // region back edge
      const int to_node = node_of(s);
      if (from_node == to_node) continue;  // intra-collapsed edge
      // Only keep edges that actually leave the collapsed inner loop.
      if (from_inner != -1) {
        const auto& inner = cfg.loops[at(from_inner)].blocks;
        if (std::find(inner.begin(), inner.end(), s) != inner.end()) continue;
      }
      edges.emplace_back(from_node, to_node);
      ++indegree[at(to_node)];
      is_node[at(to_node)] = 1;
    }
  }
  std::vector<int> first(n + 1, 0);
  for (const auto& e : edges) ++first[at(e.first) + 1];
  for (std::size_t v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<int> to(edges.size());
  std::vector<int> fill(first.begin(), first.end() - 1);
  for (const auto& [from, dest] : edges) to[at(fill[at(from)]++)] = dest;

  // Topological order of every node; keep those the source reaches.
  std::vector<int> order;
  std::vector<int> ready;
  std::size_t n_nodes = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (is_node[v] == 0) continue;
    ++n_nodes;
    if (indegree[v] == 0) ready.push_back(static_cast<int>(v));
  }
  while (!ready.empty()) {
    const int nd = ready.back();
    ready.pop_back();
    order.push_back(nd);
    for (int k = first[at(nd)]; k < first[at(nd) + 1]; ++k)
      if (--indegree[at(to[at(k)])] == 0) ready.push_back(to[at(k)]);
  }
  if (order.size() != n_nodes)
    throw WcetError("cycle in collapsed region graph (irreducible flow?)");

  FoldRegion region;
  std::vector<int> pos(n, -1);  // node -> index in region.nodes
  std::vector<char> reached(n, 0);
  reached[at(node_of(loop == nullptr ? 0 : header))] = 1;
  for (int nd : order) {
    if (reached[at(nd)] == 0) continue;
    pos[at(nd)] = static_cast<int>(region.nodes.size());
    region.nodes.push_back(nd);
    region.inner.push_back(inner_loop_of(nd));
    for (int k = first[at(nd)]; k < first[at(nd) + 1]; ++k)
      reached[at(to[at(k)])] = 1;
  }
  region.succ_begin.push_back(0);
  for (int nd : region.nodes) {
    for (int k = first[at(nd)]; k < first[at(nd) + 1]; ++k)
      region.succs.push_back(pos[at(to[at(k)])]);
    region.succ_begin.push_back(static_cast<int>(region.succs.size()));
  }
  if (loop != nullptr) {
    // A latch or exit source collapsed into a loop counts at the nearest
    // enclosing loop header the region reaches.
    auto pos_of = [&](int b) -> int {
      if (pos[at(b)] != -1) return pos[at(b)];
      for (int l = cfg.loop_of[at(b)]; l != -1; l = cfg.loops[at(l)].parent)
        if (pos[at(cfg.loops[at(l)].header)] != -1)
          return pos[at(cfg.loops[at(l)].header)];
      return -1;
    };
    for (int latch : loop->latches) region.latches.push_back(pos_of(latch));
    for (const auto& [from, dest] : loop->exits)
      region.exits.push_back(pos_of(from));
  }
  // Recursion fills other slots of the presized vector; `slot` stays valid.
  FoldRegion& slot = fold->regions[at(region_loop + 1)];
  slot = std::move(region);
  for (int l : slot.inner)
    if (l != -1) schedule_region(cfg, l, fold);
}

FoldSchedule schedule_fold(const Cfg& cfg) {
  FoldSchedule fold;
  fold.regions.resize(cfg.loops.size() + 1);
  schedule_region(cfg, -1, &fold);
  return fold;
}

struct PathContext {
  const FoldSchedule& fold;
  const std::vector<std::uint64_t>& block_cost;
  const std::vector<std::int64_t>& loop_bound;       // per loop index
  const std::vector<std::uint64_t>& loop_ps_charge;  // per loop index
};

std::uint64_t loop_wcet(const PathContext& ctx, int loop_index);

/// Longest path through a scheduled region from its source to each of its
/// nodes, index-aligned with the region's nodes.
std::vector<std::uint64_t> longest_paths(const PathContext& ctx,
                                         int region_loop) {
  const FoldRegion& region =
      ctx.fold.regions[static_cast<std::size_t>(region_loop + 1)];
  const std::size_t n = region.nodes.size();
  std::vector<std::uint64_t> cost(n);
  for (std::size_t i = 0; i < n; ++i)
    cost[i] = region.inner[i] == -1
                  ? ctx.block_cost[static_cast<std::size_t>(region.nodes[i])]
                  : loop_wcet(ctx, region.inner[i]);
  std::vector<std::uint64_t> dist(n, 0);
  dist[0] = cost[0];
  for (std::size_t i = 0; i < n; ++i)
    for (auto e = static_cast<std::size_t>(region.succ_begin[i]);
         e < static_cast<std::size_t>(region.succ_begin[i + 1]); ++e) {
      const auto k = static_cast<std::size_t>(region.succs[e]);
      dist[k] = std::max(dist[k], dist[i] + cost[k]);
    }
  return dist;
}

std::uint64_t loop_wcet(const PathContext& ctx, int loop_index) {
  const FoldRegion& region =
      ctx.fold.regions[static_cast<std::size_t>(loop_index + 1)];
  const std::vector<std::uint64_t> dist = longest_paths(ctx, loop_index);
  auto dist_at = [&](int p) -> std::uint64_t {
    return p == -1 ? 0 : dist[static_cast<std::size_t>(p)];
  };

  std::uint64_t per_iter = 0;
  for (int p : region.latches) per_iter = std::max(per_iter, dist_at(p));
  std::uint64_t exit_path = 0;
  for (int p : region.exits) exit_path = std::max(exit_path, dist_at(p));

  const auto bound = static_cast<std::uint64_t>(
      std::max<std::int64_t>(ctx.loop_bound[static_cast<std::size_t>(loop_index)], 0));
  return bound * per_iter + exit_path +
         ctx.loop_ps_charge[static_cast<std::size_t>(loop_index)];
}

/// Loop bounds: annotations take effect on the innermost loop containing
/// the annotation point; automatic derivation refines them. Throws WcetError
/// for a loop left without any bound.
void bound_loops(FlowFacts* facts) {
  const Cfg& cfg = facts->cfg;
  std::vector<std::int64_t> loop_bound(cfg.loops.size(), -1);
  std::vector<bool> bound_from_annot(cfg.loops.size(), false);
  std::vector<bool> bound_derived(cfg.loops.size(), false);
  for (const auto& [addr, n] : facts->annots.loop_bounds) {
    const int b = cfg.block_containing(addr);
    if (b < 0) continue;
    const int l = cfg.loop_of[static_cast<std::size_t>(b)];
    if (l < 0) {
      facts->warnings.push_back("loop annotation at " + hex32(addr) +
                                " is outside any loop");
      continue;
    }
    auto& bound = loop_bound[static_cast<std::size_t>(l)];
    if (bound < 0 || n < bound) {
      bound = n;
      bound_from_annot[static_cast<std::size_t>(l)] = true;
    }
  }
  for (std::size_t l = 0; l < cfg.loops.size(); ++l) {
    const auto derived = derive_bound(cfg, facts->values, cfg.loops[l]);
    if (derived) {
      bound_derived[l] = true;
      if (loop_bound[l] < 0 || *derived < loop_bound[l]) {
        loop_bound[l] = *derived;
        bound_from_annot[l] = false;
      }
    }
  }
  for (std::size_t l = 0; l < cfg.loops.size(); ++l) {
    if (loop_bound[l] < 0)
      throw WcetError(
          "no bound for loop headed at " +
          hex32(cfg.blocks[static_cast<std::size_t>(cfg.loops[l].header)]
                    .start) +
          " in " + facts->function + " (annotation required)");
    LoopBoundInfo info;
    info.header_addr =
        cfg.blocks[static_cast<std::size_t>(cfg.loops[l].header)].start;
    info.bound = loop_bound[l];
    info.from_annotation = bound_from_annot[l];
    info.derived = bound_derived[l];
    facts->loops.push_back(info);
  }
}

const mach::TargetDesc& target_of(const mach::Image& image) {
  return mach::target_by_name(image.target.empty() ? mach::default_target_name()
                                                   : image.target);
}

}  // namespace

FlowFacts flow_facts(const mach::Image& image, const std::string& fn_name,
                     FlowDepth depth, bool use_annotations) {
  FlowFacts facts(fn_name, use_annotations);
  deepen_flow_facts(image, depth, &facts);
  return facts;
}

void deepen_flow_facts(const mach::Image& image, FlowDepth depth,
                       FlowFacts* facts) {
  FlowFacts& f = *facts;
  if (f.depth < FlowDepth::Cfg && depth >= FlowDepth::Cfg) {
    std::tie(f.lo, f.hi) = function_range(image, f.function);
    f.cfg = build_cfg(image, f.function);
    f.depth = FlowDepth::Cfg;
  }
  if (f.depth < FlowDepth::Bounds && depth >= FlowDepth::Bounds) {
    if (f.use_annotations) f.annots = index_annotations(image, f.lo, f.hi);
    f.warnings = f.annots.warnings;
    f.values = analyze_values(f.cfg, f.annots, target_of(image));
    bound_loops(&f);
    f.depth = FlowDepth::Bounds;
  }
  if (f.depth < FlowDepth::Reducible && depth >= FlowDepth::Reducible) {
    f.fold = schedule_fold(f.cfg);
    f.depth = FlowDepth::Reducible;
  }
}

WcetResult analyze_wcet(const mach::Image& image, const FlowFacts& facts,
                        const WcetOptions& options) {
  check(facts.depth >= FlowDepth::Bounds,
        "analyze_wcet: flow facts not computed to their loop bounds");
  check(facts.use_annotations == options.use_annotations,
        "analyze_wcet: flow facts computed under other annotation settings");
  WcetResult result;
  result.loops = facts.loops;
  result.warnings = facts.warnings;

  const mach::TargetDesc& desc = target_of(image);
  const mach::MachineConfig& machine = desc.machine;
  const Cfg& cfg = facts.cfg;
  const ValueAnalysisResult& values = facts.values;

  CacheAnalysisResult caches;
  if (options.cache_analysis) {
    caches = analyze_caches(cfg, values, machine);
  } else {
    // Everything is a miss.
    caches.ilines.assign(cfg.blocks.size(), {});
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      const MachineBlock& bb = cfg.blocks[b];
      std::uint32_t prev_line = 0xFFFFFFFF;
      for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
        const std::uint32_t addr =
            bb.start + static_cast<std::uint32_t>(i) * 4;
        const std::uint32_t line = machine.icache.line_addr(addr);
        if (line != prev_line) {
          prev_line = line;
          ILineEvent ev;
          ev.line_addr = line;
          ev.first_instr = static_cast<int>(i);
          ev.cls = AccessClass{CacheClass::Miss, -1};
          caches.ilines[b].push_back(ev);
        }
      }
    }
    caches.daccess.assign(values.accesses.size(),
                          AccessClass{CacheClass::Miss, -1});
  }

  std::vector<std::int64_t> loop_bound;
  for (const LoopBoundInfo& info : facts.loops)
    loop_bound.push_back(info.bound);

  // Per-block base costs plus per-execution (Miss) cache charges; collect
  // persistence charges per scope.
  std::vector<std::uint64_t> block_cost(cfg.blocks.size(), 0);
  std::vector<std::uint64_t> loop_ps_charge(cfg.loops.size(), 0);
  std::uint64_t function_ps_charge = 0;

  // Group data-access classes per block in instruction order.
  std::vector<std::vector<const AccessClass*>> dacc_by_block(cfg.blocks.size());
  for (std::size_t i = 0; i < values.accesses.size(); ++i)
    dacc_by_block[static_cast<std::size_t>(values.accesses[i].block)]
        .push_back(&caches.daccess[i]);

  auto charge_persistent = [&](const AccessClass& cls) {
    if (cls.cls != CacheClass::Persistent) return;
    if (cls.scope == -1)
      function_ps_charge += machine.miss_penalty;
    else
      loop_ps_charge[static_cast<std::size_t>(cls.scope)] +=
          machine.miss_penalty;
  };

  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    block_cost[b] = block_base_cost(cfg.blocks[b], caches.ilines[b],
                                    dacc_by_block[b], desc, machine,
                                    values.block_in[b].reachable);
    for (const ILineEvent& ev : caches.ilines[b]) charge_persistent(ev.cls);
    result.block_costs.emplace_back(cfg.blocks[b].start, block_cost[b]);
  }
  for (const AccessClass& cls : caches.daccess) charge_persistent(cls);

  // Path analysis: both engines consume the same CFG, bounds, costs, and
  // persistence charges — they differ only in how they maximize over paths.
  if (options.engine != WcetEngine::Ipet) {
    FoldSchedule scheduled;
    if (facts.depth < FlowDepth::Reducible) scheduled = schedule_fold(cfg);
    const PathContext ctx{
        facts.depth < FlowDepth::Reducible ? scheduled : facts.fold,
        block_cost, loop_bound, loop_ps_charge};
    std::uint64_t best = 0;
    for (std::uint64_t d : longest_paths(ctx, -1)) best = std::max(best, d);
    result.structural_cycles = best + function_ps_charge;
    result.wcet_cycles = *result.structural_cycles;
  }
  if (options.engine != WcetEngine::Structural) {
    result.ipet = analyze_ipet(cfg, values, loop_bound, block_cost,
                               loop_ps_charge, function_ps_charge,
                               facts.function);
    // The IPET bound is the selected bound whenever it ran: it is exact for
    // the constraint system, so it is never looser than the structural
    // over-approximation of the same system.
    result.wcet_cycles = result.ipet->wcet_cycles;
  }
  return result;
}

WcetResult analyze_wcet(const mach::Image& image, const std::string& fn_name,
                        const WcetOptions& options) {
  return analyze_wcet(
      image,
      flow_facts(image, fn_name, FlowDepth::Bounds, options.use_annotations),
      options);
}

}  // namespace vc::wcet
