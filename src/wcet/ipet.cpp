#include "wcet/ipet.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "ilp/solver.hpp"
#include "support/strings.hpp"
#include "support/workspace.hpp"
#include "wcet/wcet.hpp"

namespace vc::wcet {
namespace {

/// One frequency variable of the IPET system: a real CFG edge, the virtual
/// entry edge into block 0, or a virtual exit edge out of a returning block.
struct FlowEdge {
  int from = -1;  // -1: virtual entry
  int to = -1;    // -1: virtual exit
};

std::string block_label(const Cfg& cfg, int b) {
  if (b < 0) return "ext";
  return "b" + std::to_string(b) + "@" +
         hex32(cfg.blocks[static_cast<std::size_t>(b)].start);
}

}  // namespace

IpetInfo analyze_ipet(const Cfg& cfg, const ValueAnalysisResult& values,
                      const std::vector<std::int64_t>& loop_bound,
                      const std::vector<std::uint64_t>& block_cost,
                      const std::vector<std::uint64_t>& loop_ps_charge,
                      std::uint64_t function_ps_charge,
                      const std::string& fn_name) {
  check(loop_bound.size() == cfg.loops.size() &&
            loop_ps_charge.size() == cfg.loops.size() &&
            block_cost.size() == cfg.blocks.size(),
        "ipet: input vectors not aligned with the CFG");

  // ---- Variables: one per edge (real + virtual). -------------------------
  // The edge table is dead the moment the LP is built, so it lives in the
  // per-job workspace arena (bumped, rewound at the next job reset) rather
  // than the heap: one row buffer per record of a both-engine campaign.
  std::size_t n_edges = 1;  // the virtual entry edge
  for (const MachineBlock& b : cfg.blocks)
    n_edges += std::max<std::size_t>(b.succs.size(), 1);
  Arena& arena = this_thread_workspace().arena;
  FlowEdge* edges = arena.alloc_array<FlowEdge>(n_edges);
  std::size_t n_built = 0;
  std::vector<std::vector<int>> out_vars(cfg.blocks.size());
  std::vector<std::vector<int>> in_vars(cfg.blocks.size());
  const int entry_var = 0;
  edges[n_built++] = {-1, 0};
  in_vars[0].push_back(entry_var);
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (int s : cfg.blocks[b].succs) {
      const int v = static_cast<int>(n_built);
      edges[n_built++] = {static_cast<int>(b), s};
      out_vars[b].push_back(v);
      in_vars[static_cast<std::size_t>(s)].push_back(v);
    }
    if (cfg.blocks[b].succs.empty()) {
      const int v = static_cast<int>(n_built);
      edges[n_built++] = {static_cast<int>(b), -1};
      out_vars[b].push_back(v);
    }
  }
  check(n_built == n_edges, "ipet: edge count mismatch");

  ilp::Problem problem;
  problem.num_vars = static_cast<int>(n_edges);
  problem.integer = true;

  // ---- Objective: each edge pays the cost of the block it enters. --------
  // Loop-persistence charges are paid once per loop entry, so they ride on
  // the edges entering the loop header from outside (matching the one-shot
  // first-miss charge the structural engine adds per collapsed loop node).
  // The function-wide persistence charge is a constant (entry flow is
  // pinned to 1) and is added after solving.
  auto entering_loop = [&](const FlowEdge& e) -> std::uint64_t {
    if (e.to < 0) return 0;
    std::uint64_t charge = 0;
    for (std::size_t l = 0; l < cfg.loops.size(); ++l) {
      if (cfg.loops[l].header != e.to) continue;
      const auto& members = cfg.loops[l].blocks;
      const bool from_inside =
          e.from >= 0 &&
          std::find(members.begin(), members.end(), e.from) != members.end();
      if (!from_inside) charge += loop_ps_charge[l];
    }
    return charge;
  };
  for (std::size_t v = 0; v < n_edges; ++v) {
    const FlowEdge& e = edges[v];
    if (e.to < 0) continue;  // virtual exit edges are free
    const std::uint64_t cost =
        block_cost[static_cast<std::size_t>(e.to)] + entering_loop(e);
    if (cost != 0)
      problem.objective.push_back(
          {static_cast<int>(v), ilp::Rat(static_cast<std::int64_t>(cost))});
  }

  // ---- Structural constraints. -------------------------------------------
  {
    ilp::Constraint c;
    c.terms = {{entry_var, ilp::Rat(1)}};
    c.sense = ilp::Sense::Eq;
    c.rhs = ilp::Rat(1);
    c.tag = "entry";
    problem.constraints.push_back(c);
  }
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    ilp::Constraint c;
    for (int v : in_vars[b]) c.terms.push_back({v, ilp::Rat(1)});
    for (int v : out_vars[b]) c.terms.push_back({v, ilp::Rat(-1)});
    c.sense = ilp::Sense::Eq;
    c.rhs = ilp::Rat(0);
    c.tag = "flow " + block_label(cfg, static_cast<int>(b));
    problem.constraints.push_back(c);
  }

  // Loop bounds: back-edge flow <= bound * entry-edge flow. Together with
  // conservation this bounds every block of the loop, nested loops
  // multiplying out through their entry edges.
  for (std::size_t l = 0; l < cfg.loops.size(); ++l) {
    const Loop& loop = cfg.loops[l];
    const std::set<int> members(loop.blocks.begin(), loop.blocks.end());
    const std::set<int> latches(loop.latches.begin(), loop.latches.end());
    ilp::Constraint c;
    for (int v : in_vars[static_cast<std::size_t>(loop.header)]) {
      const FlowEdge& e = edges[static_cast<std::size_t>(v)];
      if (e.from >= 0 && members.count(e.from) != 0) {
        if (latches.count(e.from) != 0) c.terms.push_back({v, ilp::Rat(1)});
      } else {
        c.terms.push_back({v, ilp::Rat(-std::max<std::int64_t>(
                                  loop_bound[l], 0))});
      }
    }
    c.sense = ilp::Sense::Le;
    c.rhs = ilp::Rat(0);
    c.tag = "loop " + block_label(cfg, loop.header) +
            " <= " + std::to_string(loop_bound[l]);
    problem.constraints.push_back(c);
  }

  // Infeasible-edge facts: the value analysis proved (under the trusted
  // annotations) that these edges can never be taken, so their frequency is
  // pinned to zero. This is the flow information the structural engine has
  // no way to use.
  IpetInfo info;
  for (std::size_t v = 0; v < n_edges; ++v) {
    const FlowEdge& e = edges[v];
    if (e.from < 0 || e.to < 0) continue;
    const auto it = values.edge_out.find({e.from, e.to});
    if (it == values.edge_out.end() || it->second.reachable) continue;
    ilp::Constraint c;
    c.terms = {{static_cast<int>(v), ilp::Rat(1)}};
    c.sense = ilp::Sense::Eq;
    c.rhs = ilp::Rat(0);
    c.tag = "infeasible " + block_label(cfg, e.from) + "->" +
            block_label(cfg, e.to);
    problem.constraints.push_back(c);
    ++info.capped_edges;
  }

  info.lp_vars = problem.num_vars;
  info.lp_constraints = static_cast<int>(problem.constraints.size());

  // ---- Solve (untrusted) and verify (trusted). ---------------------------
  const ilp::Solution sol = ilp::solve(problem);
  if (sol.status == ilp::Status::Infeasible)
    throw WcetError("IPET system infeasible for " + fn_name +
                    " (contradictory flow facts)");
  if (sol.status == ilp::Status::Unbounded)
    throw WcetError("IPET objective unbounded for " + fn_name +
                    " (missing loop bound constraint)");
  const std::string err =
      ilp::check_certificate(problem, sol.values, sol.objective);
  if (!err.empty())
    throw WcetError("IPET certificate verification failed for " + fn_name +
                    ": " + err);
  info.certificate_verified = true;
  info.simplex_pivots = sol.pivots;
  info.bnb_nodes = sol.bnb_nodes;

  check(sol.objective.is_integer() && sol.objective >= ilp::Rat(0),
        "ipet: optimal objective is not a non-negative integer");
  info.wcet_cycles =
      static_cast<std::uint64_t>(sol.objective.num()) + function_ps_charge;

  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    std::uint64_t freq = 0;
    for (int v : in_vars[b]) {
      const ilp::Rat& x = sol.values[static_cast<std::size_t>(v)];
      freq += static_cast<std::uint64_t>(x.num());
    }
    info.block_freq.emplace_back(cfg.blocks[b].start, freq);
  }
  return info;
}

}  // namespace vc::wcet
