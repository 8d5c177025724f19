// Implicit Path Enumeration (IPET) WCET engine.
//
// Where the structural engine (wcet.cpp) computes a longest path over the
// collapsed loop nest, this engine phrases the same question as an integer
// linear program over CFG edge frequencies — the formulation at the core of
// aiT, the analyzer the paper's numbers come from: maximize the sum of
// block cost times block frequency, subject to flow conservation, loop
// bounds, and infeasible-edge facts from the value analysis (which is where
// annotation-derived range facts become frequency caps the structural
// engine cannot express).
//
// The ILP is solved by src/ilp (exact rationals, untrusted simplex +
// branch-and-bound); the returned flow assignment is re-checked against
// every constraint by the independent verifier before the bound is
// believed. A failed check is a hard error naming the function.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mach/timing.hpp"
#include "wcet/cfg.hpp"
#include "wcet/value_analysis.hpp"

namespace vc::wcet {

/// Result of the IPET engine for one function.
struct IpetInfo {
  std::uint64_t wcet_cycles = 0;
  int lp_vars = 0;             ///< edge-frequency variables (incl. virtual)
  int lp_constraints = 0;
  std::int64_t simplex_pivots = 0;
  std::int64_t bnb_nodes = 0;
  /// Edges pinned to frequency 0 by value-analysis infeasibility (these are
  /// the constraints the structural engine cannot see).
  int capped_edges = 0;
  /// The optimal flow passed the independent certificate check. Always true
  /// when analyze_ipet returns (failure throws); recorded for reporting.
  bool certificate_verified = false;
  /// Optimal execution count per block (by start address) — the witness
  /// flow behind the bound.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> block_freq;
};

/// Inputs shared with the structural engine: the reconstructed CFG, the
/// value-analysis result, per-loop iteration bounds (index-aligned with
/// cfg.loops), per-block cycle costs, and the persistence charges.
IpetInfo analyze_ipet(const Cfg& cfg, const ValueAnalysisResult& values,
                      const std::vector<std::int64_t>& loop_bound,
                      const std::vector<std::uint64_t>& block_cost,
                      const std::vector<std::uint64_t>& loop_ps_charge,
                      std::uint64_t function_ps_charge,
                      const std::string& fn_name);

}  // namespace vc::wcet
