// Exact LP/ILP solving for implicit path enumeration.
//
// The problem shape is fixed by the IPET lowering (src/wcet/ipet.cpp):
// maximize a linear objective over non-negative variables subject to
// <=/>=/= constraints, with all variables required integral. The solver is
// a dense two-phase primal simplex over exact rationals with Bland's rule
// (anti-cycling), plus depth-first branch-and-bound for integrality.
//
// Trust boundary: nothing in solver.cpp is trusted. A solution is only
// accepted after verify.cpp::check_certificate re-evaluates every
// constraint and the objective against the returned assignment using only
// Rat arithmetic — a few dozen lines that are independent of the pivoting
// machinery. A solver bug therefore shows up as a rejected certificate,
// never as a silently wrong WCET bound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ilp/rational.hpp"

namespace vc::ilp {

enum class Sense { Le, Ge, Eq };

/// coeff * x[var]; variables are dense indices [0, num_vars).
struct LinTerm {
  int var = 0;
  Rat coeff;
};

struct Constraint {
  std::vector<LinTerm> terms;
  Sense sense = Sense::Le;
  Rat rhs;
  std::string tag;  ///< provenance for diagnostics ("loop@0x40", "flow b3"...)
};

/// Maximize objective . x  subject to constraints and x >= 0 (implicit).
struct Problem {
  int num_vars = 0;
  std::vector<LinTerm> objective;
  std::vector<Constraint> constraints;
  bool integer = false;  ///< require every variable integral (branch & bound)
};

enum class Status { Optimal, Infeasible, Unbounded };

/// Pivot-kernel selection. `Int64` is the fast lane: flat row-major int64
/// numerators with one shared denominator per row, pivoting in 128-bit
/// intermediates. A pivot updates an integral row (denominator 1, by an
/// integral pivot row) only over the pivot row's nonzero columns, the only
/// columns the dense update would change, and any other row over every
/// column with a single gcd normalization pass. IPET tableaux stay integral
/// and their pivot rows are ~6% nonzero, so the sparse case carries them.
/// `Rational` is the original per-cell Rat tableau. Both follow the same
/// Bland pivot rule over the same exact values, so they take identical pivot
/// sequences and return bit-identical solutions; `Auto` (the default) runs
/// the fast lane and transparently re-solves on the rational lane when a
/// reduced row no longer fits the int64 budget. Nothing here is trusted
/// either way — every accepted solution still passes check_certificate.
enum class PivotKernel { Auto, Int64, Rational };

struct Solution {
  Status status = Status::Infeasible;
  Rat objective;
  std::vector<Rat> values;  ///< one per variable when status == Optimal
  std::int64_t pivots = 0;  ///< simplex pivots across all LP solves
  std::int64_t bnb_nodes = 0;  ///< branch-and-bound nodes explored (1 = pure LP)
  std::int64_t fast_fallbacks = 0;  ///< LP solves re-run on the rational lane
};

/// Solves the LP relaxation (ignores Problem::integer).
[[nodiscard]] Solution solve_lp(const Problem& problem,
                                PivotKernel kernel = PivotKernel::Auto);

/// Solves the problem; runs branch-and-bound when Problem::integer is set.
[[nodiscard]] Solution solve(const Problem& problem,
                             PivotKernel kernel = PivotKernel::Auto);

/// Independent certificate check (verify.cpp): confirms `values` is
/// feasible for every constraint, non-negative, integral when required, and
/// that the objective evaluates to `objective`. Returns an empty string on
/// success, else a description of the first violated condition.
[[nodiscard]] std::string check_certificate(const Problem& problem,
                                            const std::vector<Rat>& values,
                                            const Rat& objective);

}  // namespace vc::ilp
